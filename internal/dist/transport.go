package dist

import "sync"

// Transport is the message-passing seam of distributed coarsening: the
// bulk-synchronous superstep operations that the per-PE level program
// (core.RunPE: matching.MatchSubgraph, the empty-matching vote,
// coarsen.ContractSubgraph) is written against. Every PE participating in
// a superstep calls Exchange exactly once; the call doubles as a barrier and
// returns the PE's inbox ordered by sender PE with each sender's messages in
// send order — the property that makes distributed coarsening byte-identical
// under a fixed seed regardless of goroutine scheduling.
//
// The channel-backed Exchanger is the in-process default; LockstepTransport
// is a second, mutex-based implementation proving the seam is real. A future
// RPC or MPI backend implements the same three calls and becomes a drop-in
// replacement for the whole distributed contraction phase.
type Transport interface {
	// PEs returns the number of connected processing elements.
	PEs() int
	// Exchange performs one superstep for PE pe: out[q] is delivered to PE
	// q (out may be shorter than PEs(); missing tails count as empty), and
	// the call blocks until every PE's batch for this superstep is in. The
	// returned inbox is ordered by sender PE, each sender's messages in
	// send order.
	Exchange(pe int, out [][]Msg) []Msg
	// AllReduceOr runs one superstep that ORs v across all PEs; every PE
	// receives the same result (the termination vote of iterated rounds).
	AllReduceOr(pe int, v bool) bool
}

// Exchanger is the default Transport.
var _ Transport = (*Exchanger)(nil)

// LockstepTransport is a second in-process Transport implementation: a
// strict mutex/condvar barrier with per-superstep staging buffers instead of
// per-PE mailbox channels. It exists to prove the Transport seam carries the
// whole distributed contraction phase — swapping it for the Exchanger must
// not change a single byte of the result — and as the simplest template for
// an out-of-process backend.
type LockstepTransport struct {
	pes  int
	mu   sync.Mutex
	cond *sync.Cond
	next []uint64 // per-PE next superstep index
	step map[uint64]*lockstepRound
}

// lockstepRound is the staging buffer of one superstep.
type lockstepRound struct {
	out  [][][]Msg // by sender PE
	got  int       // senders arrived
	read int       // receivers done
}

// NewLockstepTransport returns a LockstepTransport connecting pes PEs.
func NewLockstepTransport(pes int) *LockstepTransport {
	t := &LockstepTransport{
		pes:  pes,
		next: make([]uint64, pes),
		step: make(map[uint64]*lockstepRound),
	}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// PEs returns the number of connected PEs.
func (t *LockstepTransport) PEs() int { return t.pes }

// Exchange implements Transport.Exchange with a strict barrier: the last PE
// to arrive wakes everyone, each receiver assembles its inbox in sender
// order, and the round's buffers are released once every PE has read.
func (t *LockstepTransport) Exchange(pe int, out [][]Msg) []Msg {
	t.mu.Lock()
	defer t.mu.Unlock()
	step := t.next[pe]
	t.next[pe]++
	r := t.step[step]
	if r == nil {
		r = &lockstepRound{out: make([][][]Msg, t.pes)}
		t.step[step] = r
	}
	r.out[pe] = out
	r.got++
	if r.got == t.pes {
		t.cond.Broadcast()
	}
	for r.got < t.pes {
		t.cond.Wait()
	}
	total := 0
	for q := 0; q < t.pes; q++ {
		if pe < len(r.out[q]) {
			total += len(r.out[q][pe])
		}
	}
	in := make([]Msg, 0, total)
	for q := 0; q < t.pes; q++ {
		if pe < len(r.out[q]) {
			in = append(in, r.out[q][pe]...)
		}
	}
	r.read++
	if r.read == t.pes {
		delete(t.step, step)
	}
	return in
}

// AllReduceOr implements Transport.AllReduceOr over one Exchange superstep.
func (t *LockstepTransport) AllReduceOr(pe int, v bool) bool {
	return allReduceOr(t, pe, v)
}

// allReduceOr is the shared OR-vote superstep: broadcast a flag to every PE
// and OR the received flags.
func allReduceOr(t Transport, pe int, v bool) bool {
	var w int64
	if v {
		w = 1
	}
	out := make([][]Msg, t.PEs())
	for q := range out {
		out[q] = []Msg{{Kind: MsgFlag, W: w}}
	}
	any := false
	for _, m := range t.Exchange(pe, out) {
		if m.W != 0 {
			any = true
		}
	}
	return any
}
