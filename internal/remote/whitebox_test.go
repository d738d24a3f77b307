// White-box tests for the coordinator's outcome accounting — invariants of
// unexported machinery that the black-box fault harness cannot pin directly.
package remote

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/wire"
)

// TestRemoteLevelMidBatchJobFailure pins the outcome accounting of a job
// write that fails partway through a worker hosting several PEs — the normal
// state after a reassignment. Every hosted PE must yield exactly one outcome
// even when some jobs were never sent; the collector waits for pes outcomes,
// so a short count hangs the level (and Serve) forever. Regression test for
// the lazily-populated pending set that dropped the unsent PEs.
func TestRemoteLevelMidBatchJobFailure(t *testing.T) {
	c1, c2 := net.Pipe()
	c2.Close() // every write on c1 now fails immediately
	w := &workerConn{id: 0, conn: c1, br: bufio.NewReader(c1), hosted: []int{0, 1}}
	deadW := &workerConn{id: 1}
	deadW.dead.Store(true)

	co := &coordinator{
		pes:      2,
		counters: &Counters{},
		workers:  []*workerConn{w, deadW},
		owner:    []int{0, 0},
		hub:      dist.NewSocketHub(2),
	}
	cfg := core.NewConfig(core.Fast, 2)
	cfg.PEs = 2
	g := gen.Grid2D(8, 8)

	done := make(chan error, 1)
	go func() {
		_, _, _, _, err := co.remoteLevel(g, &cfg, nil, 0, 0)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("remoteLevel succeeded over a closed control connection")
		}
		var we *WorkerError
		if !errors.As(err, &we) {
			t.Fatalf("error %v is not a *WorkerError", err)
		}
		if we.Phase != "job" {
			t.Fatalf("WorkerError phase %q, want \"job\"", we.Phase)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("remoteLevel hung: a mid-batch job failure did not drain every hosted PE")
	}
}

// TestRemoteLevelInconsistentResult pins the coordinator's defense against
// a worker whose contraction does not fit the level (here a fine node id far
// outside the 4-node graph): instead of panicking in Stitch, the level fails
// with a *WorkerError naming the offending worker, which is declared dead so
// the reassignment path takes over — exactly as for a crashed worker.
func TestRemoteLevelInconsistentResult(t *testing.T) {
	g := gen.Grid2D(2, 2)
	parts := []*coarsen.PEContraction{
		{FirstCoarse: 0, Weights: []int64{4}, CX: []float64{0}, CY: []float64{0},
			FineGlobal: []int32{99}, FineCoarse: []int32{0}},
		{FirstCoarse: 1},
	}
	workers := make([]*workerConn, 2)
	for pe := range workers {
		c1, c2 := net.Pipe()
		defer c1.Close()
		defer c2.Close()
		workers[pe] = &workerConn{id: pe, conn: c1, br: bufio.NewReader(c1), hosted: []int{pe}}
		// A fake worker: read the job, answer with the prepared part.
		go func(pe int, conn net.Conn) {
			if _, _, err := wire.ReadFrame(bufio.NewReader(conn)); err != nil {
				return
			}
			res := wire.Result{PELevel: coarsen.PELevel{PE: pe, Matched: 1, Part: parts[pe]}}
			wire.WriteFrame(conn, wire.KindResult, wire.AppendResult(nil, res))
		}(pe, c2)
	}
	co := &coordinator{
		pes:      2,
		counters: &Counters{},
		workers:  workers,
		owner:    []int{0, 1},
		hub:      dist.NewSocketHub(2),
	}
	cfg := core.NewConfig(core.Fast, 2)
	cfg.PEs = 2

	_, _, _, _, err := co.remoteLevel(g, &cfg, nil, 0, 0)
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("got %v, want a *WorkerError", err)
	}
	if we.PE != 0 || we.Phase != "result" {
		t.Fatalf("WorkerError names worker %d phase %q, want worker 0 phase \"result\"", we.PE, we.Phase)
	}
	if !workers[0].dead.Load() || workers[1].dead.Load() {
		t.Fatalf("dead flags %v/%v, want only worker 0 dead", workers[0].dead.Load(), workers[1].dead.Load())
	}
	if got := co.counters.WorkerFailures.Load(); got != 1 {
		t.Fatalf("WorkerFailures = %d, want 1", got)
	}
}
