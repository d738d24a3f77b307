package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/obs"
	"repro/internal/svc"
)

// apiClients is the number of closed-loop API clients, each on its own
// keep-alive connection.
const apiClients = 2

// apiJob is one (graph, seed) job of the api mix.
type apiJob struct {
	key   string
	g     *graph.Graph
	metis []byte // the graph as the job body carries it
	body  []byte
}

// api is the api workload: closed-loop clients submit inline METIS jobs to
// the svc job service over loopback HTTP, wait for each job's SSE event
// stream to end and fetch its partition. Jobs are small, so the fixed
// per-job costs — HTTP, METIS parsing, queueing, the arena pool — weigh
// heavily.
type api struct {
	seed uint64
	k    int
	jobs []apiJob

	srv     *svc.Server
	hs      *http.Server
	served  chan error
	base    string
	clients []*http.Client
}

func newAPI(seed uint64) *api { return &api{seed: seed, k: 8} }

// apiGraphs is the graph mix: each family is generated from apiGraphSeeds
// generator seeds (the grid has none), and each graph is submitted under
// apiSeeds partition seeds.
var apiGraphs = []instance{
	{"rgg:12", func(s uint64) *graph.Graph { return gen.RGG(12, s) }},
	{"delaunay:12", func(s uint64) *graph.Graph { return gen.DelaunayX(12, s) }},
	{"grid:64x64", func(uint64) *graph.Graph { return gen.Grid2D(64, 64) }},
	{"social:3000", func(s uint64) *graph.Graph { return gen.PrefAttach(3000, 5, s) }},
}

const (
	apiGraphSeeds = 8
	apiSeeds      = 4
)

// apiRetain is the number of finished jobs the service keeps for fetching.
// The default (1024) would make the heap grow with every job of a run; a
// small window keeps it at the steady state of a long-running service.
const apiRetain = 32

func (a *api) setup(ctx context.Context, st *setupTimes) error {
	a.release()
	t0 := time.Now()
	var graphs []*graph.Graph
	for _, in := range apiGraphs {
		for gi := 0; gi < apiGraphSeeds; gi++ {
			graphs = append(graphs, in.build(derive(a.seed, "gen/"+in.name, gi)))
		}
	}
	st.gen = time.Since(t0)

	a.jobs = nil
	for i, g := range graphs {
		name := fmt.Sprintf("%s#%d", apiGraphs[i/apiGraphSeeds].name, i%apiGraphSeeds)
		var metis bytes.Buffer
		if err := graphio.WriteMETIS(&metis, g); err != nil {
			return err
		}
		for s := 0; s < apiSeeds; s++ {
			key := fmt.Sprintf("%s/k%d/seed%d", name, a.k, s)
			body, err := json.Marshal(svc.JobSpec{Graph: metis.String(), K: a.k, Seed: derive(a.seed, "part/"+key, 0)})
			if err != nil {
				return err
			}
			a.jobs = append(a.jobs, apiJob{key: key, g: g, metis: metis.Bytes(), body: body})
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	a.srv = svc.New(svc.Options{Retain: apiRetain})
	a.hs = &http.Server{Handler: a.srv.Handler()}
	a.served = make(chan error, 1)
	go func() { a.served <- a.hs.Serve(ln) }()
	a.base = "http://" + ln.Addr().String()
	a.clients = make([]*http.Client, apiClients)
	for c := range a.clients {
		a.clients[c] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
	}
	return nil
}

// release stops the current server and its clients, if any.
func (a *api) release() {
	for _, c := range a.clients {
		c.CloseIdleConnections()
	}
	a.clients = nil
	if a.hs != nil {
		a.hs.Close()
		<-a.served
		a.srv.Close()
		a.hs, a.srv = nil, nil
	}
}

func (a *api) shape() shape {
	n := len(apiGraphs) * apiGraphSeeds * apiSeeds
	return shape{passSize: n, clients: apiClients, minReqs: 3 * n}
}

// errRejected marks an admission rejection (429 or 503).
var errRejected = errors.New("job rejected by admission control")

func (a *api) do(ctx context.Context, c, i int, tr *reqTrace, lay *layers) outcome {
	j := a.jobs[i%len(a.jobs)]
	hc := a.clients[c]
	o := outcome{key: j.key, g: j.g, root: "svc.job"}
	o.start = time.Now()
	st, err := a.submit(ctx, hc, j.body)
	tSubmit := time.Now()
	var tEvents time.Time
	var blocks []int32
	if err == nil {
		err = a.events(ctx, hc, st.ID, tr)
		tEvents = time.Now()
	}
	if err == nil {
		blocks, err = a.result(ctx, hc, st.ID)
	}
	o.end = time.Now()
	if err == nil {
		st, err = a.status(ctx, hc, st.ID)
	}
	if err == nil && st.State != svc.StateDone {
		err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	o.err = err
	o.claim = claim{k: a.k, eps: 0.03, blocks: blocks, cut: st.Cut, balance: st.Balance}
	if tr == nil {
		return o
	}
	o.children = []namedSpan{
		{"http.submit", o.start, tSubmit},
		{"http.events", tSubmit, tEvents},
		{"http.result", tEvents, o.end},
	}
	var arena *obs.ArenaReport
	if err == nil {
		var rep obs.Report
		if err := a.getJSON(ctx, hc, "/api/v1/jobs/"+st.ID+"/report", &rep); err == nil {
			arena = rep.Arena
		}
	}
	lay.with(func(l *layers) {
		if errors.Is(err, errRejected) {
			l.rejected++
		}
		if err != nil {
			return
		}
		lat := o.end.Sub(o.start).Seconds()
		l.svcQueue = append(l.svcQueue, st.QueueSec)
		l.svcRun = append(l.svcRun, st.RunSec)
		l.svcOverhead = append(l.svcOverhead, lat-st.QueueSec-st.RunSec)
		if arena != nil {
			l.arenaBorrows += arena.Borrows
			l.arenaReused += arena.Reused
			l.arenaAlloc += arena.AllocatedBytes
		}
	})
	return o
}

func (a *api) submit(ctx context.Context, hc *http.Client, body []byte) (svc.Status, error) {
	var st svc.Status
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.base+"/api/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		return st, json.NewDecoder(resp.Body).Decode(&st)
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		io.Copy(io.Discard, resp.Body)
		return st, fmt.Errorf("%w: %s", errRejected, resp.Status)
	default:
		msg, _ := io.ReadAll(resp.Body)
		return st, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
}

// events reads the job's SSE stream until the server ends it. Traced, it
// hands every pipeline event to tr with its arrival time.
func (a *api) events(ctx context.Context, hc *http.Client, id string, tr *reqTrace) error {
	resp, err := a.get(ctx, hc, "/api/v1/jobs/"+id+"/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if tr == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	var typ string
	var data []byte
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			typ = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append(data[:0], line[len("data: "):]...)
		case len(line) == 0 && typ != "":
			if ev, err := sseEvent(typ, data); err != nil {
				return err
			} else if ev != nil {
				tr.record(ev, time.Now())
			}
			typ = ""
		}
	}
	return sc.Err()
}

// sseEvent decodes one SSE payload back into the pipeline trace event it
// renders; lifecycle events give nil.
func sseEvent(typ string, data []byte) (core.TraceEvent, error) {
	secs := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	var v struct {
		Level       int     `json:"level"`
		Nodes       int     `json:"nodes"`
		Edges       int     `json:"edges"`
		Seconds     float64 `json:"seconds"`
		MatchSec    float64 `json:"match_seconds"`
		ContractSec float64 `json:"contract_seconds"`
		Cut         int64   `json:"cut"`
		Iteration   int     `json:"iteration"`
		Gain        int64   `json:"gain"`
		Phase       string  `json:"phase"`
	}
	switch typ {
	case "level", "init", "refine", "phase":
		if err := json.Unmarshal(data, &v); err != nil {
			return nil, fmt.Errorf("%s event: %w", typ, err)
		}
	default:
		return nil, nil
	}
	switch typ {
	case "level":
		return core.LevelEvent{Level: v.Level, Nodes: v.Nodes, Edges: v.Edges,
			Time: secs(v.Seconds), Match: secs(v.MatchSec), Contract: secs(v.ContractSec)}, nil
	case "init":
		return core.InitEvent{Cut: v.Cut, Time: secs(v.Seconds)}, nil
	case "refine":
		return core.RefineEvent{Level: v.Level, Iteration: v.Iteration, Gain: v.Gain}, nil
	}
	for p := core.PhaseCoarsen; p <= core.PhaseTotal; p++ {
		if p.String() == v.Phase {
			return core.PhaseEvent{Phase: p, Time: secs(v.Seconds)}, nil
		}
	}
	return nil, fmt.Errorf("unknown phase %q", v.Phase)
}

// result fetches the partition text, one block per line.
func (a *api) result(ctx context.Context, hc *http.Client, id string) ([]int32, error) {
	resp, err := a.get(ctx, hc, "/api/v1/jobs/"+id+"/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result: %s", resp.Status)
	}
	return parsePartition(resp.Body)
}

// parsePartition reads the partition text format: one block id per line.
func parsePartition(r io.Reader) ([]int32, error) {
	var blocks []int32
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		b, err := strconv.ParseInt(string(bytes.TrimSpace(sc.Bytes())), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("partition line %d: %w", len(blocks)+1, err)
		}
		blocks = append(blocks, int32(b))
	}
	return blocks, sc.Err()
}

func (a *api) status(ctx context.Context, hc *http.Client, id string) (svc.Status, error) {
	var st svc.Status
	err := a.getJSON(ctx, hc, "/api/v1/jobs/"+id, &st)
	return st, err
}

func (a *api) get(ctx context.Context, hc *http.Client, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, a.base+path, nil)
	if err != nil {
		return nil, err
	}
	return hc.Do(req)
}

func (a *api) getJSON(ctx context.Context, hc *http.Client, path string, v any) error {
	resp, err := a.get(ctx, hc, path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// probe times graphio.Read on the METIS text of every graph in the mix —
// the parse each job pays inside the service — and reports the mean per
// job.
func (a *api) probe(_ context.Context, pl perLayer) error {
	var total time.Duration
	for _, j := range a.jobs {
		t0 := time.Now()
		g, err := graphio.Read(bytes.NewReader(j.metis), graphio.FormatMETIS)
		total += time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s: %w", j.key, err)
		}
		if g.NumNodes() != j.g.NumNodes() || g.NumEdges() != j.g.NumEdges() {
			return fmt.Errorf("%s: METIS body reads back as %d nodes and %d edges", j.key, g.NumNodes(), g.NumEdges())
		}
	}
	pl["graphio.read_s"] = total.Seconds() / float64(len(a.jobs))
	return nil
}

func (a *api) close() { a.release() }
