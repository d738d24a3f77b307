package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// partitioned runs the real pipeline on a small grid and returns the graph
// and the claim it makes.
func partitioned(t *testing.T) (*graph.Graph, claim) {
	t.Helper()
	g := gen.Grid2D(16, 16)
	cfg := core.NewConfig(core.Fast, 4)
	cfg.Seed = 7
	res, err := core.Run(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, claim{k: cfg.K, eps: cfg.Eps, blocks: res.Blocks, cut: res.Cut, balance: res.Balance}
}

func TestVerifyAcceptsRealPartition(t *testing.T) {
	g, c := partitioned(t)
	if err := verify(g, c); err != nil {
		t.Fatalf("verify rejected the pipeline's own partition: %v", err)
	}
}

func TestVerifyRejectsFlippedBlock(t *testing.T) {
	g, c := partitioned(t)
	// Move a node whose neighbours all share its block: the true cut grows
	// by its degree, so the reported cut no longer matches.
	v := interiorNode(t, g, c.blocks)
	flipped := append([]int32(nil), c.blocks...)
	flipped[v] = (flipped[v] + 1) % int32(c.k)
	c.blocks = flipped
	if err := verify(g, c); err == nil {
		t.Fatal("verify accepted a partition with one flipped block")
	}
}

func TestVerifyRejectsCutOffByOne(t *testing.T) {
	g, c := partitioned(t)
	c.cut++
	if err := verify(g, c); err == nil || !strings.Contains(err.Error(), "cut") {
		t.Fatalf("verify accepted a reported cut that is off by one (err %v)", err)
	}
}

func TestVerifyRejectsMalformed(t *testing.T) {
	g, c := partitioned(t)
	short := c
	short.blocks = c.blocks[:len(c.blocks)-1]
	if err := verify(g, short); err == nil {
		t.Error("verify accepted a partition with a missing node")
	}
	out := c
	out.blocks = append([]int32(nil), c.blocks...)
	out.blocks[0] = int32(c.k)
	if err := verify(g, out); err == nil {
		t.Error("verify accepted a block outside [0,k)")
	}
	heavy := c
	heavy.blocks = make([]int32, len(c.blocks)) // everything in block 0
	heavy.cut = 0
	heavy.balance = float64(c.k)
	if err := verify(g, heavy); err == nil || !strings.Contains(err.Error(), "Lmax") {
		t.Errorf("verify accepted a block above Lmax (err %v)", err)
	}
}

func TestRepeatedRequestMustMatch(t *testing.T) {
	_, c := partitioned(t)
	first := reference{digest(c.blocks), c.cut, c.balance}
	if err := first.same(reference{digest(c.blocks), c.cut, c.balance}); err != nil {
		t.Fatalf("identical repeat rejected: %v", err)
	}
	other := append([]int32(nil), c.blocks...)
	other[0], other[len(other)-1] = other[len(other)-1], other[0]+1
	if err := first.same(reference{digest(other), c.cut, c.balance}); err == nil {
		t.Fatal("a repeat with a different block vector was accepted")
	}
}

func interiorNode(t *testing.T, g *graph.Graph, blocks []int32) int32 {
	t.Helper()
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		inside := true
		for _, u := range g.Adj(v) {
			inside = inside && blocks[u] == blocks[v]
		}
		if inside && g.Degree(v) > 0 {
			return v
		}
	}
	t.Fatal("no interior node")
	return -1
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 10},
		{ID: 1, Parent: 0, Start: 1, End: 4},
		{ID: 2, Parent: 0, Start: 3, End: 6},  // overlaps its sibling
		{ID: 3, Parent: 0, Start: 9, End: 12}, // runs past its parent
		{ID: 4, Parent: 1, Start: 2, End: 3},
	}
	want := []float64{10 - 5 - 1, 3 - 1, 3, 3, 1}
	for i, got := range selfTimes(spans) {
		if math.Abs(got-want[i]) > 1e-12 {
			t.Errorf("span %d: self time %v, want %v", i, got, want[i])
		}
	}
}

func TestPassTimeTakesMedianPerRequest(t *testing.T) {
	t0 := time.Unix(0, 0)
	rec := func(key string, pass int, secs float64) record {
		return record{key: key, pass: pass, start: t0, end: t0.Add(time.Duration(secs * float64(time.Second)))}
	}
	r := &runner{shape: shape{passSize: 2, clients: 1}, records: []record{
		rec("a", 0, 1), rec("b", 0, 3),
		rec("a", 1, 9), rec("b", 1, 3), // one slow repetition of a
		rec("a", 2, 1), rec("b", 2, 3),
	}}
	pass, n := r.passTime(false)
	if pass != 4 || n != 6 {
		t.Errorf("pass time %v from %d samples, want 4 from 6", pass, n)
	}
	if lat := keyMedians(r.latencies(false)); len(lat) != 2 || lat[0] != 1 || lat[1] != 3 {
		t.Errorf("per-request medians %v, want [1 3]", lat)
	}
}

func TestSSEEventDecoding(t *testing.T) {
	ev, err := sseEvent("phase", []byte(`{"phase":"refine","seconds":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	if pe, ok := ev.(core.PhaseEvent); !ok || pe.Phase != core.PhaseRefine || pe.Time.Seconds() != 0.5 {
		t.Fatalf("decoded %#v", ev)
	}
	if ev, err := sseEvent("state", []byte(`{"state":"done"}`)); ev != nil || err != nil {
		t.Fatalf("lifecycle event decoded as %#v, %v", ev, err)
	}
	blocks, err := parsePartition(strings.NewReader("0\n3\n1\n"))
	if err != nil || len(blocks) != 3 || blocks[1] != 3 {
		t.Fatalf("parsePartition = %v, %v", blocks, err)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists of this program and
// of BENCHMARK.json at the repository root in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, code []metricDef, file []struct{ Name, Unit string }) {
		if len(code) != len(file) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json lists %d", kind, len(code), len(file))
			return
		}
		for i := range code {
			if code[i].name != file[i].Name || code[i].unit != file[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)",
					kind, i, code[i].name, code[i].unit, file[i].Name, file[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayerMetrics, b.PerLayer)
}
