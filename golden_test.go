package repro

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/remote"
	"repro/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current code")

const goldenPath = "testdata/golden.txt"

// blockDigest returns the first 16 hex characters of the SHA-256 of the
// block vector encoded as little-endian int32s.
func blockDigest(blocks []int32) string {
	buf := make([]byte, 4*len(blocks))
	for i, b := range blocks {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(b))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])[:16]
}

func goldenLine(name string, res Result) string {
	return fmt.Sprintf("%s cut=%d balance=%.6f digest=%s\n", name, res.Cut, res.Balance, blockDigest(res.Blocks))
}

// goldenConfig is the configuration every golden case runs under: k=8,
// seed 7, the given preset and PE count.
func goldenConfig(v Variant, mode CoarsenMode, pes int) Config {
	cfg := NewConfig(v, 8)
	cfg.Seed = 7
	cfg.Coarsen = mode
	cfg.PEs = pes
	return cfg
}

// serveInMemory runs remote.Serve on g. The type switch accepts both Serve
// signatures (with and without the ServeOptions parameter), so this file
// also compiles against trees from before Serve/ServeMetered/ServeWith were
// merged and the golden file can be regenerated there for comparison.
func serveInMemory(ctx context.Context, ln net.Listener, g *graph.Graph, cfg core.Config) (core.Result, error) {
	switch serve := any(remote.Serve).(type) {
	case func(context.Context, net.Listener, *graph.Graph, core.Config, remote.ServeOptions, ...core.Option) (core.Result, error):
		return serve(ctx, ln, g, cfg, remote.ServeOptions{})
	case func(context.Context, net.Listener, *graph.Graph, core.Config, ...core.Option) (core.Result, error):
		return serve(ctx, ln, g, cfg)
	default:
		return core.Result{}, fmt.Errorf("unexpected remote.Serve signature %T", serve)
	}
}

// withWorkers runs serve against a loopback listener with pes in-process
// workers connected to it.
func withWorkers(t *testing.T, pes int, serve func(ctx context.Context, ln net.Listener) (core.Result, error)) Result {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < pes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := remote.Work(ctx, "tcp", ln.Addr().String()); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}()
	}
	res, err := serve(ctx, ln)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// goldenDigests runs the golden matrix and returns the golden file's
// contents: one line per case with cut, balance and block-vector digest.
func goldenDigests(t *testing.T) []byte {
	var out bytes.Buffer
	specs := []string{"rgg:12", "delaunay:12", "road:4000", "social:3000", "grid3d:16x16x16"}
	for _, spec := range specs {
		g, err := GenerateFromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []Variant{Fast, Strong} {
			for _, mode := range []CoarsenMode{CoarsenShared, CoarsenDistributed} {
				for _, pes := range []int{2, 4} {
					name := fmt.Sprintf("%s/%s/%s/pes%d", spec, v, mode, pes)
					res, err := Run(context.Background(), g, goldenConfig(v, mode, pes))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					out.WriteString(goldenLine(name, res))
				}
			}
		}
	}

	const pes = 2
	g, err := GenerateFromSpec("rgg:12")
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenConfig(Fast, CoarsenDistributed, pes)
	res := withWorkers(t, pes, func(ctx context.Context, ln net.Listener) (core.Result, error) {
		return serveInMemory(ctx, ln, g, cfg)
	})
	out.WriteString(goldenLine("rgg:12/serve/pes2", res))

	dir := filepath.Join(t.TempDir(), "g.kst")
	if _, err := store.Write(dir, g, store.WriteOptions{PEs: pes, Strategy: dist.StrategyAuto}); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res = withWorkers(t, pes, func(ctx context.Context, ln net.Listener) (core.Result, error) {
		return remote.ServeStore(ctx, ln, st, cfg, remote.ServeOptions{})
	})
	out.WriteString(goldenLine("rgg:12/servestore/pes2", res))
	return out.Bytes()
}

// TestGoldenDigests pins every partition of a fixed matrix of graphs,
// presets, coarsening modes and PE counts (plus the socket coordinator on
// an in-memory graph and on a shard store) to the committed digests in
// testdata/golden.txt. The pipeline is deterministic for a fixed seed, so
// any change to a cut, a balance or a single block id is a behaviour change
// and fails here. Regenerate deliberately with
//
//	go test -run Golden -update .
func TestGoldenDigests(t *testing.T) {
	got := goldenDigests(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with: go test -run Golden -update .)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := bytes.SplitAfter(got, []byte("\n"))
	wantLines := bytes.SplitAfter(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
}
