package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/store"
	"repro/internal/svc"
)

// runShard is the `kappa shard` subcommand: it partitions a graph's nodes
// across PEs with a distribution strategy and writes an on-disk shard store —
// one wire-encoded subgraph file per PE, a fixed-layout CSR segment, and a
// manifest — that `kappa serve -shards` later streams without ever holding
// the global adjacency on the coordinator's heap.
func runShard(args []string) {
	fs := flag.NewFlagSet("kappa shard", flag.ExitOnError)
	var (
		inFile  = fs.String("in", "", "input graph file (METIS or binary; format sniffed)")
		genSpec = fs.String("gen", "", "generator spec (see kappa -gen)")
		pes     = fs.Int("pe", 0, "number of shards (one per worker PE); required")
		distFl  = fs.String("dist", "auto", "node-to-PE distribution: auto | ranges | rcb | sfc")
		outDir  = fs.String("o", "", "output store directory (created if missing); required")
		workers = fs.Int("workers", 0, "goroutines writing shards concurrently; 0 = GOMAXPROCS")
		seed    = fs.Uint64("seed", 0, "run seed recorded in the manifest (provenance only)")
	)
	fs.Parse(args)

	if *outDir == "" {
		fail(fmt.Errorf("%w: need -o (output store directory)", core.ErrInvalidConfig))
	}
	if *pes < 1 {
		fail(fmt.Errorf("%w: need -pe >= 1 (one shard per worker PE)", core.ErrInvalidConfig))
	}
	strategy, err := dist.ParseStrategy(*distFl)
	if err != nil {
		fail(fmt.Errorf("%w: %v", core.ErrInvalidConfig, err))
	}
	src := svc.JobSpec{GraphFile: *inFile, Gen: *genSpec}
	in, err := src.Load("")
	if err != nil {
		fail(err)
	}

	m, err := store.Write(*outDir, in.Graph, store.WriteOptions{
		PEs:      *pes,
		Strategy: strategy,
		Workers:  *workers,
		Seed:     *seed,
	})
	if err != nil {
		fail(err)
	}

	var shardBytes int64
	for i := range m.Shards {
		shardBytes += m.Shards[i].Bytes
	}
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stdout, "graph     n=%d m=%d\n", m.Nodes, m.Edges)
	fmt.Fprintf(os.Stdout, "store     %s (%d shards, dist=%s, %d writers)\n", *outDir, m.PEs, m.Strategy, w)
	fmt.Fprintf(os.Stdout, "bytes     shards %d, csr %d\n", shardBytes, m.CSR.Bytes)
	fmt.Fprintf(os.Stdout, "serve     kappa serve -shards %s -k <k> -seed <seed>\n", *outDir)
}
