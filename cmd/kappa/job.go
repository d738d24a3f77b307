package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/graphio"
	"repro/internal/part"
	"repro/internal/svc"
)

// jobFlags are the job flags shared by `kappa` and `kappa serve`. They fill
// an svc.JobSpec — the request type of the job API — so every front door
// builds its graph and Config through svc.JobSpec.Build.
type jobFlags struct {
	spec svc.JobSpec
	out  string
}

// register installs the flags on fs; pesUsage documents what -pes counts
// under the command.
func (f *jobFlags) register(fs *flag.FlagSet, pesUsage string) {
	f.spec.Eps = new(float64)
	fs.StringVar(&f.spec.GraphFile, "in", "", "input graph file (METIS or binary; format sniffed)")
	fs.StringVar(&f.spec.Gen, "gen", "", "generator spec: rgg:S | delaunay:S | grid:WxH | grid3d:XxYxZ | road:N | social:N | rmat:S | fem:N | banded:N")
	fs.IntVar(&f.spec.K, "k", 2, "number of blocks")
	fs.StringVar(&f.spec.Preset, "preset", "fast", "minimal | fast | strong")
	fs.Float64Var(f.spec.Eps, "eps", 0.03, "allowed imbalance")
	fs.Uint64Var(&f.spec.Seed, "seed", 0, "random seed")
	fs.IntVar(&f.spec.PEs, "pes", 0, pesUsage)
	fs.StringVar(&f.spec.Dist, "dist", "auto", "node-to-PE distribution: auto | ranges | rcb | sfc")
	fs.StringVar(&f.out, "out", "", "write the block of each node, one per line")
}

// report prints the result lines of the run summary and writes the -out
// file, if one was named.
func (f *jobFlags) report(sum io.Writer, in *svc.Input, res core.Result) error {
	p := part.FromBlocks(in.Graph, in.Config.K, in.Config.Eps, res.Blocks)
	fmt.Fprintf(sum, "cut       %d\n", res.Cut)
	fmt.Fprintf(sum, "balance   %.4f (Lmax %d, feasible %v)\n", res.Balance, p.Lmax(), p.Feasible())
	fmt.Fprintf(sum, "levels    %d\n", res.Levels)
	fmt.Fprintf(sum, "time      total %v (coarsen %v, init %v, refine %v)\n",
		res.TotalTime.Round(1e6), res.CoarsenTime.Round(1e6), res.InitTime.Round(1e6), res.RefineTime.Round(1e6))
	if f.out == "" {
		return nil
	}
	if err := savePartition(f.out, res.Blocks); err != nil {
		return err
	}
	fmt.Fprintf(sum, "partition written to %s\n", f.out)
	return nil
}

// runContext is the context of one command: SIGINT/SIGTERM cancel it — the
// pipeline unwinds between kernels, profiles flush, connections close, and
// the process exits 1 instead of dying mid-write — and so does the timeout
// when it is positive.
func runContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	return ctx, func() { cancel(); stop() }
}

// savePartition writes blocks to path in the partition text format. A failed
// write or close fails the command: the file is the run's deliverable.
func savePartition(path string, blocks []int32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graphio.WritePartition(f, blocks); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
