package svc

import (
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/store"
)

// JobSpec is one partitioning request, and the submit-request body of the
// job API. Fields mirror the kappa CLI flags one-to-one, and kappa, kappa
// serve and the API all turn a request into a run through JobSpec.Build, so
// a job's result is byte-identical to the equivalent one-shot run:
// {"gen":"rgg:10","k":4,"seed":7} is `kappa -gen rgg:10 -k 4 -seed 7`.
// Exactly one graph source — gen, graph_file, graph, or shard_dir — must be
// set.
type JobSpec struct {
	// Gen is a synthetic-generator spec (rgg:S, grid:WxH, road:N, ...),
	// the CLI's -gen.
	Gen string `json:"gen,omitempty"`
	// GraphFile names a graph file (METIS or binary, format sniffed), the
	// CLI's -in. When the server was started with a graph directory, the
	// path is resolved inside it and may not escape.
	GraphFile string `json:"graph_file,omitempty"`
	// Graph is an inline METIS-format graph, for clients that ship the
	// input in the request. Bounded by the server's max body size.
	Graph string `json:"graph,omitempty"`
	// ShardDir names a shard store directory (kappa shard output), the
	// serve subcommand's -shards. The global graph is memory-mapped from the
	// store's CSR segment, and the manifest's shard count and distribution
	// strategy are adopted into the config — a conflicting pes or dist is
	// rejected. Confined to the server's graph directory like graph_file.
	ShardDir string `json:"shard_dir,omitempty"`

	K       int      `json:"k"`
	Preset  string   `json:"preset,omitempty"`  // minimal | fast | strong; default fast
	Eps     *float64 `json:"eps,omitempty"`     // nil means 0.03; 0 is a valid bound
	Seed    uint64   `json:"seed,omitempty"`    // default 0
	PEs     int      `json:"pes,omitempty"`     // default: k
	Dist    string   `json:"dist,omitempty"`    // auto | ranges | rcb | sfc
	Coarsen string   `json:"coarsen,omitempty"` // shared | distributed
	Workers int      `json:"workers,omitempty"` // default GOMAXPROCS

	// Timeout is the job's deadline as a Go duration string ("30s"); it
	// starts at admission, so queue time counts. Empty means the server
	// default; values above the server maximum are clamped to it.
	Timeout string `json:"timeout,omitempty"`
}

// Input is a built request: the graph, the preset it names, the validated
// Config, and — for a shard_dir source — the opened store whose shape the
// Config adopted.
type Input struct {
	Graph   *graph.Graph
	Variant core.Variant
	Config  core.Config
	// Store is the shard store of a shard_dir source, nil otherwise. Graph
	// is then a memory-mapped view of the store's CSR segment; Close
	// releases the mapping (an unclosed one is released by the GC).
	Store  *store.Store
	mapped *store.MappedGraph
}

// Close releases the memory mapping of a shard_dir input; it is a no-op for
// every other source.
func (in *Input) Close() error {
	if in.mapped == nil {
		return nil
	}
	return in.mapped.Close()
}

// Build is the one construction path from a request to a run. It loads the
// graph (Load), then builds the Config: the preset, eps, seed, PEs,
// distribution, coarsening mode and workers, a shard store's adopted shape,
// and Validate. Usage errors — a bad name or value, no or several graph
// sources, a path outside graphDir — wrap core.ErrInvalidConfig; I/O and
// decode errors do not. graphDir confines graph_file and shard_dir paths
// (Options.GraphDir); empty allows any path.
func (spec *JobSpec) Build(graphDir string) (*Input, error) {
	in, err := spec.Load(graphDir)
	if err != nil {
		return nil, err
	}
	if err := spec.configure(in); err != nil {
		in.Close()
		return nil, err
	}
	return in, nil
}

// configure fills in.Variant and in.Config from the spec.
func (spec *JobSpec) configure(in *Input) error {
	variant, err := core.ParseVariant(spec.Preset)
	if err != nil {
		return err
	}
	cfg := core.NewConfig(variant, spec.K)
	if spec.Eps != nil {
		cfg.Eps = *spec.Eps
	}
	cfg.Seed = spec.Seed
	cfg.PEs = spec.PEs
	cfg.Workers = spec.Workers
	if cfg.Distribution, err = dist.ParseStrategy(spec.Dist); err != nil {
		return invalid(err)
	}
	if cfg.Coarsen, err = core.ParseCoarsenMode(spec.Coarsen); err != nil {
		return invalid(err)
	}
	if in.Store != nil {
		if err := in.Store.Manifest().Adopt(&cfg); err != nil {
			return err
		}
	}
	if err := cfg.Validate(); err != nil {
		return invalid(err)
	}
	in.Variant, in.Config = variant, cfg
	return nil
}

// Load resolves the spec's one graph source without building a Config —
// kappa shard, which writes a store rather than partitioning, stops here.
func (spec *JobSpec) Load(graphDir string) (*Input, error) {
	sources := 0
	for _, set := range []bool{spec.Gen != "", spec.GraphFile != "", spec.Graph != "", spec.ShardDir != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("%w: need exactly one graph source (-in, -gen or -shards; graph_file, gen, graph or shard_dir in a job spec), got %d",
			core.ErrInvalidConfig, sources)
	}
	switch {
	case spec.Gen != "":
		g, err := gen.FromSpec(spec.Gen)
		if err != nil {
			return nil, invalid(err)
		}
		return &Input{Graph: g}, nil
	case spec.Graph != "":
		g, err := graphio.ReadMETIS(strings.NewReader(spec.Graph))
		if err != nil {
			return nil, fmt.Errorf("inline graph: %w", err)
		}
		return &Input{Graph: g}, nil
	case spec.ShardDir != "":
		path, err := confine(graphDir, "shard_dir", spec.ShardDir)
		if err != nil {
			return nil, err
		}
		st, err := store.Open(path)
		if err != nil {
			return nil, err
		}
		mg, err := st.MapGraph()
		if err != nil {
			return nil, err
		}
		return &Input{Graph: mg.G, Store: st, mapped: mg}, nil
	default:
		path, err := confine(graphDir, "graph_file", spec.GraphFile)
		if err != nil {
			return nil, err
		}
		g, err := graphio.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return &Input{Graph: g}, nil
	}
}

// invalid classifies err as a usage error.
func invalid(err error) error {
	return fmt.Errorf("%w: %v", core.ErrInvalidConfig, err)
}

// confine resolves a client-supplied path under dir: the path must be
// relative and stay inside dir after cleaning. An empty dir allows any path.
func confine(dir, field, path string) (string, error) {
	if dir == "" {
		return path, nil
	}
	if filepath.IsAbs(path) || !filepath.IsLocal(path) {
		return "", fmt.Errorf("%w: %s %q escapes the served graph directory", core.ErrInvalidConfig, field, path)
	}
	return filepath.Join(dir, path), nil
}
