package svc

import (
	"errors"
	"testing"

	"repro/internal/core"
)

// TestBuildClassifiesErrors pins the builder's error contract the CLI's exit
// codes rest on: usage errors wrap core.ErrInvalidConfig (exit 2), I/O errors
// do not (exit 1).
func TestBuildClassifiesErrors(t *testing.T) {
	for name, tc := range map[string]struct {
		spec  JobSpec
		usage bool
	}{
		"no source":       {JobSpec{K: 2}, true},
		"two sources":     {JobSpec{Gen: "grid:4x4", GraphFile: "g.graph", K: 2}, true},
		"bad generator":   {JobSpec{Gen: "nope:3", K: 2}, true},
		"bad preset":      {JobSpec{Gen: "grid:4x4", K: 2, Preset: "turbo"}, true},
		"bad dist":        {JobSpec{Gen: "grid:4x4", K: 2, Dist: "spiral"}, true},
		"bad coarsen":     {JobSpec{Gen: "grid:4x4", K: 2, Coarsen: "both"}, true},
		"k zero":          {JobSpec{Gen: "grid:4x4"}, true},
		"missing file":    {JobSpec{GraphFile: "/nonexistent/g.graph", K: 2}, false},
		"missing store":   {JobSpec{ShardDir: "/nonexistent/g.kst", K: 2}, false},
		"bad inline text": {JobSpec{Graph: "not a graph", K: 2}, false},
	} {
		_, err := tc.spec.Build("")
		if err == nil {
			t.Errorf("%s: built", name)
			continue
		}
		if got := errors.Is(err, core.ErrInvalidConfig); got != tc.usage {
			t.Errorf("%s: %v, usage error = %v, want %v", name, err, got, tc.usage)
		}
	}
}
