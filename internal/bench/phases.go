package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
)

// PhaseBreakdown prints, per instance and preset, where the wall-clock time
// of a run goes — coarsening, initial partitioning, refinement — as both
// absolute averages and fractions of the total. The numbers are the
// Result's phase times — the same clock reads the run's PhaseEvents carry —
// not stopwatches around the call, so every level kernel is accounted the
// same way.
func PhaseBreakdown(w io.Writer, o Options) {
	o = o.defaults()
	k := o.Ks[0]
	fmt.Fprintf(w, "Phase breakdown: avg time per phase [ms] (k=%d, %d reps, from Trace events)\n", k, o.Reps)
	fmt.Fprintf(w, "%-16s %-14s %9s %9s %9s %9s %26s\n",
		"graph", "preset", "coarsen", "init", "refine", "total", "share c/i/r [%]")
	for _, in := range o.limit(Calibration()) {
		for _, v := range []core.Variant{core.Minimal, core.Fast, core.Strong} {
			row := RunKaPPa(in.Graph(), core.NewConfig(v, k), o.Reps)
			total := row.AvgCoarsen + row.AvgInit + row.AvgRefine
			share := func(d float64) float64 {
				if total <= 0 {
					return 0
				}
				return 100 * d / float64(total)
			}
			fmt.Fprintf(w, "%-16s %-14s %9.1f %9.1f %9.1f %9.1f %10.0f/%.0f/%.0f\n",
				in.Name, v,
				float64(row.AvgCoarsen.Microseconds())/1e3,
				float64(row.AvgInit.Microseconds())/1e3,
				float64(row.AvgRefine.Microseconds())/1e3,
				float64(row.AvgTime.Microseconds())/1e3,
				share(float64(row.AvgCoarsen)), share(float64(row.AvgInit)), share(float64(row.AvgRefine)))
		}
	}
}
