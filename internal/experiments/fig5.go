// Package experiments contains the harnesses that regenerate every table and
// figure of the paper's evaluation (see DESIGN.md's per-experiment index and
// EXPERIMENTS.md for measured-vs-paper results).
package experiments

import (
	"fmt"
	"strings"
	"time"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/sass"
	"nvbitgo/internal/tools/instrcount"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

// Family is the device family all experiments run on (the TITAN V of the
// paper is a Volta part).
const Family = sass.Volta

// scheduler selects the CTA scheduler every experiment device uses. The
// default stays sequential so the published figure outputs remain
// byte-identical; SetScheduler lets cmd/experiments opt into the parallel
// backend (see docs/scheduler.md for which counters may then differ).
var scheduler = gpu.SchedulerSequential

// SetScheduler selects the CTA scheduler for all subsequently created
// experiment devices.
func SetScheduler(k gpu.SchedulerKind) { scheduler = k }

// run is every experiment's one set-up: a fresh Family device running the
// package's scheduler from construction, tool attached with opts when it is
// non-nil, a context, and work on that context. The device and the attachment
// (nil without a tool) are returned for reading counters off; a caller that
// times the workload does so inside work.
func run(tool nvbit.Tool, work func(*driver.Context) error, opts ...nvbit.Option) (*driver.API, *nvbit.NVBit, error) {
	cfg := gpu.DefaultConfig(Family)
	cfg.Scheduler = scheduler
	api, err := driver.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	var nv *nvbit.NVBit
	if tool != nil {
		if nv, err = nvbit.Attach(api, tool, opts...); err != nil {
			return nil, nil, err
		}
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		return nil, nil, err
	}
	return api, nv, work(ctx)
}

// Fig5Row is one benchmark's JIT-compilation overhead breakdown, as a
// percentage of the native application run time (paper Figure 5).
type Fig5Row struct {
	Benchmark string
	// Pct holds the eight components in execution order: the paper's six
	// (retrieve, disassemble, convert, user-code, codegen, swap) plus the
	// instrumentation-cache phases (cache_lookup, cache_hit), which stay
	// zero in the cacheless Figure 5 runs.
	Pct      [8]float64
	TotalPct float64
	// Dominant is the label of the largest component.
	Dominant string
}

// Fig5 reproduces Figure 5: the six-component JIT-compilation overhead of
// instrumenting every instruction of every kernel once with the instruction
// counting tool, relative to native execution time, across the SpecAccel
// suite.
func Fig5(size specaccel.Size) ([]Fig5Row, error) {
	var rows []Fig5Row
	for _, b := range specaccel.Benchmarks() {
		// Native wall time (fastest of three runs to steady the clock).
		var native time.Duration
		for rep := 0; rep < 3; rep++ {
			if _, _, err := run(nil, func(ctx *driver.Context) error {
				start := time.Now()
				err := b.Run(ctx, size)
				if d := time.Since(start); rep == 0 || d < native {
					native = d
				}
				return err
			}); err != nil {
				return nil, fmt.Errorf("fig5: native %s: %w", b.Name, err)
			}
		}

		// Instrumented run: every instruction of every kernel once.
		_, nv, err := run(instrcount.New(), func(ctx *driver.Context) error { return b.Run(ctx, size) })
		if err != nil {
			return nil, fmt.Errorf("fig5: instrumented %s: %w", b.Name, err)
		}
		st := nv.JITStats()
		comps, labels := st.Components()
		row := Fig5Row{Benchmark: b.Name}
		max := 0
		for i, c := range comps {
			row.Pct[i] = 100 * float64(c) / float64(native)
			row.TotalPct += row.Pct[i]
			if row.Pct[i] > row.Pct[max] {
				max = i
			}
		}
		row.Dominant = labels[max]
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFig5 formats the Figure 5 table.
func RenderFig5(rows []Fig5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: JIT-compilation overhead breakdown (%% of native run time)\n")
	fmt.Fprintf(&b, "%-10s %9s %9s %9s %9s %9s %9s %8s  %s\n",
		"benchmark", "retrieve", "disasm", "convert", "usercode", "codegen", "swap", "total%", "dominant")
	var avg float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %8.2f  %s\n",
			r.Benchmark, r.Pct[0], r.Pct[1], r.Pct[2], r.Pct[3], r.Pct[4], r.Pct[5], r.TotalPct, r.Dominant)
		avg += r.TotalPct
	}
	fmt.Fprintf(&b, "%-10s %68.2f\n", "average", avg/float64(len(rows)))
	return b.String()
}
