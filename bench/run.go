package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nvbitgo/gpusim"
)

// env is what the harness hands a workload: the seed its inputs come from,
// the parallelism it may use, a scratch directory inside the checkout, the
// golden references, and where to report a failed output check.
type env struct {
	seed   int64
	iters  int // measured iterations, fixed by the workload and -seconds
	procs  int // GOMAXPROCS, and the most clients or workers a workload starts
	tmp    string
	golden *golden

	checkFailures int
}

// notef reports what a check found; the caller counts the failure, against
// the operation it belongs to or in checkFailures when it belongs to none.
func (e *env) notef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "check: "+format+"\n", args...)
}

// failf reports and counts a failed check that belongs to no operation.
func (e *env) failf(format string, args ...any) {
	e.checkFailures++
	e.notef(format, args...)
}

// scratch returns a path under the run's scratch directory.
func (e *env) scratch(name string) string { return filepath.Join(e.tmp, name) }

// workload is one named set of inputs. Iteration counts are fixed per second
// of -seconds (never stopped by the clock), so the work is identical on both
// sides of a comparison.
type workload struct {
	name string
	why  string
	// iters10s is how many iterations fill ten seconds on the 2-vCPU box the
	// sizes were chosen on; -seconds scales it.
	iters10s int
	// setup builds inputs from the seed, takes reference passes, primes
	// caches and starts the first server: everything setup_s covers.
	setup func(e *env) (instance, error)
	// setupReps is how often the untraced pass repeats set-up; setup_s is
	// the median. Set-ups of a few tens of milliseconds repeat more often,
	// because one garbage collection moves them by a third. The traced pass
	// sets up once.
	setupReps int
}

// instance is a set-up workload.
type instance interface {
	// iterate runs iteration i, tracing it when t is not nil.
	iterate(i int, t *tracer) (iterResult, error)
	// sim returns the simulated counts of the instrumented work the
	// iterations ran and of the same work run natively.
	sim() simCounts
	close()
}

// iterResult is what one iteration completed.
type iterResult struct {
	// wall is the iteration's wall time; iter_ms_p50 is the median of these.
	wall time.Duration
	// ops are the operations attempted (iterations, sessions, injection
	// runs) and failed of them those that failed or lost their result.
	ops, failed int
	// window is the time ops_per_s divides ops by: wall, less what the
	// workload keeps outside it (a campaign's plan and report).
	window time.Duration
	// opMs are the wall times of operations timed one by one inside the
	// iteration (a daemon epoch's sessions); empty when the iteration is
	// the only operation timed.
	opMs []float64
}

// simCounts are simulated-time totals: exact, host-independent counts.
type simCounts struct {
	cyclesNative, cyclesInstr         uint64
	warpInstrsNative, warpInstrsInstr uint64
	// slowdown is instrumented ÷ native simulated cycles, averaged the way
	// the workload defines (Fig 8 averages per benchmark).
	slowdown float64
}

// result is one run of one workload.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// itersFor scales a workload's ten-second iteration count to -seconds. The
// traced pass runs half as many, at least one traced and one not: the other
// half of its time goes to the probe panel.
func itersFor(w *workload, seconds int, traceOn bool) int {
	n := max(1, (w.iters10s*seconds+5)/10)
	if traceOn {
		n = max(2, n/2)
	}
	return n
}

// simOf compares one instrumented run with its native reference.
func simOf(native, instr gpusim.Stats) simCounts {
	return simCounts{
		cyclesNative: native.Cycles, cyclesInstr: instr.Cycles,
		warpInstrsNative: native.WarpInstrs, warpInstrsInstr: instr.WarpInstrs,
		slowdown: float64(instr.Cycles) / float64(native.Cycles),
	}
}

// samples is what the iterations of one run produced.
type samples struct {
	setupS                       []float64 // one per set-up repetition
	iterMs, tracedMs, untracedMs []float64 // iteration wall times, all and by half
	opMs                         []float64
	ops, failed                  int
	window                       time.Duration
	allocBytes, gcPauseNs        uint64
	cpuS                         float64
}

// measure sets the workload up, runs its iterations and returns the
// end-to-end metrics (untraced) or the per-layer metrics (traced). In the
// traced run every other iteration is left untraced, so the same process
// yields the tracing overhead; spans go to traceOut when it is set.
func measure(w *workload, e *env, traceOn bool, traceOut string) (*result, error) {
	reps := w.setupReps
	if traceOn {
		reps = 1
	}
	var s samples
	var inst instance
	setupFailures := 0 // of the repetition whose checks failed most, not their sum
	for r := 0; r < reps; r++ {
		if inst != nil {
			inst.close()
		}
		e.checkFailures = 0
		t0 := time.Now()
		var err error
		if inst, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		s.setupS = append(s.setupS, time.Since(t0).Seconds())
		setupFailures = max(setupFailures, e.checkFailures)
	}
	e.checkFailures = setupFailures
	defer inst.close()

	var tr *tracer
	if traceOn {
		tr = newTracer()
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	// The deadline is a guard for a host far slower than the one the counts
	// were sized on, not the stopping rule: it is three times the budget.
	deadline := time.Now().Add(3 * time.Duration(e.iters) * 10 * time.Second / time.Duration(w.iters10s))
	for i := 0; i < e.iters; i++ {
		if i > 0 && time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "%s: stopped at the deadline after %d of %d iterations\n", w.name, i, e.iters)
			break
		}
		t := tr
		if i%2 == 1 {
			t = nil
		}
		r, err := inst.iterate(i, t)
		if err != nil {
			return nil, fmt.Errorf("%s: iteration %d: %w", w.name, i, err)
		}
		s.iterMs = append(s.iterMs, ms(r.wall))
		if t != nil {
			s.tracedMs = append(s.tracedMs, ms(r.wall))
		} else {
			s.untracedMs = append(s.untracedMs, ms(r.wall))
		}
		if r.opMs == nil {
			r.opMs = []float64{ms(r.wall)}
		}
		s.opMs = append(s.opMs, r.opMs...)
		s.ops += r.ops
		s.failed += r.failed
		s.window += r.window
	}
	runtime.ReadMemStats(&after)
	s.cpuS = cpuSeconds() - cpu0
	s.allocBytes = after.TotalAlloc - before.TotalAlloc
	s.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs

	m := metrics{}
	defs := endToEndDefs()
	if traceOn {
		defs = perLayer
		if err := perLayerMetrics(m, e, inst, &s, tr.spans); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if traceOut != "" {
			if err := tr.writeFile(traceOut); err != nil {
				return nil, err
			}
		}
	} else {
		m["setup_s"] = median(s.setupS)
		m["iter_ms_p50"] = median(s.iterMs)
		m["ops_per_s"] = float64(s.ops) / s.window.Seconds()
		m["alloc_mb_per_iter"] = float64(s.allocBytes) / 1e6 / float64(len(s.iterMs))
		m["sim_slowdown_x"] = inst.sim().slowdown
	}
	// A failed check that belongs to no operation counts as one more
	// operation attempted and failed.
	attempted, failed := s.ops+e.checkFailures, s.failed+e.checkFailures
	tail := tailPercentile(len(s.opMs))
	fmt.Printf("%s: %d iterations (p50 %.3f ms); %d timed operations (p50 %.3f ms, p%.0f %.3f ms); %d ops, %d failed, fail_pct %.2f\n",
		w.name, len(s.iterMs), median(s.iterMs), len(s.opMs), median(s.opMs), tail, percentile(s.opMs, tail),
		attempted, failed, 100*float64(failed)/float64(attempted))
	printMetrics(m, traceOn)
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m.render(defs)}, nil
}

// perLayerMetrics fills m with the traced run's numbers: the workload's
// counts, the process's costs, the layer shares of the traced iterations'
// spans, and the probe panel.
func perLayerMetrics(m metrics, e *env, inst instance, s *samples, spans []span) error {
	sim := inst.sim()
	m["gpu.sim_cycles_native"] = float64(sim.cyclesNative)
	m["gpu.sim_cycles_instr"] = float64(sim.cyclesInstr)
	m["gpu.warp_instrs_native"] = float64(sim.warpInstrsNative)
	m["gpu.warp_instrs_instr"] = float64(sim.warpInstrsInstr)
	m["host.peak_rss_mb"] = peakRSSMB() // read before the panel raises it
	m["host.cpu_s"] = s.cpuS
	m["host.gc_pause_ms"] = float64(s.gcPauseNs) / 1e6
	m["host.op_ms_p50"] = median(s.opMs)
	m["host.op_ms_tail"] = percentile(s.opMs, tailPercentile(len(s.opMs)))
	if base := median(s.untracedMs); base > 0 { // the deadline may have cut the untraced half
		m["host.trace_overhead_pct"] = 100 * (median(s.tracedMs) - base) / base
	}
	spanShares(m, spans)
	if l, ok := inst.(interface{ layerMetrics(metrics) error }); ok {
		if err := l.layerMetrics(m); err != nil {
			return err
		}
	}
	return runPanel(m, e)
}

// spanShares turns the traced iterations' spans into each layer's share of
// the iteration wall time.
func spanShares(m metrics, spans []span) {
	var wall int64
	for _, s := range spans {
		if s.Parent < 0 {
			wall += s.End - s.Start
		}
	}
	if wall == 0 {
		return
	}
	byLayer, byName := layerSelf(spans)
	for _, l := range spanLayers {
		m[l+".share_pct"] = 100 * float64(byLayer[l]) / float64(wall)
	}
	m["gpu.steady_launch_share_pct"] = 100 * float64(byName[spanSteadyLaunch]) / float64(wall)
	m["host.unattributed_pct"] = 100 * float64(byLayer[layerNone]) / float64(wall)
}

// printMetrics prints one run's metrics by name with unit and direction,
// and the end-to-end ones with their bound.
func printMetrics(m metrics, traceOn bool) {
	row := func(d metricDef, bound string) {
		fmt.Printf("  %-38s %16.4f %-6s %s is better%s\n", d.Name, m[d.Name], d.Unit, d.Better, bound)
	}
	if traceOn {
		for _, d := range perLayer {
			row(d, "")
		}
		return
	}
	for _, d := range endToEnd {
		row(d.metricDef, fmt.Sprintf("  bound %g%%", 100*d.Bound))
	}
}

// cpuSeconds is the process's user + system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
