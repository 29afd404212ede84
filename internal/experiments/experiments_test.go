package experiments

import (
	"math"
	"testing"

	"nvbitgo/internal/campaign"
	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/tools/instrcount"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

// The experiment tests assert the paper's qualitative shape at Small scale:
// who wins, in which direction, and where the zeros are. Absolute magnitudes
// are asserted loosely (see EXPERIMENTS.md for Large-scale numbers).

func TestFig5Shape(t *testing.T) {
	rows, err := Fig5(specaccel.Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TotalPct <= 0 {
			t.Fatalf("%s: no JIT overhead measured", r.Benchmark)
		}
		sum := 0.0
		for _, p := range r.Pct {
			if p < 0 {
				t.Fatalf("%s: negative component", r.Benchmark)
			}
			sum += p
		}
		if sum != r.TotalPct {
			t.Fatalf("%s: components do not sum to total", r.Benchmark)
		}
	}
	if out := RenderFig5(rows); len(out) == 0 {
		t.Fatal("empty rendering")
	}
}

func TestLibFractionShape(t *testing.T) {
	rows, err := LibFraction()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Paper band: 74-96%. Allow slack at our synthetic scale.
		if r.Fraction < 0.70 || r.Fraction > 0.99 {
			t.Fatalf("%s: library fraction %.2f outside the plausible band", r.Network, r.Fraction)
		}
	}
	_ = RenderLibFraction(rows)
}

func TestFig6Shape(t *testing.T) {
	rows, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.WithLibs <= 0 || r.WithoutLibs <= 0 {
			t.Fatalf("%s: empty measurement %+v", r.Network, r)
		}
		// The paper's claim: excluding libraries overestimates divergence.
		if r.WithoutLibs <= r.WithLibs {
			t.Fatalf("%s: compiler-view divergence %.2f not above full-view %.2f",
				r.Network, r.WithoutLibs, r.WithLibs)
		}
	}
	_ = RenderFig6(rows)
}

func TestFig789Shape(t *testing.T) {
	f7, f8, f9, err := Fig789(specaccel.Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(f7) != 15 || len(f8) != 15 || len(f9) != 15 {
		t.Fatalf("row counts: %d %d %d", len(f7), len(f8), len(f9))
	}
	repeats := make(map[string]bool) // benchmarks with re-launched kernels
	for _, b := range specaccel.Benchmarks() {
		repeats[b.Name] = b.TotalLaunches(specaccel.Small) > b.UniqueKernels()
	}
	for i := range f7 {
		if len(f7[i].Top) == 0 || f7[i].Total == 0 {
			t.Fatalf("%s: empty histogram", f7[i].Benchmark)
		}
		// Figure 8 shape: full instrumentation is much slower than
		// native; sampling recovers most of it.
		if f8[i].Full < 2 {
			t.Fatalf("%s: full-instrumentation slowdown %.2fx implausibly low", f8[i].Benchmark, f8[i].Full)
		}
		// Inline injection kills save/restore and CAL/RET overhead at
		// eligible sites; it must never be slower than trampolines.
		if f8[i].Inline > f8[i].Full*1.01 {
			t.Fatalf("%s: inline slowdown %.1fx above trampoline full %.1fx",
				f8[i].Benchmark, f8[i].Inline, f8[i].Full)
		}
		// Sampling only helps when kernels are re-launched; a kernel
		// launched once is always the sampled launch.
		if repeats[f8[i].Benchmark] {
			if f8[i].Sampled >= f8[i].Full {
				t.Fatalf("%s: sampling (%.1fx) not faster than full (%.1fx)",
					f8[i].Benchmark, f8[i].Sampled, f8[i].Full)
			}
		} else if f8[i].Sampled > f8[i].Full*1.01 {
			t.Fatalf("%s: sampling slower than full", f8[i].Benchmark)
		}
		// Figure 9 shape: error is exactly zero for grid-dim-dependent
		// control flow, nonzero (but small) for value-dependent kernels.
		if f9[i].ValueDependent {
			if f9[i].ErrPct == 0 {
				t.Fatalf("%s: value-dependent benchmark with zero sampling error", f9[i].Benchmark)
			}
		} else if f9[i].ErrPct != 0 {
			t.Fatalf("%s: grid-dim benchmark with sampling error %.3f%%", f9[i].Benchmark, f9[i].ErrPct)
		}
	}
	// Aggregate direction: average sampled slowdown well below full, and
	// inline injection strictly below trampoline full instrumentation.
	var full, inline, sampled float64
	for i := range f8 {
		full += f8[i].Full
		inline += f8[i].Inline
		sampled += f8[i].Sampled
	}
	if inline >= full {
		t.Fatalf("inline average %.1fx not below trampoline full average %.1fx", inline/15, full/15)
	}
	// At Small scale kernels launch only a handful of times, so sampling
	// saves proportionally less than at the paper's Large scale (where it
	// reaches ~2.3x vs 36.4x); require a clear aggregate win regardless.
	if sampled >= full*0.8 {
		t.Fatalf("sampling average %.1fx not clearly below full average %.1fx", sampled/15, full/15)
	}
	_ = RenderFig7(f7)
	_ = RenderFig8(f8)
	_ = RenderFig9(f9)
}

func TestWFFTShape(t *testing.T) {
	r, err := WFFT()
	if err != nil {
		t.Fatal(err)
	}
	if r.ProxyPerWarp < 5 || r.ProxyPerWarp > 40 {
		t.Fatalf("proxy per-warp count %.1f outside the paper's ballpark (21)", r.ProxyPerWarp)
	}
	if r.SoftwarePerWarp < 80 || r.SoftwarePerWarp > 300 {
		t.Fatalf("software per-warp count %.1f outside the paper's ballpark (150)", r.SoftwarePerWarp)
	}
	if ratio := r.SoftwarePerWarp / r.ProxyPerWarp; ratio < 4 {
		t.Fatalf("ISA-extension reduction %.1fx too small (paper ~7x)", ratio)
	}
	_ = RenderWFFT(r)
}

// TestFig8Budget pins the headline cost of Figure 8 in tier-1: the suite-mean
// slowdown of instrcount at every instruction over the SpecAccel suite at
// Small — the paper's full-instrumentation average is 36.4x — stays under 38x.
// It is the repository benchmark's spec_instr workload (bench/spec.go: fresh
// Volta device per benchmark, default injection mode, sequential scheduler, no
// cache), whose sim_slowdown_x prints the same simulated-cycle ratio, so the
// value recorded here is also what `bash bench/run.sh --workload spec_instr`
// shows; a change that moves one moves the other.
func TestFig8Budget(t *testing.T) {
	const recorded = 33.7832 // spec_instr sim_slowdown_x (35.0619 before tool-function locals were allocated by live range, 57.1112 before visits were coalesced)
	cycles := func(b *specaccel.Benchmark, tool *instrcount.Tool) (uint64, uint64) {
		var attach nvbit.Tool
		if tool != nil {
			attach = tool
		}
		api, nv, err := run(attach, func(ctx *driver.Context) error { return b.Run(ctx, specaccel.Small) })
		if err != nil {
			t.Fatal(err)
		}
		defer api.Close()
		st := api.Device().Stats()
		if tool != nil {
			return st.Cycles, tool.Total(nv)
		}
		return st.Cycles, st.ThreadInstrs
	}
	var mean float64
	for _, b := range specaccel.Benchmarks() {
		native, executed := cycles(b, nil)
		instr, counted := cycles(b, instrcount.New())
		if counted != executed {
			t.Errorf("%s: instrcount counted %d thread instructions, the native run executed %d", b.Name, counted, executed)
		}
		mean += float64(instr) / float64(native) / float64(len(specaccel.Benchmarks()))
	}
	if mean > 38 {
		t.Errorf("full-instrumentation slowdown %.4fx, budget 38x (paper 36.4x)", mean)
	}
	if math.Abs(mean-recorded) > 5e-5 {
		t.Errorf("full-instrumentation slowdown %.4fx, recorded %.4fx: re-record here, in EXPERIMENTS.md and in the bench rows of CHANGES.md", mean, recorded)
	}
}

func TestSaveSetShape(t *testing.T) {
	rows, err := SaveSet(specaccel.Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("rows = %d", len(rows))
	}
	var inlinedTotal uint64
	var trampW, inlW float64
	for _, r := range rows {
		if r.Trampolines == 0 {
			t.Fatalf("%s: no trampolines", r.Benchmark)
		}
		// The ablation direction the paper's design choice predicts:
		// liveness-minimal save sets never exceed the full-file baseline,
		// and beat it on every benchmark at per-instruction coverage.
		if r.LiveRegs >= r.FullRegs {
			t.Fatalf("%s: liveness saves %.1f regs/site, full baseline %.1f", r.Benchmark, r.LiveRegs, r.FullRegs)
		}
		if r.TrampCycleRatio <= 0 || r.TrampCycleRatio > 1 {
			t.Fatalf("%s: trampoline cycle ratio %.3f outside (0, 1]", r.Benchmark, r.TrampCycleRatio)
		}
		if r.InlineCycleRatio <= 0 || r.InlineCycleRatio > 1 {
			t.Fatalf("%s: inline cycle ratio %.3f outside (0, 1]", r.Benchmark, r.InlineCycleRatio)
		}
		// The executed-cost ordering: a liveness trampoline never pays more
		// per site visit than a full-save trampoline, and inline splicing
		// strictly undercuts the trampoline wherever it engages. On a
		// benchmark where no site inlined, inline mode degenerates to the
		// trampoline plan and the two costs are identical.
		if r.TrampWords > r.FullWords {
			t.Fatalf("%s: trampoline words/site %.1f above full-save %.1f", r.Benchmark, r.TrampWords, r.FullWords)
		}
		if r.InlinedSites > 0 {
			if r.InlineWords >= r.TrampWords {
				t.Fatalf("%s: inline words/site %.1f not below trampoline %.1f with %d inlined sites",
					r.Benchmark, r.InlineWords, r.TrampWords, r.InlinedSites)
			}
		} else if r.InlineWords != r.TrampWords {
			t.Fatalf("%s: zero inlined sites but inline words/site %.1f != trampoline %.1f",
				r.Benchmark, r.InlineWords, r.TrampWords)
		}
		inlinedTotal += r.InlinedSites
		trampW += r.TrampWords
		inlW += r.InlineWords
	}
	if inlinedTotal == 0 {
		t.Fatal("inline mode spliced no sites across the whole suite")
	}
	if inlW >= trampW {
		t.Fatalf("mean inline words/site %.1f not below trampoline %.1f", inlW/15, trampW/15)
	}
	if out := RenderSaveSet(rows); len(out) == 0 {
		t.Fatal("empty rendering")
	}
}

func TestFaultInjectShape(t *testing.T) {
	rows, err := FaultInject(24, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(FaultInjectVictims) {
		t.Fatalf("rows = %d, want %d", len(rows), len(FaultInjectVictims))
	}
	for _, r := range rows {
		if r.Runs != 24 {
			t.Fatalf("%s: completed %d of 24 runs", r.Benchmark, r.Runs)
		}
		if r.Space == 0 {
			t.Fatalf("%s: empty injection space", r.Benchmark)
		}
		total := r.Masked.Count + r.SDC.Count + r.DUE.Count
		if total != r.Runs {
			t.Fatalf("%s: outcome counts %d do not cover %d runs", r.Benchmark, total, r.Runs)
		}
		for _, s := range []campaign.ClassStats{r.Masked, r.SDC, r.DUE} {
			if s.Lo > s.Fraction || s.Hi < s.Fraction {
				t.Fatalf("%s: CI [%v,%v] excludes fraction %v", r.Benchmark, s.Lo, s.Hi, s.Fraction)
			}
		}
	}
	if out := RenderFaultInject(rows); len(out) == 0 {
		t.Fatal("empty rendering")
	}
}

// TestRunScheduler holds every experiment device to the scheduler
// SetScheduler selected, with and without a tool attached: run sets it when
// the device is built, and attaching passes no scheduler option to undo it.
func TestRunScheduler(t *testing.T) {
	defer SetScheduler(scheduler)
	SetScheduler(gpu.SchedulerParallelSM)
	for _, tool := range []nvbit.Tool{nil, instrcount.New()} {
		api, _, err := run(tool, func(*driver.Context) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if got := api.Device().Config().Scheduler; got != gpu.SchedulerParallelSM {
			t.Errorf("tool %T: device scheduler %v, want %v", tool, got, gpu.SchedulerParallelSM)
		}
		if err := api.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
