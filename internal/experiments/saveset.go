package experiments

import (
	"fmt"
	"strings"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/tools/instrcount"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

// SaveSetRow is one benchmark's injection-mode ablation, three-way: the
// full-register-file save baseline, the liveness-minimal trampoline (the
// paper's Section 5.1 "saves only the minimum amount of general purpose
// registers"), and inline splicing (no save/restore, no CAL/RET, when enough
// dead registers exist). Register columns are static means per site a
// trampoline serves (a visit's one save is shared by the run of sites it covers);
// the words/site columns are the executed instrumentation instructions per
// site visit — the dynamic cost a site pays, which is where inlining wins
// (its static footprint is *larger*: the tool body is duplicated per site).
type SaveSetRow struct {
	Benchmark string
	// Trampolines is the number of instrumentation sites generated in
	// trampoline mode; InlinedSites is how many of those inline mode
	// spliced instead of routing through a trampoline.
	Trampolines  uint64
	InlinedSites uint64
	// LiveRegs and FullRegs are mean saved registers per trampoline-served
	// site under minimal-save and full-save trampolines.
	LiveRegs float64
	FullRegs float64
	// FullWords/TrampWords/InlineWords are executed instrumentation
	// instructions (thread-level) per site visit under each mode:
	// (instrumented − native thread instructions) / counted site visits.
	FullWords   float64
	TrampWords  float64
	InlineWords float64
	// TrampCycleRatio is trampoline cycles over full-save cycles (< 1 means
	// liveness is cheaper); InlineCycleRatio is inline cycles over full-save
	// cycles.
	TrampCycleRatio  float64
	InlineCycleRatio float64
}

// savesetRun is one benchmark execution's raw measurements.
type savesetRun struct {
	stats   nvbit.JITStats
	cycles  uint64
	threads uint64 // device thread-level instructions (app + instrumentation)
	visits  uint64 // tool-counted site visits (thread-level)
}

// SaveSet runs the injection-mode ablation over the SpecAccel suite with the
// instruction-counting tool on every instruction: one native pass plus one
// pass per mode, all against the same workload.
func SaveSet(size specaccel.Size) ([]SaveSetRow, error) {
	measure := func(b *specaccel.Benchmark, mode nvbit.InjectionMode, native bool) (*savesetRun, error) {
		tool := instrcount.New()
		var attach nvbit.Tool
		if !native {
			attach = tool
		}
		api, nv, err := run(attach, func(ctx *driver.Context) error { return b.Run(ctx, size) }, nvbit.WithInjectionMode(mode))
		if err != nil {
			return nil, fmt.Errorf("saveset: %s: %w", b.Name, err)
		}
		st := api.Device().Stats()
		out := &savesetRun{cycles: st.Cycles, threads: st.ThreadInstrs}
		if nv != nil {
			out.stats = nv.JITStats()
			out.visits = tool.Total(nv)
		}
		return out, nil
	}
	var rows []SaveSetRow
	for _, b := range specaccel.Benchmarks() {
		native, err := measure(b, nvbit.InjectTrampoline, true)
		if err != nil {
			return nil, err
		}
		full, err := measure(b, nvbit.InjectFullSave, false)
		if err != nil {
			return nil, err
		}
		tramp, err := measure(b, nvbit.InjectTrampoline, false)
		if err != nil {
			return nil, err
		}
		inline, err := measure(b, nvbit.InjectInline, false)
		if err != nil {
			return nil, err
		}
		wordsPerSite := func(r *savesetRun) float64 {
			if r.visits == 0 || r.threads <= native.threads {
				return 0
			}
			return float64(r.threads-native.threads) / float64(r.visits)
		}
		row := SaveSetRow{
			Benchmark:    b.Name,
			Trampolines:  uint64(tramp.stats.TrampolinesEmitted),
			InlinedSites: uint64(inline.stats.InlinedSites),
			LiveRegs:     tramp.stats.AvgSavedRegs(),
			FullRegs:     full.stats.AvgSavedRegs(),
			FullWords:    wordsPerSite(full),
			TrampWords:   wordsPerSite(tramp),
			InlineWords:  wordsPerSite(inline),
		}
		if full.cycles > 0 {
			row.TrampCycleRatio = float64(tramp.cycles) / float64(full.cycles)
			row.InlineCycleRatio = float64(inline.cycles) / float64(full.cycles)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderSaveSet formats the injection-mode ablation table. The words/site
// columns are executed instrumentation instructions per site visit.
func RenderSaveSet(rows []SaveSetRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Injection-mode ablation: full-save / trampoline / inline (instrcount, every instruction)\n")
	fmt.Fprintf(&b, "%-10s %12s %8s %9s %9s %8s %8s %8s %10s %10s\n",
		"benchmark", "trampolines", "inlined", "full-regs", "live-regs",
		"full-w", "tramp-w", "inl-w", "tramp-cyc", "inl-cyc")
	var fullW, trampW, inlW float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12d %8d %9.1f %9.1f %8.1f %8.1f %8.1f %10.3f %10.3f\n",
			r.Benchmark, r.Trampolines, r.InlinedSites, r.FullRegs, r.LiveRegs,
			r.FullWords, r.TrampWords, r.InlineWords, r.TrampCycleRatio, r.InlineCycleRatio)
		fullW += r.FullWords
		trampW += r.TrampWords
		inlW += r.InlineWords
	}
	if len(rows) > 0 {
		n := float64(len(rows))
		fmt.Fprintf(&b, "%-10s %12s %8s %9s %9s %8.1f %8.1f %8.1f\n",
			"average", "", "", "", "", fullW/n, trampW/n, inlW/n)
	}
	return b.String()
}
