package core_test

import (
	"testing"

	"nvbitgo/internal/core"
	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/sass"
	"nvbitgo/internal/tools/registry"
	"nvbitgo/internal/workloads/specaccel"
)

// TestPlanningRunsNoLiveness: the visit planner reads each instruction's own
// def sets, so an attachment whose calls are all inlinable — every in-tree
// tool's but the fault injector's, in either injection mode that uses
// trampolines or splices bodies — instruments cg with no function's liveness
// fixed point run (inline mode runs inlineLiveness, its own analysis). A
// trampoline for a call that may read the saved context (fi_inject, which
// corrupts a register) is sized by what is live at its site, so that tool runs
// the analysis, once, for every function it instruments.
func TestPlanningRunsNoLiveness(t *testing.T) {
	for _, c := range []struct {
		tool     string
		opts     registry.Options
		mode     core.InjectionMode
		analyzed bool
	}{
		{"instrcount", registry.Options{}, core.InjectTrampoline, false},
		{"instrcount", registry.Options{}, core.InjectInline, false},
		{"memcheck", registry.Options{}, core.InjectTrampoline, false},
		{"memtrace", registry.Options{}, core.InjectTrampoline, false},
		// Armed at an instruction cg never reaches: every eligible site
		// keeps its own fi_inject call.
		{"faultinject", registry.Options{FITarget: 1 << 40}, core.InjectTrampoline, true},
	} {
		t.Run(c.tool+"/"+c.mode.String(), func(t *testing.T) {
			inst, err := registry.New(c.tool, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			api, err := driver.New(gpu.DefaultConfig(sass.Volta))
			if err != nil {
				t.Fatal(err)
			}
			defer api.Close()
			nv, err := core.Attach(api, inst.Tool, core.WithInjectionMode(c.mode))
			if err != nil {
				t.Fatal(err)
			}
			ctx, err := api.CtxCreate()
			if err != nil {
				t.Fatal(err)
			}
			if err := sessionBenchmark("cg").Run(ctx, specaccel.Small); err != nil {
				t.Fatal(err)
			}
			instrumented, analyzed := nv.AnalyzedFuncs()
			if instrumented == 0 {
				t.Fatal("cg instrumented nothing")
			}
			want := 0
			if c.analyzed {
				want = instrumented
			}
			if analyzed != want {
				t.Errorf("%d of %d instrumented functions ran the liveness fixed point, want %d", analyzed, instrumented, want)
			}
		})
	}
}
