package core

import (
	"testing"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/jitcache"
	"nvbitgo/internal/sass"
)

// TestTrampolineStructure disassembles the instrumented code version and the
// generated trampolines, asserting the Figure 4 layout properties directly:
// same code size, an unguarded absolute jump at the first instruction of each
// visit and the rest of the function untouched, and the save → (args → call)
// per covered site → restore → relocated originals → jump-back shape. The
// tally moves freely, so a visit is a whole basic block; the per-site build
// the test hook keeps has the same shape with every block one instruction
// long.
func TestTrampolineStructure(t *testing.T) {
	for _, perSite := range []bool{false, true} {
		var ctr uint64
		tool := &testTool{}
		env := setup(t, sass.Volta, tool)
		env.nv.SetPerSiteVisits(perSite)
		ctr, _ = env.nv.Malloc(8)
		tool.onLaunch = instrumentAll(ctr)
		env.launch(t)

		fs := env.nv.funcs[env.fn]
		if fs == nil || !fs.instrumented {
			t.Fatal("no instrumentation state")
		}
		// Structural property behind "trampolines elegantly preserve
		// instruction layout": both versions occupy the same bytes.
		if len(fs.instrCode) != len(fs.origCode) {
			t.Fatalf("instrumented code %d bytes, original %d", len(fs.instrCode), len(fs.origCode))
		}
		codec := env.nv.HAL().Codec()
		orig, err := codec.DecodeAll(fs.origCode)
		if err != nil {
			t.Fatal(err)
		}
		instr, err := codec.DecodeAll(fs.instrCode)
		if err != nil {
			t.Fatal(err)
		}
		blocks, ok := sass.BasicBlocks(orig)
		if !ok {
			t.Fatal("work kernel has indirect control flow")
		}
		if perSite {
			blocks = blocks[:0]
			for idx := range orig {
				blocks = append(blocks, sass.BlockRange{Start: idx, End: idx + 1})
			}
		}
		st := env.nv.JITStats()
		if st.Visits != len(blocks) || st.TrampolinesEmitted != len(orig) {
			t.Fatalf("perSite=%v: %d visits serve %d sites, want %d and %d", perSite, st.Visits, st.TrampolinesEmitted, len(blocks), len(orig))
		}
		dev := env.nv.Device()
		for _, b := range blocks {
			j := instr[b.Start]
			if j.Op != sass.OpJMP {
				t.Fatalf("word %d: a visit starts with %v, want JMP to trampoline", b.Start, j.Op)
			}
			if j.Guarded() {
				t.Fatalf("word %d: trampoline jump must be unguarded (guard travels as an argument)", b.Start)
			}
			for idx := b.Start + 1; idx < b.End; idx++ {
				if instr[idx] != orig[idx] {
					t.Fatalf("word %d: inside a visit the function holds %s, want the original %s",
						idx, sass.Format(instr[idx]), sass.Format(orig[idx]))
				}
			}
			// Walk the trampoline: CAL save, per site its arguments and CAL
			// tool, CAL restore, the relocated originals, JMP back.
			base := int(j.Imm)
			raw, err := dev.ReadCode(gpu.CodeAddr(base), 128)
			if err != nil {
				t.Fatal(err)
			}
			// Decode word-by-word: the trampoline is shorter than 128 words
			// and the space beyond it may be unwritten.
			var tramp []sass.Inst
			ib := env.nv.HAL().InstBytes
			for off := 0; off+ib <= len(raw); off += ib {
				in, derr := codec.Decode(raw[off:])
				if derr != nil {
					break
				}
				tramp = append(tramp, in)
			}
			if tramp[0].Op != sass.OpCAL {
				t.Fatalf("word %d: trampoline starts with %v, want CAL save", b.Start, tramp[0].Op)
			}
			// Find the jump back; the instructions before it must be the
			// relocated originals, in order.
			backAt := -1
			for k, in := range tramp {
				if in.Op == sass.OpJMP && in.Imm == int64(env.fn.Addr)+int64(b.End) {
					backAt = k
					break
				}
			}
			n := b.End - b.Start
			if backAt < n {
				t.Fatalf("word %d: no jump back to word %d in trampoline", b.Start, b.End)
			}
			for k := 0; k < n; k++ {
				at := backAt - n + k
				reloc, want := tramp[at], orig[b.Start+k]
				if want.Op == sass.OpBRA {
					// Relative branches are re-aimed: the absolute target
					// must be preserved.
					origTarget := int64(env.fn.Addr) + int64(b.Start+k) + 1 + want.Imm
					relocTarget := int64(base) + int64(at) + 1 + reloc.Imm
					if reloc.Op != sass.OpBRA || origTarget != relocTarget {
						t.Fatalf("word %d: relocated branch aims at %d, original aimed at %d", b.Start+k, relocTarget, origTarget)
					}
				} else if reloc != want {
					t.Fatalf("word %d: relocated original is %s, want %s",
						b.Start+k, sass.Format(reloc), sass.Format(want))
				}
			}
			// One bracket holds every covered site's call: save, a tool
			// call per site, restore.
			cals := 0
			for _, in := range tramp[:backAt-n] {
				if in.Op == sass.OpCAL {
					cals++
				}
			}
			if cals != n+2 {
				t.Fatalf("word %d: trampoline has %d CALs before its %d relocated instructions, want save + %d tool calls + restore", b.Start, cals, n, n)
			}
		}
	}
}

// TestLaunchNoTracingZeroAllocThroughFramework extends the gpu package's
// zero-alloc launch contract through the attached framework: with tracing
// off, the framework's own work per launch — tool callback, finalize check,
// dispatch — allocates nothing once the pools are warm. The only objects
// per run are the driver's two interposition parameters (LaunchParams and
// CallParams in LaunchKernel), which exist with or without a tool attached.
// This pins that the per-site liveness work happens at code-generation
// time, never per launch. (Instrumented execution itself allocates by
// design: SAVEPUSH builds one save frame per active lane.)
func TestLaunchNoTracingZeroAllocThroughFramework(t *testing.T) {
	run := func(t *testing.T, opts ...Option) {
		tool := &testTool{}
		env := setup(t, sass.Volta, tool, opts...)
		params, err := driver.PackParams(env.fn, env.data, env.n)
		if err != nil {
			t.Fatal(err)
		}
		// Warm the warp/context pools and the decode cache.
		for i := 0; i < 2; i++ {
			if err := env.ctx.LaunchKernel(env.fn, gpu.D1(4), gpu.D1(64), 0, params); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := env.ctx.LaunchKernel(env.fn, gpu.D1(4), gpu.D1(64), 0, params); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Fatalf("tracing-off launch through the framework allocates %v objects per run, want at most the driver's 2 callback parameters", allocs)
		}
	}
	t.Run("no-cache", func(t *testing.T) { run(t) })
	// The instrumentation cache is consulted only at finalize time (first
	// launch of a dirty function); the steady-state launch path must not
	// touch it — same allocation budget with a cache attached.
	t.Run("jit-cache", func(t *testing.T) {
		cache, err := jitcache.New("", 0)
		if err != nil {
			t.Fatal(err)
		}
		run(t, WithJITCache(cache))
	})
}
