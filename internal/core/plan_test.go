package core

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/sass"
	"nvbitgo/internal/workloads/specaccel"
)

// listOf renders the list of calls that starts at link head in i's plan as
// "name(imm,...)" per call, in list order.
func listOf(n *NVBit, i *Instr, head int32) []string {
	var out []string
	p := &i.fs.plan
	for c := head; c != 0; c = p.calls[c].next {
		var imms []string
		for _, a := range p.argsOf(c) {
			imms = append(imms, fmt.Sprint(a.imm))
		}
		out = append(out, fmt.Sprintf("%s(%s)", n.callNames[p.calls[c].name], strings.Join(imms, ",")))
	}
	return out
}

// tallyAll injects the per-thread tally before every instruction.
func tallyAll(n *NVBit, insts []*Instr, ctr uint64) {
	for _, i := range insts {
		n.InsertCallArgs(i, "tally", IPointBefore, ArgDevPtr(ctr))
	}
}

// planAndLaunch attaches to a fresh work kernel, has plan make the first
// launch's plan, launches, and returns the work function's cache key and
// generated code. The attachment's one Malloc is the plan's counter.
func planAndLaunch(t *testing.T, plan func(t *testing.T, n *NVBit, insts []*Instr, ctr uint64)) (key string, code []byte) {
	t.Helper()
	tool := &testTool{}
	env := setup(t, sass.Volta, tool)
	ctr, err := env.nv.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	tool.onLaunch = func(n *NVBit, p *driver.CallParams) {
		if n.IsInstrumented(p.Launch.Func) {
			return
		}
		insts, err := n.GetInstrs(p.Launch.Func)
		if err != nil {
			panic(err)
		}
		plan(t, n, insts, ctr)
	}
	env.launch(t)
	arts, err := env.nv.CodeArtifacts()
	if err != nil {
		t.Fatal(err)
	}
	return env.nv.CodeKey(env.fn), arts["work"]
}

// TestPlanTable pins the paths through a function's plan that the tools,
// which make every call with InsertCallArgs, leave alone.
func TestPlanTable(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got > 24 {
		t.Errorf("an Instr takes %d bytes, want at most 24", got)
	}

	t.Run("AddCallArg after another call's", func(t *testing.T) {
		straight := func(t *testing.T, n *NVBit, insts []*Instr, ctr uint64) {
			n.InsertCallArgs(insts[0], "bbtally", IPointBefore, ArgConst32(7), ArgDevPtr(ctr))
			n.InsertCallArgs(insts[1], "bbtally", IPointBefore, ArgConst32(8), ArgDevPtr(ctr))
		}
		interleaved := func(t *testing.T, n *NVBit, insts []*Instr, ctr uint64) {
			a, b := insts[0], insts[1]
			n.InsertCall(a, "bbtally", IPointBefore)
			n.AddCallArg(a, ArgConst32(7))
			n.InsertCall(b, "bbtally", IPointBefore)
			n.AddCallArg(b, ArgConst32(8))
			n.AddCallArg(a, ArgDevPtr(ctr))
			n.AddCallArg(b, ArgDevPtr(ctr))
			want := fmt.Sprintf("bbtally(7,%d)", ctr)
			if got := listOf(n, a, a.before); !reflect.DeepEqual(got, []string{want}) {
				t.Errorf("A's calls are %v, want [%s]", got, want)
			}
		}
		k1, c1 := planAndLaunch(t, straight)
		k2, c2 := planAndLaunch(t, interleaved)
		if k1 != k2 || string(c1) != string(c2) {
			t.Errorf("interleaved AddCallArg gives key %s and %d code bytes, in order %s and %d bytes", k2, len(c2), k1, len(c1))
		}
	})

	t.Run("runs that move across chunks", func(t *testing.T) {
		// Four arguments per instruction fill four chunks of one per
		// instruction, and the second pass moves every run.
		straight := func(t *testing.T, n *NVBit, insts []*Instr, ctr uint64) {
			for _, i := range insts {
				n.InsertCallArgs(i, "bbtally", IPointBefore, ArgConst32(uint32(i.Idx())), ArgDevPtr(ctr))
				n.InsertCallArgs(i, "predtally", IPointAfter, ArgSitePred(), ArgDevPtr(ctr))
			}
		}
		moved := func(t *testing.T, n *NVBit, insts []*Instr, ctr uint64) {
			for _, i := range insts {
				n.InsertCall(i, "bbtally", IPointBefore)
				n.AddCallArg(i, ArgConst32(uint32(i.Idx())))
			}
			for _, i := range insts {
				n.AddCallArg(i, ArgDevPtr(ctr))
				n.InsertCallArgs(i, "predtally", IPointAfter, ArgSitePred(), ArgDevPtr(ctr))
			}
			if chunks := len(insts[0].fs.plan.args); chunks < 4 {
				t.Errorf("the plan's arguments fit %d chunks", chunks)
			}
			for _, i := range insts {
				want := []string{fmt.Sprintf("bbtally(%d,%d)", i.Idx(), ctr), fmt.Sprintf("predtally(0,%d)", ctr)}
				if got := append(listOf(n, i, i.before), listOf(n, i, i.after)...); !reflect.DeepEqual(got, want) {
					t.Fatalf("word %d: calls %v, want %v", i.Idx(), got, want)
				}
			}
		}
		k1, c1 := planAndLaunch(t, straight)
		k2, c2 := planAndLaunch(t, moved)
		if k1 != k2 || string(c1) != string(c2) {
			t.Errorf("moved runs give key %s and %d code bytes, in order %s and %d bytes", k2, len(c2), k1, len(c1))
		}
	})

	t.Run("insertion order", func(t *testing.T) {
		var (
			nv *NVBit
			i  *Instr
		)
		planAndLaunch(t, func(t *testing.T, n *NVBit, insts []*Instr, ctr uint64) {
			nv, i = n, insts[2]
			n.InsertCallArgs(i, "touch", IPointBefore, ArgConst32(1))
			n.InsertCallArgs(i, "touch", IPointAfter, ArgConst32(2))
			n.InsertCall(i, "touch", IPointBefore)
			n.AddCallArg(i, ArgConst32(3))
		})
		if got, want := listOf(nv, i, i.before), []string{"touch(1)", "touch(3)"}; !reflect.DeepEqual(got, want) {
			t.Errorf("before-calls %v, want %v", got, want)
		}
		if got, want := listOf(nv, i, i.after), []string{"touch(2)"}; !reflect.DeepEqual(got, want) {
			t.Errorf("after-calls %v, want %v", got, want)
		}
	})

	t.Run("ResetInstrumented", func(t *testing.T) {
		second := func(n *NVBit, insts []*Instr, ctr uint64) {
			for k, i := range insts {
				if k%2 == 0 {
					n.InsertCallArgs(i, "predtally", IPointAfter, ArgSitePred(), ArgDevPtr(ctr))
				}
			}
		}
		fresh, freshCode := planAndLaunch(t, func(t *testing.T, n *NVBit, insts []*Instr, ctr uint64) {
			second(n, insts, ctr)
		})
		// Reset before the first plan is generated.
		key, code := planAndLaunch(t, func(t *testing.T, n *NVBit, insts []*Instr, ctr uint64) {
			tallyAll(n, insts, ctr)
			if err := n.ResetInstrumented(insts[0].fs.f); err != nil {
				t.Fatal(err)
			}
			second(n, insts, ctr)
		})
		if key != fresh || string(code) != string(freshCode) {
			t.Errorf("reset while planning: key %s, want %s; code equal %v", key, fresh, string(code) == string(freshCode))
		}
		// Reset after the first plan's launch.
		tool := &testTool{}
		env := setup(t, sass.Volta, tool)
		ctr, err := env.nv.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		tool.onLaunch = instrumentAll(ctr)
		env.launch(t)
		if err := env.nv.ResetInstrumented(env.fn); err != nil {
			t.Fatal(err)
		}
		tool.onLaunch = func(n *NVBit, p *driver.CallParams) {
			if !n.IsInstrumented(p.Launch.Func) {
				insts, _ := n.GetInstrs(p.Launch.Func)
				second(n, insts, ctr)
			}
		}
		env.launch(t)
		arts, err := env.nv.CodeArtifacts()
		if err != nil {
			t.Fatal(err)
		}
		if key := env.nv.CodeKey(env.fn); key != fresh || string(arts["work"]) != string(freshCode) {
			t.Errorf("reset after launch: key %s, want %s; code equal %v", key, fresh, string(arts["work"]) == string(freshCode))
		}
	})

	t.Run("AddCallArg before InsertCall", func(t *testing.T) {
		env := setup(t, sass.Volta, &testTool{})
		insts, err := env.nv.GetInstrs(env.fn)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if recover() == nil {
				t.Error("AddCallArg before any InsertCall did not panic")
			}
		}()
		env.nv.AddCallArg(insts[0], ArgConst32(1))
	})
}

// TestOperandsAgree checks the Instr operand accessors against the decoded
// instruction's operands for every instruction cg's launches lift.
func TestOperandsAgree(t *testing.T) {
	var cg *specaccel.Benchmark
	for _, b := range specaccel.Benchmarks() {
		if b.Name == "cg" {
			cg = b
		}
	}
	for _, fam := range []sass.Family{sass.Kepler, sass.Volta} {
		checked := 0
		tool := &testTool{onLaunch: func(n *NVBit, p *driver.CallParams) {
			insts, err := n.GetInstrs(p.Launch.Func)
			if err != nil {
				panic(err)
			}
			for _, i := range insts {
				want := i.Raw().Operands()
				if got := i.GetNumOperands(); got != len(want) {
					t.Errorf("%v %s word %d: %d operands, want %d", fam, p.Launch.Func.Name, i.Idx(), got, len(want))
				}
				for k := -1; k <= len(want); k++ {
					o, ok := i.GetOperand(k)
					if inRange := k >= 0 && k < len(want); ok != inRange || inRange && o != want[k] {
						t.Errorf("%v %s word %d: operand %d is %+v, %v", fam, p.Launch.Func.Name, i.Idx(), k, o, ok)
					}
				}
				checked++
			}
		}}
		api, err := driver.New(gpu.DefaultConfig(fam))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Attach(api, tool); err != nil {
			t.Fatal(err)
		}
		ctx, err := api.CtxCreate()
		if err == nil {
			err = cg.Run(ctx, specaccel.Small)
		}
		api.Close()
		if err != nil {
			t.Fatal(err)
		}
		if checked == 0 {
			t.Fatalf("%v: cg lifted nothing", fam)
		}
	}
}

// TestCodeSpaceOrder instruments three kernels of one module from the first
// launch's callback and requires the code space to come out the same on
// every run: functions finalized together generate their code in the order
// they were lifted.
func TestCodeSpaceOrder(t *testing.T) {
	var src strings.Builder
	names := []string{"k0", "k1", "k2"}
	for _, name := range names {
		src.WriteString(strings.Replace(workPTX, "work(", name+"(", 1))
	}
	digests := make(map[string]int)
	for run := 0; run < 20; run++ {
		api, err := driver.New(gpu.DefaultConfig(sass.Volta))
		if err != nil {
			t.Fatal(err)
		}
		var ctr uint64
		tool := &testTool{onLaunch: func(n *NVBit, p *driver.CallParams) {
			if n.IsInstrumented(p.Launch.Func) {
				return
			}
			for _, name := range names {
				f, err := p.Launch.Func.Module.GetFunction(name)
				if err != nil {
					panic(err)
				}
				insts, err := n.GetInstrs(f)
				if err != nil {
					panic(err)
				}
				tallyAll(n, insts, ctr)
			}
		}}
		nv, err := Attach(api, tool)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := api.CtxCreate()
		if err != nil {
			t.Fatal(err)
		}
		if ctr, err = nv.Malloc(8); err != nil {
			t.Fatal(err)
		}
		mod, err := ctx.ModuleLoadPTX("three.ptx", src.String())
		if err != nil {
			t.Fatal(err)
		}
		fn, err := mod.GetFunction("k0")
		if err != nil {
			t.Fatal(err)
		}
		data, err := ctx.MemAlloc(4 * 64)
		if err != nil {
			t.Fatal(err)
		}
		params, err := driver.PackParams(fn, data, uint32(64))
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.LaunchKernel(fn, gpu.D1(1), gpu.D1(64), 0, params); err != nil {
			t.Fatal(err)
		}
		top, err := api.Device().AllocCode(0)
		if err != nil {
			t.Fatal(err)
		}
		code, err := api.Device().ReadCode(0, int(top))
		api.Close()
		if err != nil {
			t.Fatal(err)
		}
		digests[fmt.Sprintf("%x", sha256.Sum256(code))]++
	}
	if len(digests) != 1 {
		t.Errorf("20 runs gave %d code spaces: %v", len(digests), digests)
	}
}
