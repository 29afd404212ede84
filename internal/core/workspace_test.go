package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/jitcache"
	"nvbitgo/internal/sass"
)

// wsKernel is a straight-line kernel of pairs guarded adds, each behind the
// compare that writes its guard. A call passing the site's guard cannot move
// over that compare, so every pair starts a visit.
func wsKernel(name string, pairs int) string {
	var b strings.Builder
	fmt.Fprintf(&b, ".visible .entry %s(.param .u64 data)\n{\n", name)
	b.WriteString("\t.reg .u32 %r<8>;\n\t.reg .u64 %rd<4>;\n\t.reg .pred %p<2>;\n")
	b.WriteString("\tmov.u32 %r2, %tid.x;\n\tmov.u32 %r3, 0;\n")
	for k := 0; k < pairs; k++ {
		fmt.Fprintf(&b, "\tsetp.lt.u32 %%p0, %%r2, %d;\n\t@%%p0 add.u32 %%r3, %%r3, %%r2;\n", k+1)
	}
	b.WriteString("\tld.param.u64 %rd0, [data];\n\tmul.wide.u32 %rd2, %r2, 4;\n\tadd.u64 %rd0, %rd0, %rd2;\n")
	b.WriteString("\tst.global.u32 [%rd0], %r3;\n\texit;\n}\n")
	return b.String()
}

// wsNames are the kernels, each built or decoded into the artifact that held
// the one before: a larger one, with two tool functions and two owned
// addresses where it has one of each, before k1 and k3.
var wsNames = []string{"k0", "k1", "k2", "k3"}

// wsPairs is each kernel's count of guarded adds.
var wsPairs = map[string]int{"k0": 24, "k1": 3, "k2": 11, "k3": 5}

// wsPlan is what the tool injects into kernel name: predtally on the first
// word of the counter before every instruction and, in k0 and k2, tally on
// the second word before that, so their artifacts name tally first.
func wsPlan(n *NVBit, name string, insts []*Instr, ctr uint64) {
	for _, i := range insts {
		if name == "k0" || name == "k2" {
			n.InsertCallArgs(i, "tally", IPointBefore, ArgDevPtr(ctr+8))
		}
		n.InsertCallArgs(i, "predtally", IPointBefore, ArgSitePred(), ArgDevPtr(ctr))
	}
}

// wsResult is, per kernel an attachment instrumented, its instrumented code
// and its artifact: the function's words as the device holds them, each jump
// to a trampoline replaced by the trampoline's own words (which hold no
// address of their own), and the encoded artifact.
type wsResult struct {
	code, art map[string][]byte
	stats     JITStats
}

// wsRun loads the kernels on a fresh device, launches k0 once, and from
// that launch's callback instruments the kernels named in plan, with cache
// when it is not nil.
func wsRun(cache *jitcache.Cache, plan ...string) (wsResult, error) {
	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		return wsResult{}, err
	}
	defer api.Close()
	var ctr uint64
	var planErr error
	tool := &testTool{onLaunch: func(n *NVBit, p *driver.CallParams) {
		if n.IsInstrumented(p.Launch.Func) {
			return
		}
		for _, name := range plan {
			f, err := p.Launch.Func.Module.GetFunction(name)
			if err != nil {
				planErr = err
				return
			}
			insts, err := n.GetInstrs(f)
			if err != nil {
				planErr = err
				return
			}
			wsPlan(n, name, insts, ctr)
		}
	}}
	var opts []Option
	if cache != nil {
		opts = append(opts, WithJITCache(cache))
	}
	nv, err := Attach(api, tool, opts...)
	if err != nil {
		return wsResult{}, err
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		return wsResult{}, err
	}
	if ctr, err = nv.Malloc(16); err != nil {
		return wsResult{}, err
	}
	var src strings.Builder
	for _, name := range wsNames {
		src.WriteString(wsKernel(name, wsPairs[name]))
	}
	mod, err := ctx.ModuleLoadPTX("ws.ptx", src.String())
	if err != nil {
		return wsResult{}, err
	}
	k0, err := mod.GetFunction("k0")
	if err != nil {
		return wsResult{}, err
	}
	data, err := ctx.MemAlloc(4 * 32)
	if err != nil {
		return wsResult{}, err
	}
	params, err := driver.PackParams(k0, data)
	if err != nil {
		return wsResult{}, err
	}
	if err := ctx.LaunchKernel(k0, gpu.D1(1), gpu.D1(32), 0, params); err != nil {
		return wsResult{}, err
	}
	if planErr != nil {
		return wsResult{}, planErr
	}
	res := wsResult{code: make(map[string][]byte), art: make(map[string][]byte), stats: nv.JITStats()}
	ib, codec := nv.hal.InstBytes, nv.hal.Codec()
	for _, name := range plan {
		f, err := mod.GetFunction(name)
		if err != nil {
			return wsResult{}, err
		}
		fs := nv.funcs[f]
		if cache != nil {
			res.art[name], _ = cache.Get(nv.codeKey(fs))
		} else {
			art, err := nv.buildArtifact(fs)
			if err != nil {
				return wsResult{}, err
			}
			res.art[name] = encodeCodeArtifact(art)
		}
		body, err := api.Device().ReadCode(f.Addr, f.NumWords)
		if err != nil {
			return wsResult{}, err
		}
		var code []byte
		jumps := 0
		for w := 0; w < f.NumWords; w++ {
			word := body[w*ib : (w+1)*ib]
			if bytes.Equal(word, fs.origCode[w*ib:(w+1)*ib]) {
				code = append(code, word...)
				continue
			}
			jmp, err := codec.Decode(word)
			if err != nil || jmp.Op != sass.OpJMP {
				return wsResult{}, fmt.Errorf("%s word %d: %v, %v where the original code differs", name, w, jmp, err)
			}
			jumps++
			// The trampoline ends at its jump back into the function.
			for a := gpu.CodeAddr(jmp.Imm); ; a++ {
				tw, err := api.Device().ReadCode(a, 1)
				if err != nil {
					return wsResult{}, fmt.Errorf("%s word %d: trampoline at %#x: %w", name, w, jmp.Imm, err)
				}
				code = append(code, tw...)
				in, err := codec.Decode(tw)
				if err == nil && in.Op == sass.OpJMP && in.Imm > int64(f.Addr) && in.Imm <= int64(f.Addr)+int64(f.NumWords) {
					break
				}
			}
		}
		if jumps == 0 {
			return wsResult{}, fmt.Errorf("%s: no jump to a trampoline", name)
		}
		res.code[name] = code
	}
	return res, nil
}

// TestWorkspaceHoldsNothingOver: one attachment instruments four kernels from
// one launch callback — a build, a cache hit decoded into the workspace, and
// two builds — and each kernel gets the code and the artifact a fresh
// attachment instrumenting it alone gets. Then two such attachments run at
// once over one cache, each with its own workspace (run it under -race).
func TestWorkspaceHoldsNothingOver(t *testing.T) {
	want := make(map[string]wsResult)
	for _, name := range wsNames {
		res, err := wsRun(nil, name)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = res
	}
	// primed returns a cache that holds k1's code alone.
	primed := func() *jitcache.Cache {
		cache, err := jitcache.New("", 0)
		if err != nil {
			t.Fatal(err)
		}
		primer, err := wsRun(cache, "k1")
		if err != nil {
			t.Fatal(err)
		}
		if st := primer.stats; st.CacheMisses != 1 {
			t.Fatalf("priming k1: %d misses", st.CacheMisses)
		}
		return cache
	}
	check := func(what string, res wsResult) {
		for _, name := range wsNames {
			if !bytes.Equal(res.code[name], want[name].code[name]) {
				t.Errorf("%s: %s's instrumented code differs from a fresh attachment's", what, name)
			}
			if !bytes.Equal(res.art[name], want[name].art[name]) {
				t.Errorf("%s: %s's artifact differs from a fresh attachment's", what, name)
			}
		}
	}

	alone, err := wsRun(primed(), wsNames...)
	if err != nil {
		t.Fatal(err)
	}
	if st := alone.stats; st.CacheHits != 1 || st.CacheMisses != 3 {
		t.Fatalf("%d hits and %d misses, want k1 alone a hit", st.CacheHits, st.CacheMisses)
	}
	check("alone", alone)

	cache := primed()
	var wg sync.WaitGroup
	got := make([]wsResult, 2)
	errs := make([]error, len(got))
	for s := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[s], errs[s] = wsRun(cache, wsNames...)
		}()
	}
	wg.Wait()
	for s, res := range got {
		if errs[s] != nil {
			t.Errorf("concurrent attachment %d: %v", s, errs[s])
			continue
		}
		check(fmt.Sprintf("concurrent attachment %d", s), res)
	}
}
