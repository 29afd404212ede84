// Codegen byte-identity golden: the Code Generator's device-independent
// output — what the JIT cache stores and what every simulated number derives
// from — is pinned by SHA-256 per function, so a refactor of the generator or
// of the sass operand view it consumes must reproduce it bit for bit.
package core_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"nvbitgo/internal/core"
	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/sass"
	"nvbitgo/internal/tools/instrcount"
	"nvbitgo/internal/tools/memcheck"
	"nvbitgo/internal/tools/memtrace"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

const goldenPath = "testdata/codegen_golden.txt"

var (
	goldenFamilies = []sass.Family{sass.Kepler, sass.Volta}
	goldenModes    = []core.InjectionMode{core.InjectTrampoline, core.InjectFullSave, core.InjectInline}
)

// goldenTools are the three tools whose plans cover before-calls on every
// instruction (instrcount), ArgMRefAddr with site-predicate arguments on
// memory instructions (memtrace) and multi-argument bounds checks (memcheck).
var goldenTools = map[string]func() nvbit.Tool{
	"instrcount": func() nvbit.Tool { return instrcount.New() },
	"memtrace": func() nvbit.Tool {
		t := memtrace.New(1 << 16)
		t.Policy = nvbit.ChannelBlock
		return t
	},
	"memcheck": func() nvbit.Tool { return memcheck.New(1 << 20) },
}

// synthPTX is the synthetic application: an ISETP guarded by the predicate
// it writes, a guarded add that redefines its own source, a global load that
// overwrites its base pair, and shared accesses through a register base and
// an absolute address.
const synthPTX = `
.visible .entry synth(.param .u64 out)
{
	.reg .u32 %r<6>;
	.reg .u64 %rd<6>;
	.reg .pred %p<2>;
	.shared .b8 smem[256];
	mov.u32 %r0, %tid.x;
	setp.lt.u32 %p0, %r0, 12;
	@%p0 setp.ge.u32 %p0, %r0, 100;
	mov.u32 %r1, 0;
	@%p0 add.u32 %r1, %r1, 1;
	ld.param.u64 %rd0, [out];
	mul.wide.u32 %rd2, %r0, 8;
	add.u64 %rd0, %rd0, %rd2;
	@!%p0 ld.global.u64 %rd0, [%rd0+16];
	shl.b32 %r2, %r0, 2;
	st.shared.u32 [%r2+4], %r1;
	ld.shared.u32 %r3, [8];
	st.global.u32 [%rd0], %r3;
	exit;
}
`

// synthToolPTX: a 32-bit and a 64-bit probe whose bodies use registers, a
// predicate and an interior return, so inline renaming has work to do.
const synthToolPTX = `
.toolfunc probe32(.param .u32 v, .param .u64 ctr)
{
	.reg .u32 %r<2>;
	.reg .u64 %rd<4>;
	.reg .pred %p<2>;
	ld.param.u32 %r0, [v];
	setp.eq.u32 %p0, %r0, 0;
	@%p0 ret;
	ld.param.u64 %rd0, [ctr];
	mov.u64 %rd2, 1;
	red.global.add.u64 [%rd0], %rd2;
	ret;
}
.toolfunc probe64(.param .u64 v, .param .u64 out)
{
	.reg .u64 %rd<4>;
	ld.param.u64 %rd0, [v];
	ld.param.u64 %rd2, [out];
	st.global.u64 [%rd2], %rd0;
	ret;
}
`

type synthTool struct{}

func (synthTool) AtInit(n *core.NVBit) {
	if err := n.RegisterToolPTX(synthToolPTX); err != nil {
		panic(err)
	}
}
func (synthTool) AtTerm(*core.NVBit) {}
func (synthTool) AtCUDACall(*core.NVBit, bool, driver.CBID, string, *driver.CallParams) {
}

// synthArgs is one entry per Arg* constructor. wide selects probe64.
var synthArgs = []struct {
	name string
	wide bool
	mref bool
	arg  func(i *core.Instr) core.CallArg
}{
	{"ArgReg", false, false, func(i *core.Instr) core.CallArg { return core.ArgReg(int(i.Raw().Src1)) }},
	{"ArgReg64", true, false, func(i *core.Instr) core.CallArg { return core.ArgReg64(int(i.Raw().Src1) &^ 1) }},
	{"ArgConst32", false, false, func(*core.Instr) core.CallArg { return core.ArgConst32(0xdeadbeef) }},
	{"ArgConst64", true, false, func(*core.Instr) core.CallArg { return core.ArgConst64(0x0123456789abcdef) }},
	{"ArgConstBank", false, false, func(*core.Instr) core.CallArg { return core.ArgConstBank(1, 0x44) }},
	{"ArgPred", false, false, func(*core.Instr) core.CallArg { return core.ArgPred(0, true) }},
	{"ArgSitePred", false, false, func(*core.Instr) core.CallArg { return core.ArgSitePred() }},
	{"ArgMRefAddr", true, true, func(*core.Instr) core.CallArg { return core.ArgMRefAddr() }},
	{"ArgLaunchDim", false, false, func(*core.Instr) core.CallArg { return core.ArgLaunchDim(core.BlockDimX) }},
}

// synthDigests returns one line per Arg* kind: the hash over the artifacts of
// every site the kind applies to, each site carrying the call both before and
// after the instruction. Nothing is launched.
func synthDigests(fam sass.Family, mode core.InjectionMode) ([]string, error) {
	api, err := driver.New(gpu.DefaultConfig(fam))
	if err != nil {
		return nil, err
	}
	defer api.Close()
	nv, err := core.Attach(api, synthTool{}, core.WithInjectionMode(mode))
	if err != nil {
		return nil, err
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		return nil, err
	}
	mod, err := ctx.ModuleLoadPTX("synth", synthPTX)
	if err != nil {
		return nil, err
	}
	f, err := mod.GetFunction("synth")
	if err != nil {
		return nil, err
	}
	insts, err := nv.GetInstrs(f)
	if err != nil {
		return nil, err
	}
	var lines []string
	for _, a := range synthArgs {
		h := sha256.New()
		sites := 0
		for _, i := range insts {
			_, isMem := i.MemOperand()
			_, _, guarded := i.GetPredicate()
			if a.mref != isMem || (!a.mref && !guarded) {
				continue
			}
			probe, second := "probe32", core.ArgConst64(0x7000)
			if a.wide {
				probe = "probe64"
			}
			for _, where := range []core.IPoint{core.IPointBefore, core.IPointAfter} {
				nv.InsertCallArgs(i, probe, where, a.arg(i), second)
			}
			ds, err := nv.ArtifactDigests()
			if err != nil {
				return nil, fmt.Errorf("%s at word %d: %w", a.name, i.Idx(), err)
			}
			fmt.Fprintf(h, "%d %s\n", i.Idx(), strings.Join(ds, "\n"))
			if err := nv.ResetInstrumented(f); err != nil {
				return nil, err
			}
			sites++
		}
		if sites == 0 {
			return nil, fmt.Errorf("%s: no applicable site in the synthetic kernel", a.name)
		}
		lines = append(lines, fmt.Sprintf("synth/%v/%v/%s %x", fam, mode, a.name, h.Sum(nil)))
	}
	return lines, nil
}

// instrumentCG runs specaccel:cg Small under one tool on a fresh device. The
// caller closes the driver.
func instrumentCG(fam sass.Family, mode core.InjectionMode, toolName string) (*driver.API, *core.NVBit, error) {
	api, err := driver.New(gpu.DefaultConfig(fam))
	if err != nil {
		return nil, nil, err
	}
	nv, err := core.Attach(api, goldenTools[toolName](), core.WithInjectionMode(mode))
	if err == nil {
		var ctx *driver.Context
		if ctx, err = api.CtxCreate(); err == nil {
			err = sessionBenchmark("cg").Run(ctx, specaccel.Small)
		}
	}
	if err != nil {
		api.Close()
		return nil, nil, err
	}
	return api, nv, nil
}

// cgRuns runs cg once for every golden family, injection mode and tool and
// keeps each instrumented function's encoded code artifact by name, for the
// golden below and the decoder's fuzz seeds alike.
var cgRuns = sync.OnceValues(func() (map[string]map[string][]byte, error) {
	runs := make(map[string]map[string][]byte)
	for _, fam := range goldenFamilies {
		for _, mode := range goldenModes {
			for tool := range goldenTools {
				name := fmt.Sprintf("cg/%v/%v/%s", fam, mode, tool)
				api, nv, err := instrumentCG(fam, mode, tool)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", name, err)
				}
				code, err := nv.CodeArtifacts()
				api.Close()
				if err != nil {
					return nil, fmt.Errorf("%s: %w", name, err)
				}
				runs[name] = code
			}
		}
	}
	return runs, nil
})

// cgDigests returns a line per function cg instrumented under the tool.
func cgDigests(fam sass.Family, mode core.InjectionMode, toolName string) ([]string, error) {
	runs, err := cgRuns()
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("cg/%v/%v/%s", fam, mode, toolName)
	var ds []string
	for fn, blob := range runs[name] {
		canon, err := core.CanonicalCodeArtifact(blob)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", name, fn, err)
		}
		ds = append(ds, fmt.Sprintf("%s/%s %x", name, fn, sha256.Sum256(canon)))
	}
	if len(ds) == 0 {
		return nil, fmt.Errorf("%s instrumented nothing", toolName)
	}
	sort.Strings(ds)
	return ds, nil
}

// materializedGolden is the SHA-256 of the device's whole code space — the
// application's modules with the instrumented functions resident, the tool
// functions, the save and restore routines and every trampoline — after cg
// ran under instrcount, both strategies laying out coalesced visits.
// TestCodegenGolden pins the
// device-independent artifact; this pins what materialization makes of it:
// the order device addresses are handed out in and the encoded bytes.
var materializedGolden = map[string]string{
	"Kepler/trampoline": "5bf328852f1ba561888126d3952394e9421c84468e681b967d8d8b3b80458d78",
	"Kepler/inline":     "e1cfb30a74737e01351717eb794f2ee79528b817b05477988610e0012f28d18b",
	"Volta/trampoline":  "98df9848313f986218087bd7fc0982aa50ac6a4c7b7111cabed1080fbf7f669b",
	"Volta/inline":      "d8c497940fa75fa3ded3ae009331945321b7c364a4fa9412c0b2e0038898f8d5",
}

func TestMaterializedCodeGolden(t *testing.T) {
	for _, fam := range goldenFamilies {
		for _, mode := range []core.InjectionMode{core.InjectTrampoline, core.InjectInline} {
			api, _, err := instrumentCG(fam, mode, "instrcount")
			if err != nil {
				t.Fatalf("%v/%v: %v", fam, mode, err)
			}
			// Nothing is allocated; the address returned is the first free word.
			top, err := api.Device().AllocCode(0)
			if err != nil {
				t.Fatal(err)
			}
			code, err := api.Device().ReadCode(0, int(top))
			api.Close()
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%v/%v", fam, mode)
			if got := fmt.Sprintf("%x", sha256.Sum256(code)); got != materializedGolden[name] {
				t.Errorf("%s: %d code words hash to %s, want %s", name, top, got, materializedGolden[name])
			}
		}
	}
}

// codeKeyGolden is the cache key of cg_spmv under instrcount, recorded at
// artifactVersion 5, key schema v5. A key that moves orphans every
// primed cache directory, so a change to what is hashed, or to the order,
// shows here and not only in a manual run of two binaries over one directory.
var codeKeyGolden = map[string]string{
	"Kepler/trampoline": "d7250d8ee649f2dbac94a606bf0b63810365fdea1980db4c4a3ef9c10d16707a",
	"Kepler/full-save":  "8615345ebf4c405d0c82c1668f5682389a332f76facca11afe095654eb0fd39b",
	"Kepler/inline":     "415ee46e801c87e1ef2997315c1ee2b7f1cf594b46c56fbb4fad8e2f54f86a4c",
	"Volta/trampoline":  "4366c1c020e931507631b6e5b24dbe39143d663389d36c71021146312ac15533",
	"Volta/full-save":   "d4b3e2bba6cf05b4828e00cd23f61d54a504674c0f53dfcf12443e3dc2cb0022",
	"Volta/inline":      "bab6f1a5b997b2cf85cff02a620305f72570450c47742d1c2eaeadf9ba1a6bcb",
}

func TestCodeKeyGolden(t *testing.T) {
	for _, fam := range goldenFamilies {
		for _, mode := range goldenModes {
			api, nv, err := instrumentCG(fam, mode, "instrcount")
			if err != nil {
				t.Fatalf("%v/%v: %v", fam, mode, err)
			}
			got := nv.CodeKeys()["cg_spmv"]
			api.Close()
			name := fmt.Sprintf("%v/%v", fam, mode)
			if got != codeKeyGolden[name] {
				t.Errorf("%s: cg_spmv's code key is %s, want %s", name, got, codeKeyGolden[name])
			}
		}
	}

	// The plan is hashed in fields as narrow as a byte; every one of them
	// still tells two plans apart. Each variant below differs from the first
	// in one such field of one call on one instruction.
	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	nv, err := core.Attach(api, synthTool{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ctx.ModuleLoadPTX("synth", synthPTX)
	if err != nil {
		t.Fatal(err)
	}
	f, err := mod.GetFunction("synth")
	if err != nil {
		t.Fatal(err)
	}
	insts, err := nv.GetInstrs(f)
	if err != nil {
		t.Fatal(err)
	}
	type plan struct {
		arg    core.CallArg
		where  core.IPoint
		remove bool
	}
	base := plan{arg: core.ArgPred(0, false)}
	variants := map[string]plan{
		"base":               base,
		"argument polarity":  {arg: core.ArgPred(0, true)},
		"argument predicate": {arg: core.ArgPred(1, false)},
		"argument kind":      {arg: core.ArgSitePred()},
		"after":              {arg: base.arg, where: core.IPointAfter},
		"original removed":   {arg: base.arg, remove: true},
	}
	seen := make(map[string]string)
	for name, p := range variants {
		i := insts[2]
		nv.InsertCallArgs(i, "probe32", p.where, p.arg, core.ArgConst64(0x7000))
		if p.remove {
			nv.RemoveOrig(i)
		}
		key := nv.CodeKey(f)
		if other, dup := seen[key]; dup {
			t.Errorf("plans %q and %q share the key %s", name, other, key)
		}
		seen[key] = name
		if err := nv.ResetInstrumented(f); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCodegenGolden compares every digest with testdata/codegen_golden.txt.
// Delete the file to record a new golden; the recording run fails so it is
// never mistaken for a comparison.
func TestCodegenGolden(t *testing.T) {
	var got []string
	for _, fam := range goldenFamilies {
		for _, mode := range goldenModes {
			for _, tool := range []string{"instrcount", "memtrace", "memcheck"} {
				ds, err := cgDigests(fam, mode, tool)
				if err != nil {
					t.Fatalf("cg %v/%v/%s: %v", fam, mode, tool, err)
				}
				got = append(got, ds...)
			}
			ds, err := synthDigests(fam, mode)
			if err != nil {
				t.Fatalf("synth %v/%v: %v", fam, mode, err)
			}
			got = append(got, ds...)
		}
	}
	text := strings.Join(got, "\n") + "\n"
	want, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %d digests in %s; run again to compare", len(got), goldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("%d digests, golden has %d", len(got), len(wantLines))
	}
	for k := range got {
		if got[k] != wantLines[k] {
			t.Errorf("generated code changed:\n got %s\nwant %s", got[k], wantLines[k])
		}
	}
}
