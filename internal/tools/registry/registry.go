// Package registry is the one catalog of instrumentation tools a launcher
// can inject: it maps tool names to constructors and report writers.
// nvbit-run's tool switch and the nvbitd daemon's session-open handler both
// resolve tools here, so the two front ends serve exactly the same set with
// exactly the same report formats — which is what lets CI diff a daemon
// client's per-session report against the standalone run's byte for byte.
package registry

import (
	"fmt"
	"io"
	"math/bits"
	"sort"

	"nvbitgo/internal/channel"
	"nvbitgo/internal/core"
	"nvbitgo/internal/driver"
	"nvbitgo/internal/tools/cachesim"
	"nvbitgo/internal/tools/faultinject"
	"nvbitgo/internal/tools/instrcount"
	"nvbitgo/internal/tools/itrace"
	"nvbitgo/internal/tools/memcheck"
	"nvbitgo/internal/tools/memdiv"
	"nvbitgo/internal/tools/memtrace"
	"nvbitgo/internal/tools/ophisto"
)

// Options is a session's choices other than the tool, in their wire
// spelling: nvbit-run's flags fill it, nvbitd's open frame carries it (the
// JSON names are the frame's), and New alone parses and validates it. Zero
// values select the documented defaults.
type Options struct {
	Policy string `json:"policy,omitempty"` // channel tools' backpressure: drop (also "") or block
	Inject string `json:"inject,omitempty"` // codegen mode: trampoline (also ""), full-save or inline
	// Fault-injection configuration (tool "faultinject").
	FIGroup  string `json:"fiGroup,omitempty"`  // instruction group; "" selects gpr
	FIModel  string `json:"fiModel,omitempty"`  // injection model; "" selects flip
	FITarget uint64 `json:"fiTarget,omitempty"` // dynamic thread-instruction index to corrupt
	FIBit    uint   `json:"fiBit,omitempty"`    // bit position for flip/flip2
	FIValue  uint32 `json:"fiValue,omitempty"`  // replacement value for rand
}

// Instance is one constructed tool plus its report writer.
type Instance struct {
	// Name is the catalog name the tool was built from ("" builds none).
	Name string
	// Tool is what the launcher attaches (nvbit.Attach / nvbit.OpenSession).
	Tool core.Tool
	// Inject is the parsed Options.Inject the launcher attaches Tool with.
	Inject core.InjectionMode
	// Report writes the tool's human-readable report after the workload
	// ran. violation reports whether the tool found violations (the
	// documented exit-code-2 condition); err is an I/O or tool failure.
	Report func(w io.Writer, nv *core.NVBit) (violation bool, err error)
}

// noop is the "none" tool: a session must carry a hook, so uninstrumented
// remote runs attach this and inject nothing.
type noop struct{}

func (noop) AtInit(*core.NVBit) {}
func (noop) AtTerm(*core.NVBit) {}
func (noop) AtCUDACall(*core.NVBit, bool, driver.CBID, string, *driver.CallParams) {
}

// parsed is Options after New has parsed it: what the constructors read.
type parsed struct {
	policy channel.Policy
	fault  faultinject.Injection
}

// builders maps every tool name to its constructor.
var builders = map[string]func(parsed) *Instance{
	"none": func(parsed) *Instance {
		return &Instance{Tool: noop{}, Report: func(io.Writer, *core.NVBit) (bool, error) { return false, nil }}
	},
	"instrcount":      func(parsed) *Instance { return newInstrcount(false) },
	"instrcount-bb":   func(parsed) *Instance { return newInstrcount(true) },
	"memdiv":          newMemdiv,
	"cachesim":        newCachesim,
	"itrace":          newItrace,
	"memtrace":        newMemtrace,
	"memcheck":        newMemcheck,
	"faultinject":     newFaultinject,
	"ophisto":         func(parsed) *Instance { return newOphisto(false) },
	"ophisto-sampled": func(parsed) *Instance { return newOphisto(true) },
}

// Names returns every registered tool name, sorted.
func Names() []string {
	out := make([]string, 0, len(builders))
	for n := range builders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// New constructs the named tool; "" names none. It parses and validates all
// of o whatever the tool, so a spec is refused or accepted the same way by
// every front end. Unknown names fail with an error listing the catalog.
func New(name string, o Options) (*Instance, error) {
	if name == "" {
		name = "none"
	}
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("unknown tool %q (have %v)", name, Names())
	}
	policy, err := channel.ParsePolicy(o.Policy)
	if err != nil {
		return nil, err
	}
	inject := core.InjectTrampoline
	if o.Inject != "" {
		if inject, err = core.ParseInjectionMode(o.Inject); err != nil {
			return nil, err
		}
	}
	fault, err := parseFault(o)
	if err != nil {
		return nil, err
	}
	inst := b(parsed{policy, fault})
	inst.Name, inst.Inject = name, inject
	return inst, nil
}

// parseFault parses o's fault fields into the injection faultinject runs.
func parseFault(o Options) (faultinject.Injection, error) {
	groupName, modelName := o.FIGroup, o.FIModel
	if groupName == "" {
		groupName = "gpr"
	}
	if modelName == "" {
		modelName = "flip"
	}
	group, err := faultinject.ParseGroup(groupName)
	if err != nil {
		return faultinject.Injection{}, err
	}
	model, err := faultinject.ParseModel(modelName)
	if err != nil {
		return faultinject.Injection{}, err
	}
	// The device rule masks the bit position into the register, so an
	// out-of-range one would silently flip some other bit (or, for the top
	// pair, only one).
	if model == faultinject.ModelFlip && o.FIBit > faultinject.MaxFlipBit ||
		model == faultinject.ModelFlip2 && o.FIBit > faultinject.MaxFlip2Bit {
		return faultinject.Injection{}, fmt.Errorf("faultinject: bit %d out of range for model %s (flip takes 0..%d, flip2 0..%d)",
			o.FIBit, model, faultinject.MaxFlipBit, faultinject.MaxFlip2Bit)
	}
	return faultinject.Injection{Group: group, Target: o.FITarget, Model: model, Bit: o.FIBit, Value: o.FIValue}, nil
}

func newInstrcount(perBB bool) *Instance {
	t := instrcount.New()
	t.PerBasicBlock = perBB
	return &Instance{Tool: t, Report: func(w io.Writer, nv *core.NVBit) (bool, error) {
		_, err := fmt.Fprintf(w, "thread-level instructions: app %d, libraries %d (%.1f%% in libraries)\n",
			t.AppInstrs(nv), t.LibInstrs(nv), 100*t.LibraryFraction(nv))
		return false, err
	}}
}

func newMemdiv(parsed) *Instance {
	t := memdiv.New()
	return &Instance{Tool: t, Report: func(w io.Writer, nv *core.NVBit) (bool, error) {
		_, err := fmt.Fprintf(w, "average cache lines requested per memory instruction %f\n",
			t.AvgLinesPerMemInstr(nv))
		return false, err
	}}
}

func newCachesim(p parsed) *Instance {
	cfg := cachesim.DefaultConfig()
	cfg.Policy = p.policy
	t := cachesim.New(cfg)
	return &Instance{Tool: t, Report: func(w io.Writer, nv *core.NVBit) (bool, error) {
		st := t.Stats()
		_, err := fmt.Fprintf(w, "cache replay: %d accesses, L1 %.1f%% hit, L2 %d hits / %d misses, %d dropped\n",
			st.Accesses, 100*st.L1HitRate(), st.L2Hits, st.L2Misses, st.Dropped)
		return false, err
	}}
}

func newItrace(p parsed) *Instance {
	t := itrace.New(1 << 20)
	t.Policy = p.policy
	return &Instance{Tool: t, Report: func(w io.Writer, nv *core.NVBit) (bool, error) {
		kernels := map[uint32]bool{}
		for _, r := range t.Records {
			kernels[r.KernelID] = true
		}
		_, err := fmt.Fprintf(w, "trace: %d warp-level records across %d kernels, %d dropped\n",
			len(t.Records), len(kernels), t.Dropped())
		return false, err
	}}
}

func newMemtrace(p parsed) *Instance {
	// 280-byte records, one buffer per SM: 64K aggregate slots cost
	// ~18 MB of device memory and mid-kernel flushes recycle them.
	t := memtrace.New(1 << 16)
	t.Policy = p.policy
	return &Instance{Tool: t, Report: func(w io.Writer, nv *core.NVBit) (bool, error) {
		kernels := map[uint32]bool{}
		var lanes uint64
		for _, r := range t.Records {
			kernels[r.KernelID] = true
			lanes += uint64(bits.OnesCount32(r.ExecMask))
		}
		st := t.Stats()
		if _, err := fmt.Fprintf(w, "memtrace: %d warp-level accesses (%d lane addresses) across %d kernels, %d dropped\n",
			len(t.Records), lanes, len(kernels), st.Dropped); err != nil {
			return false, err
		}
		_, err := fmt.Fprintf(w, "memtrace channel: %d flushes (%d sweep, %d drain), %d bytes shipped\n",
			st.Flushes, st.TickFlushes, st.DrainFlushes, st.BytesShipped)
		return false, err
	}}
}

func newMemcheck(p parsed) *Instance {
	// 16-byte records, one buffer per SM: 512K aggregate slots cost 8 MB
	// of device memory, an eighth of a pool device.
	t := memcheck.New(1 << 19)
	t.Policy = p.policy
	return &Instance{Tool: t, Report: func(w io.Writer, nv *core.NVBit) (bool, error) {
		t.Report(w)
		return t.TotalViolations > 0, nil
	}}
}

func newFaultinject(p parsed) *Instance {
	t := faultinject.New(p.fault)
	return &Instance{Tool: t, Report: func(w io.Writer, nv *core.NVBit) (bool, error) {
		r, err := t.Result()
		if err != nil {
			return false, err
		}
		_, err = fmt.Fprintf(w, "faultinject: %s\n", r)
		return false, err
	}}
}

func newOphisto(sampled bool) *Instance {
	t := ophisto.New(sampled)
	return &Instance{Tool: t, Report: func(w io.Writer, nv *core.NVBit) (bool, error) {
		if _, err := fmt.Fprintln(w, "top-5 executed instructions:"); err != nil {
			return false, err
		}
		for _, e := range t.Top(nv, 5) {
			if _, err := fmt.Fprintf(w, "  %-8s %12d\n", e.Opcode, e.Count); err != nil {
				return false, err
			}
		}
		return false, nil
	}}
}
