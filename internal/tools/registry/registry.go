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

// Options carries the tool-independent knobs a launcher passes through to a
// constructor. Zero values select the documented defaults.
type Options struct {
	// Policy selects channel backpressure for channel-backed tools
	// (cachesim, itrace, memcheck, memtrace).
	Policy channel.Policy
	// Fault-injection configuration (tool "faultinject").
	FIGroup  string // instruction group; "" selects gpr
	FIModel  string // injection model; "" selects flip
	FITarget uint64 // dynamic thread-instruction index to corrupt
	FIBit    uint   // bit position for flip/flip2
	FIValue  uint32 // replacement value for rand
}

// Instance is one constructed tool plus its report writer.
type Instance struct {
	// Tool is what the launcher attaches (nvbit.Attach / nvbit.OpenSession).
	Tool core.Tool
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

// builders maps every tool name to its constructor.
var builders = map[string]func(Options) (*Instance, error){
	"none": func(Options) (*Instance, error) {
		return &Instance{Tool: noop{}, Report: func(io.Writer, *core.NVBit) (bool, error) { return false, nil }}, nil
	},
	"instrcount":      func(o Options) (*Instance, error) { return newInstrcount(false) },
	"instrcount-bb":   func(o Options) (*Instance, error) { return newInstrcount(true) },
	"memdiv":          newMemdiv,
	"cachesim":        newCachesim,
	"itrace":          newItrace,
	"memtrace":        newMemtrace,
	"memcheck":        newMemcheck,
	"faultinject":     newFaultinject,
	"ophisto":         func(o Options) (*Instance, error) { return newOphisto(false) },
	"ophisto-sampled": func(o Options) (*Instance, error) { return newOphisto(true) },
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

// New constructs the named tool. Unknown names fail with an error listing
// the catalog.
func New(name string, o Options) (*Instance, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("unknown tool %q (have %v)", name, Names())
	}
	return b(o)
}

func newInstrcount(perBB bool) (*Instance, error) {
	t := instrcount.New()
	t.PerBasicBlock = perBB
	return &Instance{Tool: t, Report: func(w io.Writer, nv *core.NVBit) (bool, error) {
		_, err := fmt.Fprintf(w, "thread-level instructions: app %d, libraries %d (%.1f%% in libraries)\n",
			t.AppInstrs(nv), t.LibInstrs(nv), 100*t.LibraryFraction(nv))
		return false, err
	}}, nil
}

func newMemdiv(Options) (*Instance, error) {
	t := memdiv.New()
	return &Instance{Tool: t, Report: func(w io.Writer, nv *core.NVBit) (bool, error) {
		_, err := fmt.Fprintf(w, "average cache lines requested per memory instruction %f\n",
			t.AvgLinesPerMemInstr(nv))
		return false, err
	}}, nil
}

func newCachesim(o Options) (*Instance, error) {
	cfg := cachesim.DefaultConfig()
	cfg.Policy = o.Policy
	t := cachesim.New(cfg)
	return &Instance{Tool: t, Report: func(w io.Writer, nv *core.NVBit) (bool, error) {
		st := t.Stats()
		_, err := fmt.Fprintf(w, "cache replay: %d accesses, L1 %.1f%% hit, L2 %d hits / %d misses, %d dropped\n",
			st.Accesses, 100*st.L1HitRate(), st.L2Hits, st.L2Misses, st.Dropped)
		return false, err
	}}, nil
}

func newItrace(o Options) (*Instance, error) {
	t := itrace.New(1 << 20)
	t.Policy = o.Policy
	return &Instance{Tool: t, Report: func(w io.Writer, nv *core.NVBit) (bool, error) {
		kernels := map[uint32]bool{}
		for _, r := range t.Records {
			kernels[r.KernelID] = true
		}
		_, err := fmt.Fprintf(w, "trace: %d warp-level records across %d kernels, %d dropped\n",
			len(t.Records), len(kernels), t.Dropped())
		return false, err
	}}, nil
}

func newMemtrace(o Options) (*Instance, error) {
	// 280-byte records, one buffer per SM: 64K aggregate slots cost
	// ~18 MB of device memory and mid-kernel flushes recycle them.
	t := memtrace.New(1 << 16)
	t.Policy = o.Policy
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
	}}, nil
}

func newMemcheck(o Options) (*Instance, error) {
	// 16-byte records, one buffer per SM: 512K aggregate slots cost 8 MB
	// of device memory, an eighth of a pool device.
	t := memcheck.New(1 << 19)
	t.Policy = o.Policy
	return &Instance{Tool: t, Report: func(w io.Writer, nv *core.NVBit) (bool, error) {
		t.Report(w)
		return t.TotalViolations > 0, nil
	}}, nil
}

func newFaultinject(o Options) (*Instance, error) {
	groupName, modelName := o.FIGroup, o.FIModel
	if groupName == "" {
		groupName = "gpr"
	}
	if modelName == "" {
		modelName = "flip"
	}
	group, err := faultinject.ParseGroup(groupName)
	if err != nil {
		return nil, err
	}
	model, err := faultinject.ParseModel(modelName)
	if err != nil {
		return nil, err
	}
	// The device rule masks the bit position into the register, so an
	// out-of-range one would silently flip some other bit (or, for the top
	// pair, only one).
	if model == faultinject.ModelFlip && o.FIBit > faultinject.MaxFlipBit ||
		model == faultinject.ModelFlip2 && o.FIBit > faultinject.MaxFlip2Bit {
		return nil, fmt.Errorf("faultinject: bit %d out of range for model %s (flip takes 0..%d, flip2 0..%d)",
			o.FIBit, model, faultinject.MaxFlipBit, faultinject.MaxFlip2Bit)
	}
	t := faultinject.New(faultinject.Injection{
		Group: group, Target: o.FITarget, Model: model,
		Bit: o.FIBit, Value: o.FIValue,
	})
	return &Instance{Tool: t, Report: func(w io.Writer, nv *core.NVBit) (bool, error) {
		r, err := t.Result()
		if err != nil {
			return false, err
		}
		_, err = fmt.Fprintf(w, "faultinject: %s\n", r)
		return false, err
	}}, nil
}

func newOphisto(sampled bool) (*Instance, error) {
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
	}}, nil
}
