// Package registry is the one catalog of instrumentation tools a launcher
// can inject: it maps tool names to constructors and report writers.
// nvbit-run's tool switch and the nvbitd daemon's session-open handler both
// resolve tools here, so the two front ends serve exactly the same set with
// exactly the same report formats — which is what lets CI diff a daemon
// client's per-session report against the standalone run's byte for byte.
package registry

import (
	"cmp"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sort"
	"strings"

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
// JSON names are the frame's), and New alone parses and validates it. An
// empty or zero field selects its default; a tool's row says which fields
// it reads, and New refuses any other set to a value but its default.
type Options struct {
	Policy string `json:"policy,omitempty"` // channel tools' backpressure (-backpressure): drop (default) or block
	Inject string `json:"inject,omitempty"` // codegen mode: trampoline (default), full-save or inline
	// Fault-injection configuration (tool "faultinject").
	FIGroup  string `json:"fiGroup,omitempty"`  // instruction group; gpr by default
	FIModel  string `json:"fiModel,omitempty"`  // injection model; flip by default
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

// row is one catalog entry: the spec fields its tool reads, by their JSON
// names in Options order, and its constructor.
type row struct {
	reads []string
	build func(parsed) *Instance
}

// The read sets: every tool that injects code reads the injection mode.
var (
	instruments = []string{"inject"}
	channelTool = []string{"policy", "inject"}
	faultTool   = []string{"inject", "fiGroup", "fiModel", "fiTarget", "fiBit", "fiValue"}
)

// rows maps every tool name to its entry. It is the one place that says
// which tool reads which spec field.
var rows = map[string]row{
	"none": {nil, func(parsed) *Instance {
		return &Instance{Tool: noop{}, Report: func(io.Writer, *core.NVBit) (bool, error) { return false, nil }}
	}},
	"instrcount":      {instruments, func(parsed) *Instance { return newInstrcount(false) }},
	"instrcount-bb":   {instruments, func(parsed) *Instance { return newInstrcount(true) }},
	"memdiv":          {instruments, newMemdiv},
	"cachesim":        {channelTool, newCachesim},
	"itrace":          {channelTool, newItrace},
	"memtrace":        {channelTool, newMemtrace},
	"memcheck":        {channelTool, newMemcheck},
	"faultinject":     {faultTool, newFaultinject},
	"ophisto":         {instruments, func(parsed) *Instance { return newOphisto(false) }},
	"ophisto-sampled": {instruments, func(parsed) *Instance { return newOphisto(true) }},
}

// Names returns every registered tool name, sorted.
func Names() []string {
	out := make([]string, 0, len(rows))
	for n := range rows {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ReadsOf returns the JSON names of the spec fields the named tool reads, in
// Options order; none, and a name outside the catalog, read nothing.
func ReadsOf(name string) []string { return slices.Clone(rows[name].reads) }

// fieldNames are Options' JSON names, in declaration order.
var fieldNames = [...]string{"policy", "inject", "fiGroup", "fiModel", "fiTarget", "fiBit", "fiValue"}

// New constructs the named tool; "" names none. It parses and validates all
// of o whatever the tool, then refuses a field the tool does not read set to
// other than its default, so a spec is refused or accepted the same way by
// every front end. Unknown names fail with an error listing the catalog.
func New(name string, o Options) (*Instance, error) {
	if name == "" {
		name = "none"
	}
	r, ok := rows[name]
	if !ok {
		return nil, fmt.Errorf("unknown tool %q (have %v)", name, Names())
	}
	policy, err1 := orDefault(o.Policy, channel.ParsePolicy)
	inject, err2 := orDefault(o.Inject, core.ParseInjectionMode)
	group, err3 := orDefault(o.FIGroup, faultinject.ParseGroup)
	model, err4 := orDefault(o.FIModel, faultinject.ParseModel)
	if err := cmp.Or(err1, err2, err3, err4); err != nil {
		return nil, err
	}
	set := [len(fieldNames)]bool{policy != channel.Drop, inject != core.InjectTrampoline, group != faultinject.GroupGPR,
		model != faultinject.ModelFlip, o.FITarget != 0, o.FIBit != 0, o.FIValue != 0}
	var ignored []string
	for i, f := range fieldNames {
		if set[i] && !slices.Contains(r.reads, f) {
			ignored = append(ignored, f)
		}
	}
	if ignored != nil {
		return nil, fmt.Errorf("tool %s does not read %s", name, strings.Join(ignored, ", "))
	}
	fault := faultinject.Injection{Group: group, Target: o.FITarget, Model: model, Bit: o.FIBit, Value: o.FIValue}
	if err := fault.Check(); err != nil {
		return nil, err
	}
	inst := r.build(parsed{policy, fault})
	inst.Name, inst.Inject = name, inject
	return inst, nil
}

// orDefault parses a spec field's name; the empty name is the zero default.
func orDefault[T ~int](s string, parse func(string) (T, error)) (T, error) {
	if s == "" {
		return 0, nil
	}
	return parse(s)
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
