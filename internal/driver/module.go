package driver

import (
	"fmt"
	"math"
	"time"

	"nvbitgo/internal/gpu"
	"nvbitgo/internal/profile"
	"nvbitgo/internal/ptx"
	"nvbitgo/internal/sass"
)

func f32bits(v float32) uint32 { return math.Float32bits(v) }

// Module is the CUmodule analog: a container of loaded functions.
type Module struct {
	Name string
	// FromCubin marks binary-only modules (precompiled accelerated
	// libraries like the cuBLAS/cuDNN analogs): they were loaded from a
	// device binary, with no PTX source available.
	FromCubin bool
	// TraceID is the correlation ID of the module-load activity record, 0
	// when tracing was off at load time. JIT-phase records emitted when a
	// function of this module is lifted at first launch reference it as
	// their Parent, nesting them under the load in the trace viewer.
	TraceID uint64

	ctx   *Context
	funcs map[string]*Function
	order []string
}

// Function is the CUfunction analog. The fields are exactly the properties
// the paper's Driver Interposer records when a function is loaded: register
// and stack requirements, dependent functions, and the memory location where
// the instructions were loaded.
type Function struct {
	Name        string
	Module      *Module
	Entry       bool
	Addr        gpu.CodeAddr // load address (word index in code space)
	NumWords    int
	NumRegs     int
	NumPred     int
	Params      []ptxParam
	ParamBytes  int
	SharedBytes int
	Related     []*Function // functions this one can call
	Lines       []int32     // per-instruction source lines; nil when stripped
	SourceName  string      // source file for line correlation
}

func (f *Function) launchAddr() gpu.CodeAddr { return f.Addr }

// MaxRegs returns the register high-water mark across the function and all
// its dependent functions — the figure the NVBit core uses when sizing the
// trampoline save set.
func (f *Function) MaxRegs() int {
	n := f.NumRegs
	for _, r := range f.Related {
		if r.NumRegs > n {
			n = r.NumRegs
		}
	}
	return n
}

// Functions returns the module's functions in load order.
func (m *Module) Functions() []*Function {
	out := make([]*Function, 0, len(m.order))
	for _, n := range m.order {
		out = append(out, m.funcs[n])
	}
	return out
}

// NewDetachedModule builds a module handle that is not backed by a local
// context — the client half of a remote (nvbitd) session. The Function
// handles carry the parameter tables and launch metadata the client needs
// for PackParams; Addr is the server-side load address. GetFunction on a
// detached module resolves locally without firing hooks.
func NewDetachedModule(name string, funcs []*Function) *Module {
	m := &Module{Name: name, funcs: make(map[string]*Function, len(funcs))}
	for _, f := range funcs {
		f.Module = m
		m.funcs[f.Name] = f
		m.order = append(m.order, f.Name)
	}
	return m
}

// GetFunction resolves a kernel by name (cuModuleGetFunction). On a detached
// module it is a plain lookup: there is no local driver to interpose.
func (m *Module) GetFunction(name string) (*Function, error) {
	p := CallParams{Ctx: m.ctx, Module: m}
	lookup := func() error {
		f, ok := m.funcs[name]
		if !ok {
			return fmt.Errorf("driver: module %s has no function %q", m.Name, name)
		}
		p.Func = f
		return nil
	}
	var err error
	if m.ctx == nil {
		err = lookup()
	} else if err = m.ctx.stickyErr(); err == nil {
		err = m.ctx.interposed(CBModuleGetFunction, false, &p, nil, lookup)
	}
	if err != nil {
		return nil, err
	}
	return p.Func, nil
}

// ModuleLoadPTX JIT-compiles embedded PTX for the context's device and loads
// the result — the run-time path of the backend compiler embedded in the GPU
// driver (paper Section 2.2). Compilation needs no device, so it runs before
// the interposed load and outside the gate; a scope that traces still sees
// it, as the first part of the load's activity record.
func (c *Context) ModuleLoadPTX(name, source string) (*Module, error) {
	if err := c.stickyErr(); err != nil {
		return nil, err
	}
	var start time.Duration
	if prof := c.tenant.Collector(); prof != nil {
		start = prof.Now()
	}
	pm, err := ptx.Compile(name, source, c.api.dev.Family())
	if err != nil {
		return nil, err
	}
	return c.loadCompiled(name, pm, false, source != "", start)
}

// ModuleLoadCubin loads a precompiled device binary. The binary must target
// the context's architecture family (there is no SASS compatibility across
// families).
func (c *Context) ModuleLoadCubin(image []byte) (*Module, error) {
	if err := c.stickyErr(); err != nil {
		return nil, err
	}
	cm, err := ParseCubin(image)
	if err != nil {
		return nil, err
	}
	if cm.Family != c.api.dev.Family() {
		return nil, fmt.Errorf("driver: cubin %s targets %v, device is %v", cm.Name, cm.Family, c.api.dev.Family())
	}
	pm := &ptx.Module{Name: cm.Name, Family: cm.Family}
	codec := sass.CodecFor(cm.Family)
	for _, cf := range cm.Funcs {
		insts, err := codec.DecodeAll(cf.Code)
		if err != nil {
			return nil, fmt.Errorf("driver: cubin %s function %s: %w", cm.Name, cf.Name, err)
		}
		pm.Funcs = append(pm.Funcs, &ptx.Func{
			Name:        cf.Name,
			Entry:       cf.Entry,
			Insts:       insts,
			NumRegs:     cf.NumRegs,
			NumPred:     cf.NumPred,
			Params:      cf.Params,
			ParamBytes:  cf.ParamBytes,
			SharedBytes: cf.SharedBytes,
			Relocs:      cf.Relocs,
			Related:     cf.Related,
			Lines:       cf.Lines,
		})
	}
	return c.loadCompiled(cm.Name, pm, true, false, 0)
}

// loadCompiled links a compiled module into device code space (module loads
// write it, so they own the device like launches do) and builds the module's
// function table. A nonzero start is when work on the load began, on the
// scope's collector clock.
func (c *Context) loadCompiled(name string, pm *ptx.Module, fromCubin, withLines bool, start time.Duration) (*Module, error) {
	m := &Module{Name: name, FromCubin: fromCubin, ctx: c, funcs: make(map[string]*Function)}
	p := CallParams{Ctx: c, Module: m}
	rec := profile.Record{Kind: profile.KindModuleLoad, Name: name, Start: start}
	err := c.interposed(CBModuleLoadData, true, &p, &rec, func() error {
		code0 := c.api.dev.Stats().CodeBytesWritten
		placed, err := Link(c.api.dev, pm)
		if err != nil {
			return err
		}
		rec.Bytes = c.api.dev.Stats().CodeBytesWritten - code0
		for i, pf := range pm.Funcs {
			f := &Function{
				Name:        pf.Name,
				Module:      m,
				Entry:       pf.Entry,
				Addr:        placed[i].Addr,
				NumWords:    len(pf.Insts),
				NumRegs:     pf.NumRegs,
				NumPred:     pf.NumPred,
				Params:      pf.Params,
				ParamBytes:  pf.ParamBytes,
				SharedBytes: pf.SharedBytes,
				SourceName:  name,
			}
			if withLines || fromCubin {
				f.Lines = pf.Lines
			}
			m.funcs[pf.Name] = f
			m.order = append(m.order, pf.Name)
		}
		for _, pf := range pm.Funcs {
			f := m.funcs[pf.Name]
			for _, rel := range pf.Related {
				rf, ok := m.funcs[rel]
				if !ok {
					return fmt.Errorf("driver: module %s: missing related function %q", name, rel)
				}
				f.Related = append(f.Related, rf)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.TraceID = rec.ID
	return m, nil
}

// Placed is one function of a linked module: its load address and its body
// with call relocations resolved.
type Placed struct {
	Addr  gpu.CodeAddr
	Insts []sass.Inst
}

// Link loads a compiled module into device code space in two passes: every
// function is placed first, so that calls can then be patched with their
// callee's load address before the bodies are encoded and written. The
// result is parallel to pm.Funcs. Application modules and the NVBit core's
// tool functions are both linked here.
func Link(dev *gpu.Device, pm *ptx.Module) ([]Placed, error) {
	placed := make([]Placed, len(pm.Funcs))
	index := make(map[string]int, len(pm.Funcs))
	for i, pf := range pm.Funcs {
		if _, dup := index[pf.Name]; dup {
			return nil, fmt.Errorf("driver: module %s: duplicate function %q", pm.Name, pf.Name)
		}
		addr, err := dev.AllocCode(len(pf.Insts))
		if err != nil {
			return nil, err
		}
		index[pf.Name] = i
		placed[i] = Placed{Addr: addr, Insts: append([]sass.Inst(nil), pf.Insts...)}
	}
	for i, pf := range pm.Funcs {
		for _, rl := range pf.Relocs {
			target, ok := index[rl.Symbol]
			if !ok {
				return nil, fmt.Errorf("driver: module %s: function %s calls unresolved symbol %q", pm.Name, pf.Name, rl.Symbol)
			}
			placed[i].Insts[rl.InstIdx].Imm = int64(placed[target].Addr)
		}
		raw, err := dev.Codec().EncodeAll(placed[i].Insts)
		if err != nil {
			return nil, fmt.Errorf("driver: module %s: encoding %s: %w", pm.Name, pf.Name, err)
		}
		if err := dev.WriteCode(placed[i].Addr, raw); err != nil {
			return nil, err
		}
	}
	return placed, nil
}
