package driver

import (
	"fmt"
	"time"

	"nvbitgo/internal/gpu"
	"nvbitgo/internal/profile"
	"nvbitgo/internal/ptx"
)

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
	Params      []ptx.Param
	ParamBytes  int
	SharedBytes int
	Related     []*Function // functions this one can call
	Lines       []int32     // per-instruction source lines; nil when stripped
}

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
	cm, err := c.tenant.Compile(name, source)
	if err != nil {
		return nil, err
	}
	return c.load(cm, false, start)
}

// ModuleLoadCubin loads a precompiled device binary.
func (c *Context) ModuleLoadCubin(image []byte) (*Module, error) {
	if err := c.stickyErr(); err != nil {
		return nil, err
	}
	cm, err := ParseCubin(image)
	if err != nil {
		return nil, err
	}
	return c.load(cm, true, 0)
}

// load links a device binary into device code space (module loads write it,
// so they own the device like launches do) and builds the module's function
// table. The binary must target the context's architecture family: there is
// no SASS compatibility across families. A nonzero start is when work on the
// load began, on the scope's collector clock.
func (c *Context) load(cm *Cubin, fromCubin bool, start time.Duration) (*Module, error) {
	if cm.Family != c.api.dev.Family() {
		return nil, fmt.Errorf("driver: cubin %s targets %v, device is %v", cm.Name, cm.Family, c.api.dev.Family())
	}
	m := &Module{Name: cm.Name, FromCubin: fromCubin, ctx: c, funcs: make(map[string]*Function, len(cm.Funcs))}
	p := CallParams{Ctx: c, Module: m}
	rec := profile.Record{Kind: profile.KindModuleLoad, Name: cm.Name, Start: start}
	err := c.interposed(CBModuleLoadData, true, &p, &rec, func() error {
		code0 := c.api.dev.Stats().CodeBytesWritten
		addrs, err := Link(c.api.dev, cm)
		if err != nil {
			return err
		}
		rec.Bytes = c.api.dev.Stats().CodeBytesWritten - code0
		for i, cf := range cm.Funcs {
			m.funcs[cf.Name] = &Function{
				Name:        cf.Name,
				Module:      m,
				Entry:       cf.Entry,
				Addr:        addrs[i],
				NumWords:    len(cf.Code) / cm.Family.InstBytes(),
				NumRegs:     cf.NumRegs,
				NumPred:     cf.NumPred,
				Params:      cf.Params,
				ParamBytes:  cf.ParamBytes,
				SharedBytes: cf.SharedBytes,
				Lines:       cf.Lines,
			}
			m.order = append(m.order, cf.Name)
		}
		for _, cf := range cm.Funcs {
			f := m.funcs[cf.Name]
			for _, rel := range cf.Related {
				f.Related = append(f.Related, m.funcs[rel])
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

// Link loads a device binary, as Assemble or ParseCubin return it, into
// device code space and returns each function's load address, parallel to
// c.Funcs. Application modules and the NVBit core's tool functions are both
// linked here. Every name the module refers to is resolved before code
// space is taken, so a refused module costs none; then the module is placed
// in one allocation, each call relocation is patched with its callee's load
// address and the bytes are written. c's code is never written to, since a
// cached image's bytes are shared by every load of it: a function with
// calls is patched in a scratch copy.
func Link(dev *gpu.Device, c *Cubin) ([]gpu.CodeAddr, error) {
	ib := dev.Codec().InstBytes()
	index := make(map[string]int, len(c.Funcs))
	words := 0
	for i, f := range c.Funcs {
		if _, dup := index[f.Name]; dup {
			return nil, fmt.Errorf("driver: module %s: duplicate function %q", c.Name, f.Name)
		}
		index[f.Name] = i
		words += len(f.Code) / ib
	}
	for _, f := range c.Funcs {
		for _, rl := range f.Relocs {
			if _, ok := index[rl.Symbol]; !ok {
				return nil, fmt.Errorf("driver: module %s: function %s calls unresolved symbol %q", c.Name, f.Name, rl.Symbol)
			}
		}
		for _, rel := range f.Related {
			if _, ok := index[rel]; !ok {
				return nil, fmt.Errorf("driver: module %s: missing related function %q", c.Name, rel)
			}
		}
	}
	addr, err := dev.AllocCode(words)
	if err != nil {
		return nil, fmt.Errorf("driver: module %s: %w", c.Name, err)
	}
	addrs := make([]gpu.CodeAddr, len(c.Funcs))
	for i, f := range c.Funcs {
		addrs[i] = addr
		addr += gpu.CodeAddr(len(f.Code) / ib)
	}
	var scratch []byte
	for i, f := range c.Funcs {
		code := f.Code
		if len(f.Relocs) > 0 {
			scratch = append(scratch[:0], code...)
			code = scratch
		}
		for _, rl := range f.Relocs {
			word := code[rl.InstIdx*ib : (rl.InstIdx+1)*ib]
			if err := dev.Codec().PatchCallTarget(word, int64(addrs[index[rl.Symbol]])); err != nil {
				return nil, fmt.Errorf("driver: module %s: function %s: %w", c.Name, f.Name, err)
			}
		}
		if err := dev.WriteCode(addrs[i], code); err != nil {
			return nil, err
		}
	}
	return addrs, nil
}
