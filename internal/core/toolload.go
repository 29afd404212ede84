package core

import (
	"fmt"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/ptx"
	"nvbitgo/internal/sass"
)

// toolFunc is one loaded tool device function, recorded in the injection
// function map: name, attributes (register budget, parameter table) and the
// location where its code was loaded in GPU memory (paper Section 5.1,
// "Tool Functions Loader").
type toolFunc struct {
	name    string
	addr    gpu.CodeAddr
	numRegs int
	params  []ptx.Param // Offset = ABI register index
	insts   []sass.Inst // resolved body, kept for inline splicing

	// Facts about the body, worked out once when it is loaded; the inline
	// splice, the visit coalescer and the argument-reuse check read them at
	// every site.
	footprint sass.Footprint // what a splice renames (sass.BodyFootprint)
	// inlinable: the footprint exists. The body is self-contained: it neither
	// reads nor writes the interrupted thread's saved image or the save
	// frame, nor leaves through a call or jump, so it can be spliced, and
	// what it sees does not depend on where it runs.
	inlinable bool
	// keepsParams: the body leaves its ABI parameter registers as the
	// marshalling set them, so a constant argument survives to the next call.
	keepsParams bool
	// ordered: the body takes a value back from an atomic or exchanges values
	// across the warp, so its result depends on which calls ran before it.
	ordered bool
	// loads: the body reads memory, which a store it crossed would have
	// changed.
	loads bool
}

// pinned reports whether a call to tf must run at its own site; inlinable,
// ordered and loads are the three facts that decide whether one may run
// earlier (docs/tools.md, "What the code generator may move").
func (tf *toolFunc) pinned() bool { return !tf.inlinable || tf.ordered }

// setBodyFacts fills in the facts about tf's body.
func (tf *toolFunc) setBodyFacts() {
	tf.footprint, tf.inlinable = sass.BodyFootprint(tf.insts)
	var writes, params sass.RegSet
	for _, in := range tf.insts {
		switch in.Op {
		case sass.OpATOM, sass.OpSHFL, sass.OpVOTE, sass.OpMATCH:
			tf.ordered = true
		}
		tf.loads = tf.loads || in.Op.IsLoad() && in.Op != sass.OpLDC
		defs, _, _, _ := sass.DefUse(in)
		writes = writes.Union(defs)
	}
	for _, pr := range tf.params {
		params.AddRange(sass.Reg(pr.Offset), pr.Bytes/4)
	}
	tf.keepsParams = tf.inlinable && writes.Intersect(params).Empty()
}

// toolLoader is the Tool Functions Loader. It compiles and loads the tool's
// device functions (which the driver is unaware of), and also loads the
// pre-built save/restore routines embedded in the framework — a fixed set,
// each targeting a specific number of general-purpose registers.
type toolLoader struct {
	n        *NVBit
	sources  []string
	compiled bool
	funcs    map[string]*toolFunc
	saves    map[int][2]gpu.CodeAddr // frame size -> save, restore (saveRestore)

	// Bulk trampoline allocator (Section 5.1: trampoline space is
	// allocated in bulk by a custom allocator).
	trampCur  gpu.CodeAddr
	trampLeft int
}

const trampChunkWords = 4096

func newToolLoader(n *NVBit) *toolLoader {
	return &toolLoader{
		n:     n,
		funcs: make(map[string]*toolFunc),
		saves: make(map[int][2]gpu.CodeAddr),
	}
}

// RegisterToolPTX registers the PTX source of one or more tool device
// functions (the analog of compiling a .cu tool file with NVCC and marking
// its functions with NVBIT_EXPORT_DEV_FUNCTION). Compilation and loading
// happen lazily once a context exists, since SASS is family-specific.
func (n *NVBit) RegisterToolPTX(src string) error {
	if n.loader.compiled {
		return fmt.Errorf("nvbit: tool functions already loaded; register before the first instrumentation")
	}
	n.loader.sources = append(n.loader.sources, src)
	return nil
}

// lookup compiles and loads all registered tool sources on first use, then
// resolves the named function.
func (l *toolLoader) lookup(name string) (*toolFunc, error) {
	if !l.compiled {
		if l.n.hal == nil {
			return nil, fmt.Errorf("nvbit: tool functions requested before any context exists")
		}
		for i, src := range l.sources {
			if err := l.loadSource(fmt.Sprintf("tool%d", i), src); err != nil {
				return nil, err
			}
		}
		l.compiled = true
	}
	tf, ok := l.funcs[name]
	if !ok {
		return nil, fmt.Errorf("nvbit: unknown tool device function %q", name)
	}
	return tf, nil
}

func (l *toolLoader) loadSource(modName, src string) error {
	dev := l.n.Device()
	cm, err := l.n.scope.Compile(modName, src)
	if err != nil {
		return fmt.Errorf("nvbit: compiling tool functions: %w", err)
	}
	for _, f := range cm.Funcs {
		if f.Entry {
			return fmt.Errorf("nvbit: tool source declares kernel %q; tool functions must be .toolfunc or .func", f.Name)
		}
		if _, dup := l.funcs[f.Name]; dup {
			return fmt.Errorf("nvbit: duplicate tool function %q", f.Name)
		}
	}
	// The driver is unaware of these functions, but they are linked into
	// code space exactly as its modules are.
	addrs, err := driver.Link(dev, cm)
	if err != nil {
		return fmt.Errorf("nvbit: loading tool functions: %w", err)
	}
	for i, f := range cm.Funcs {
		// Inlining splices the bodies, so they are read back from device
		// memory and disassembled, calls resolved, as the lifter does.
		raw, err := dev.ReadCode(addrs[i], len(f.Code)/dev.Codec().InstBytes())
		if err != nil {
			return err
		}
		insts, err := dev.Codec().DecodeAll(raw)
		if err != nil {
			return fmt.Errorf("nvbit: disassembling tool function %s: %w", f.Name, err)
		}
		tf := &toolFunc{
			name:    f.Name,
			addr:    addrs[i],
			numRegs: f.NumRegs,
			params:  f.Params,
			insts:   insts,
		}
		tf.setBodyFacts()
		l.funcs[f.Name] = tf
	}
	return nil
}

// saveRestore returns (loading on demand) the pre-built save and restore
// routines covering n general-purpose registers. The save routine pushes a
// frame and stores R0..R(n-1), the predicate bank and — on ABI v2 — the
// convergence-barrier state; the restore routine, right after it, is its
// exact inverse.
func (l *toolLoader) saveRestore(nRegs int) (save, restore gpu.CodeAddr, err error) {
	if r, ok := l.saves[nRegs]; ok {
		return r[0], r[1], nil
	}
	hal := l.n.hal
	// The save routine, then the restore routine, encoded as they are
	// appended: a frame needs one routine pair per register count, so a
	// device holds several, and encoding them costs only their bytes.
	ib := hal.Codec().InstBytes()
	raw := make([]byte, 0, (2*nRegs+8)*ib)
	add := func(in sass.Inst) {
		if n := len(raw); err == nil {
			raw = raw[:n+ib]
			err = hal.Codec().Encode(in, raw[n:])
		}
	}
	push := sass.NewInst(sass.OpSAVEPUSH)
	push.Imm = int64(nRegs)
	add(push)
	for r := 0; r < nRegs; r++ {
		in := sass.NewInst(sass.OpSTSA)
		in.Imm, in.Src1 = int64(r), sass.Reg(r)
		add(in)
	}
	add(sass.NewInst(sass.OpSTSP))
	if hal.SaveBarrierState {
		add(sass.NewInst(sass.OpSTSB))
	}
	add(sass.NewInst(sass.OpRET))
	nSave := len(raw) / ib

	if hal.SaveBarrierState {
		add(sass.NewInst(sass.OpLDSB))
	}
	add(sass.NewInst(sass.OpLDSP))
	for r := 0; r < nRegs; r++ {
		in := sass.NewInst(sass.OpLDSA)
		in.Dst, in.Imm = sass.Reg(r), int64(r)
		add(in)
	}
	add(sass.NewInst(sass.OpSAVEPOP))
	add(sass.NewInst(sass.OpRET))

	// Encode both routines before touching device state, then place and
	// write them together: a codec error costs no device code space, an
	// allocation failure leaks nothing, and the cache only ever records the
	// save/restore addresses as a pair. They are carved out of trampoline
	// space, so a routine built for a new register count mid-run lands in
	// code the device already backs.
	if err != nil {
		return 0, 0, err
	}
	s, err := l.allocTramp(len(raw) / ib)
	if err != nil {
		return 0, 0, err
	}
	if err := l.n.Device().WriteCode(s, raw); err != nil {
		return 0, 0, err
	}
	l.saves[nRegs] = [2]gpu.CodeAddr{s, s + gpu.CodeAddr(nSave)}
	return s, s + gpu.CodeAddr(nSave), nil
}

// allocTramp carves trampoline space out of bulk chunks.
func (l *toolLoader) allocTramp(words int) (gpu.CodeAddr, error) {
	if words > l.trampLeft {
		chunk := trampChunkWords
		if words > chunk {
			chunk = words
		}
		base, err := l.n.Device().AllocCode(chunk)
		if err != nil {
			return 0, err
		}
		l.trampCur, l.trampLeft = base, chunk
	}
	addr := l.trampCur
	l.trampCur += gpu.CodeAddr(words)
	l.trampLeft -= words
	return addr, nil
}
