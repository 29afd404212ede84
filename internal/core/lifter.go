package core

import (
	"fmt"
	"time"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/sass"
)

// Instr abstracts one machine-level SASS instruction (paper Listing 4). The
// Instruction Lifter produces exactly one Instr per SASS instruction; the
// mapping is one-to-one and cached per function, so instrumentation state
// sticks to the Instr across repeated inspections.
type Instr struct {
	fs  *funcState
	idx int32 // word index within the function

	// Instrumentation requests (consumed by the Code Generator): links into
	// the function's plan to the first call injected before and after the
	// instruction, and whether the call inserted last is an after-call.
	before, after int32
	lastAfter     bool
	removeOrig    bool
}

// plan is a function's instrumentation plan. An instruction's calls at one
// IPoint are a list through call.next in insertion order; calls[0] is never a
// call, so a link of 0 is the end of a list. A call's arguments are one run in
// one chunk of args (addArg).
type plan struct {
	calls []call
	args  [][]CallArg
}

// call is one injected call.
type call struct {
	name  int32 // the tool function, an index into NVBit.callNames
	next  int32 // the next call at the same instruction and IPoint
	off   int32 // its arguments: n of them from args[chunk][off]
	n     uint16
	chunk uint16
}

// argsOf returns the arguments of call c.
func (p *plan) argsOf(c int32) []CallArg {
	k := &p.calls[c]
	if k.n == 0 {
		return nil
	}
	end := k.off + int32(k.n)
	return p.args[k.chunk][k.off:end:end]
}

// funcState is the per-CUfunction instrumentation state.
type funcState struct {
	f         *driver.Function
	insts     []*Instr
	raw       []sass.Inst    // decoded body, input to the liveness pass
	live      *sass.Liveness // lazily computed by liveness()
	text      string         // the function's disassembly, built at lift time
	textEnds  []int32        // where each instruction's piece of text ends
	blocks    []BasicBlock
	hasICF    bool
	instBytes int

	instrumented    bool   // Code Generator has produced instrumented code
	enabled         bool   // which version the tool wants resident
	enabledExplicit bool   // the tool called EnableInstrumented itself
	resident        bool   // which version is actually resident on device
	dirty           bool   // instrumentation requests not yet generated
	origCode        []byte // pristine copy in system memory
	instrCode       []byte // instrumented copy (same size, same load address)
	plan            plan   // the injected calls, kept after generation
}

// BasicBlock is one uninterrupted instruction sequence (paper Section 4).
type BasicBlock struct {
	Instrs []*Instr
}

func (n *NVBit) state(f *driver.Function) (*funcState, error) {
	if fs, ok := n.funcs[f]; ok {
		return fs, nil
	}
	if n.hal == nil {
		return nil, fmt.Errorf("nvbit: no context initialized (HAL unavailable)")
	}
	fs := &funcState{f: f, instBytes: n.hal.InstBytes}

	// Phase 1: retrieve the original code bytes from device memory.
	t0 := time.Now()
	raw, err := n.Device().ReadCode(f.Addr, f.NumWords)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	n.stats.Retrieve += t1.Sub(t0)
	fs.origCode = raw

	// Phase 2: disassemble into the internal representation. Like the
	// real framework — whose lifter drives the nvdisasm-equivalent and
	// consumes its textual output — disassembly materializes the SASS
	// text alongside the decoded form (the dominant JIT phase in the
	// paper's Figure 5 breakdown) and finds the basic-block partition. The
	// function's text is rendered into one buffer and becomes one string
	// that each instruction's is a piece of (GetSASS).
	insts, err := n.hal.Codec().DecodeAll(raw)
	if err != nil {
		return nil, fmt.Errorf("nvbit: disassembling %s: %w", f.Name, err)
	}
	buf := make([]byte, 0, 32*len(insts))
	fs.textEnds = make([]int32, len(insts))
	for i, in := range insts {
		buf = sass.AppendFormat(buf, in)
		fs.textEnds[i] = int32(len(buf))
	}
	fs.text = string(buf)
	ranges, ok := sass.BasicBlocks(insts)
	fs.hasICF = !ok
	t2 := time.Now()
	n.stats.Disassemble += t2.Sub(t1)

	// Phase 3: convert to the user-facing Instr form, including the
	// structured operand views and the basic-block partition.
	fs.raw = insts
	fs.insts = make([]*Instr, len(insts))
	backing := make([]Instr, len(insts))
	for i := range insts {
		backing[i] = Instr{fs: fs, idx: int32(i)}
		fs.insts[i] = &backing[i]
	}
	for _, r := range ranges {
		fs.blocks = append(fs.blocks, BasicBlock{Instrs: fs.insts[r.Start:r.End]})
	}
	t3 := time.Now()
	n.stats.Convert += t3.Sub(t2)
	n.liftTime += t3.Sub(t0)
	n.stats.FunctionsLifted++
	n.stats.InstrsLifted += len(insts)

	n.funcs[f] = fs
	n.lifted = append(n.lifted, fs)
	return fs, nil
}

// GetInstrs returns the function body as a flat vector of instructions in
// program order (nvbit_get_instrs).
func (n *NVBit) GetInstrs(f *driver.Function) ([]*Instr, error) {
	fs, err := n.state(f)
	if err != nil {
		return nil, err
	}
	return fs.insts, nil
}

// GetBasicBlocks returns the function body as basic blocks
// (nvbit_get_basic_blocks). When the function contains indirect control flow
// the basic-block view is unavailable and callers must fall back to the flat
// view, as described in Section 4.
func (n *NVBit) GetBasicBlocks(f *driver.Function) ([]BasicBlock, error) {
	fs, err := n.state(f)
	if err != nil {
		return nil, err
	}
	if fs.hasICF {
		return nil, fmt.Errorf("nvbit: %s contains indirect control flow; use the flat view", f.Name)
	}
	return fs.blocks, nil
}

// GetRelatedFuncs returns the device functions the kernel can call
// (nvbit_get_related_funcs).
func (n *NVBit) GetRelatedFuncs(f *driver.Function) []*driver.Function {
	return f.Related
}

// liveness returns the function's register-liveness analysis, computing it
// on first use. Functions with indirect control flow get the conservative
// all-live instance.
func (fs *funcState) liveness() *sass.Liveness {
	if fs.live == nil {
		fs.live = sass.AnalyzeLiveness(fs.raw)
	}
	return fs.live
}

// LiveRegs returns the general-purpose registers live at the instruction's
// site: everything live into or out of the instruction plus its own operands,
// clipped to the function's register requirement. conservative is true when
// the function contains indirect control flow and the analysis fell back to
// treating every register as live (the set then covers R0..MaxRegs-1). This
// is the per-site set the Code Generator preserves around injected calls.
func (n *NVBit) LiveRegs(i *Instr) (regs sass.RegSet, conservative bool) {
	live := i.fs.liveness()
	bound := sass.RegRange(i.fs.f.MaxRegs())
	if live.Conservative() {
		return bound, true
	}
	rs, _ := live.SiteLive(int(i.idx))
	return rs.Intersect(bound), false
}

// IsInstrumented reports whether the Code Generator has already produced
// instrumented code for the function (the "have we seen this kernel"
// check of Listing 1).
func (n *NVBit) IsInstrumented(f *driver.Function) bool {
	fs, ok := n.funcs[f]
	return ok && fs.instrumented
}

// --- Instr inspection methods (Listing 4) -----------------------------------

// Idx returns the instruction's index within the function body.
func (i *Instr) Idx() int { return int(i.idx) }

// Offset returns the instruction's byte offset within the function.
func (i *Instr) Offset() int { return int(i.idx) * i.fs.instBytes }

// GetSASS returns the disassembled text of the instruction.
func (i *Instr) GetSASS() string {
	start, ends := int32(0), i.fs.textEnds
	if i.idx > 0 {
		start = ends[i.idx-1]
	}
	return i.fs.text[start:ends[i.idx]]
}

// GetOpcode returns the mnemonic, e.g. "IADD" or "LDG".
func (i *Instr) GetOpcode() string { return i.inst().Op.String() }

// Op returns the raw opcode.
func (i *Instr) Op() sass.Opcode { return i.inst().Op }

// inst is the decoded machine instruction, the function's own copy.
func (i *Instr) inst() *sass.Inst { return &i.fs.raw[i.idx] }

// Raw returns the decoded machine instruction.
func (i *Instr) Raw() sass.Inst { return *i.inst() }

// GetMemOpSpace returns the memory space accessed (Instr::getMemOpType).
func (i *Instr) GetMemOpSpace() sass.MemSpace { return i.inst().Op.MemOpSpace() }

// IsLoad reports whether the instruction loads from memory.
func (i *Instr) IsLoad() bool { return i.inst().Op.IsLoad() }

// IsStore reports whether the instruction stores to memory.
func (i *Instr) IsStore() bool { return i.inst().Op.IsStore() }

// IsControlFlow reports whether the instruction redirects the PC.
func (i *Instr) IsControlFlow() bool { return i.inst().Op.IsControlFlow() }

// GetNumOperands returns the operand count.
func (i *Instr) GetNumOperands() int { return len(i.inst().Operands()) }

// GetOperand returns the n-th structured operand, destination first.
func (i *Instr) GetOperand(k int) (sass.Operand, bool) {
	o := i.inst().Operands()
	if k < 0 || k >= len(o) {
		return sass.Operand{}, false
	}
	return o[k], true
}

// MemOperand returns the instruction's memory-reference operand, if any.
func (i *Instr) MemOperand() (sass.Operand, bool) { return i.inst().MemOperand() }

// GetPredicate returns the guard predicate and its negation; guarded is
// false for unguarded (@PT) instructions.
func (i *Instr) GetPredicate() (p sass.Pred, neg, guarded bool) {
	return i.inst().Pred, i.inst().PredNeg, i.inst().Guarded()
}

// GetLineInfo correlates the instruction with application source (module
// name and line), provided line information was not stripped from the binary.
func (i *Instr) GetLineInfo() (file string, line int, ok bool) {
	f := i.fs.f
	if len(f.Lines) != len(i.fs.insts) || int(i.idx) >= len(f.Lines) {
		return "", 0, false
	}
	return f.Module.Name, int(f.Lines[i.idx]), true
}

// Function returns the CUfunction the instruction belongs to.
func (i *Instr) Function() *driver.Function { return i.fs.f }
