package core

import (
	"fmt"
	"math"

	"nvbitgo/internal/enum"
	"nvbitgo/internal/sass"
)

// IPoint selects where an injected function executes relative to the
// instrumented instruction (paper Listing 5).
type IPoint int

const (
	IPointBefore IPoint = iota
	IPointAfter
)

func (p IPoint) String() string {
	if p == IPointBefore {
		return "IPOINT_BEFORE"
	}
	return "IPOINT_AFTER"
}

type argKind uint8

const (
	argRegVal argKind = iota
	argRegVal64
	argImm32
	argImm64
	argCBank
	argPredVal
	argGuardPred
	argMRefAddr
	argDevPtr
)

// CallArg is one positional argument for an injected function
// (nvbit_add_call_arg). Argument passing is positional and must match the
// signature of the injected device function; the Code Generator validates
// widths and arity against the tool function's parameter table.
type CallArg struct {
	kind    argKind
	pred    sass.Pred
	predNeg bool
	// span and off locate an ArgDevPtr address among the attachment's
	// allocations: the ordinal of the owned span that holds it (-1: none
	// does) and the offset in it, set when the argument is added
	// (AddCallArg). Otherwise off is a constant-bank offset.
	span int32
	reg  int32
	bank int32
	imm  uint64 // a constant, or the address ArgDevPtr passes
	off  int
}

// The unified argument-constructor API (nvbit_add_call_arg variants). Every
// constructor returns a CallArg describing what the trampoline marshals into
// the corresponding positional parameter of the injected device function;
// see docs/tools.md for the mapping from the historical names.

// ArgReg passes the run-time value of a 32-bit register at the
// instrumentation site.
func ArgReg(reg int) CallArg { return CallArg{kind: argRegVal, reg: int32(reg)} }

// ArgReg64 passes the 64-bit value held in the register pair (reg, reg+1).
func ArgReg64(reg int) CallArg { return CallArg{kind: argRegVal64, reg: int32(reg)} }

// ArgConst32 passes a 32-bit constant chosen at instrumentation time.
func ArgConst32(v uint32) CallArg { return CallArg{kind: argImm32, imm: uint64(v)} }

// ArgConst64 passes a 64-bit constant. The cache key holds its value, so a
// device address of tool state goes through ArgDevPtr instead.
func ArgConst64(v uint64) CallArg { return CallArg{kind: argImm64, imm: v} }

// ArgDevPtr passes the device address of tool state the attachment owns: an
// address inside a span from Malloc or inside the control block of a channel
// from OpenChannel. The generated code is what ArgConst64(addr) gives, but
// the cache key holds the span's ordinal in allocation order, its size and
// the offset, not the address, so an attachment whose allocations landed
// elsewhere reuses the code. An address no owned span holds fails code
// generation with an *UnownedAddrError, which errors.As also finds in the
// error of the launch that needed the code.
func ArgDevPtr(addr uint64) CallArg { return CallArg{kind: argDevPtr, imm: addr} }

// ArgConstBank passes a 32-bit value read from a constant bank at run time.
func ArgConstBank(bank, off int) CallArg { return CallArg{kind: argCBank, bank: int32(bank), off: off} }

// ArgPred passes the run-time value (0/1) of a predicate register.
func ArgPred(p sass.Pred, neg bool) CallArg {
	return CallArg{kind: argPredVal, pred: p, predNeg: neg}
}

// ArgSitePred passes the value of the instrumented instruction's own guard
// predicate — the idiom of Listing 8, where the injected function returns
// immediately if the instruction was not actually executing.
func ArgSitePred() CallArg { return CallArg{kind: argGuardPred} }

// ArgMRefAddr passes the 64-bit effective address of the instrumented
// instruction's memory reference, computed at the instrumentation site from
// the saved base register (pair) plus the encoded offset — the
// nvbit_add_call_arg_mref_addr64 analog that memory tools previously had to
// assemble by hand from ArgReg64 and the decoded offset. Instrumenting an
// instruction with no memory operand fails at code generation.
func ArgMRefAddr() CallArg { return CallArg{kind: argMRefAddr} }

// LaunchDim selects one launch-configuration dimension for ArgLaunchDim.
type LaunchDim int

// Launch-configuration dimensions, in constant-bank 0 layout order.
const (
	GridDimX LaunchDim = iota
	GridDimY
	GridDimZ
	BlockDimX
	BlockDimY
	BlockDimZ
)

// ArgLaunchDim passes one grid/block dimension of the current launch, read
// from constant bank 0 where the driver places the launch configuration.
func ArgLaunchDim(d LaunchDim) CallArg {
	return CallArg{kind: argCBank, off: 4 * int(d)}
}

// bytes returns the argument's ABI width.
func (a CallArg) bytes() int {
	if a.kind == argRegVal64 || a.kind == argImm64 || a.kind == argMRefAddr || a.kind == argDevPtr {
		return 8
	}
	return 4
}

// InsertCall injects a call to the named tool device function before or
// after the instruction (nvbit_insert_call). Multiple functions can be
// injected at the same location; they execute in insertion order.
func (n *NVBit) InsertCall(i *Instr, funcName string, where IPoint) {
	p := &i.fs.plan
	if p.calls == nil {
		// Room for a call at every instruction, which is what a tool
		// counting instructions plans.
		p.calls = make([]call, 1, len(i.fs.insts)+1)
	}
	c := int32(len(p.calls))
	p.calls = append(p.calls, call{name: intern(&n.callNames, funcName)})
	i.lastAfter = where != IPointBefore
	switch tail := i.lastCall(); {
	case tail != 0:
		p.calls[tail].next = c
	case i.lastAfter:
		i.after = c
	default:
		i.before = c
	}
	i.fs.dirty = true
}

// lastCall returns the link to the last call of the list, before or after,
// the instruction's latest InsertCall chose: the call AddCallArg extends. It
// is 0 when that list is empty.
func (i *Instr) lastCall() int32 {
	c := i.before
	if i.lastAfter {
		c = i.after
	}
	if c != 0 {
		for calls := i.fs.plan.calls; calls[c].next != 0; c = calls[c].next {
		}
	}
	return c
}

// intern returns v's index in *table, appending v when it is new. Its tables
// are a tool's device functions and a function's tool functions and tool
// state addresses, a handful each, so the search is linear.
func intern[T comparable](table *[]T, v T) int32 {
	for k, have := range *table {
		if have == v {
			return int32(k)
		}
	}
	*table = append(*table, v)
	return int32(len(*table) - 1)
}

// AddCallArg appends a positional argument to the most recently inserted
// call on this instruction (nvbit_add_call_arg).
func (n *NVBit) AddCallArg(i *Instr, a CallArg) {
	c := i.lastCall()
	if c == 0 {
		panic("nvbit: AddCallArg before InsertCall")
	}
	if a.kind == argDevPtr {
		a.span, a.off = n.ownerOf(a.imm)
	}
	i.fs.plan.addArg(c, a, len(i.fs.insts))
}

// addArg appends a to the arguments of call c. They grow in place at the end
// of the last chunk, and otherwise move there first: a call inserted after c
// took arguments since, or the chunk is full. Every chunk holds first
// arguments, or the run if it is longer, so the table never copies a chunk to
// grow and wastes less than one chunk.
func (p *plan) addArg(c int32, a CallArg, first int) {
	k := &p.calls[c]
	if k.n == math.MaxUint16 {
		panic("nvbit: AddCallArg past 65535 arguments")
	}
	last := len(p.args) - 1
	atEnd := last >= 0 && int(k.chunk) == last && int(k.off)+int(k.n) == len(p.args[last])
	if !atEnd || len(p.args[last]) == cap(p.args[last]) {
		run := p.argsOf(c)
		if last < 0 || cap(p.args[last])-len(p.args[last]) <= len(run) {
			if len(p.args) > math.MaxUint16 {
				panic("nvbit: AddCallArg past 65536 argument chunks")
			}
			p.args = append(p.args, make([]CallArg, 0, max(first, len(run)+1)))
			last++
		}
		k.chunk, k.off = uint16(last), int32(len(p.args[last]))
		p.args[last] = append(p.args[last], run...)
	}
	p.args[last] = append(p.args[last], a)
	k.n++
}

// InsertCallArgs is a convenience combining InsertCall and AddCallArg.
func (n *NVBit) InsertCallArgs(i *Instr, funcName string, where IPoint, args ...CallArg) {
	n.InsertCall(i, funcName, where)
	for _, a := range args {
		n.AddCallArg(i, a)
	}
}

// count returns the length of the list of calls that starts at link c.
func (p *plan) count(c int32) int {
	n := 0
	for ; c != 0; c = p.calls[c].next {
		n++
	}
	return n
}

// RemoveOrig removes the original instruction, keeping any injected calls
// (nvbit_remove_orig) — the mechanism behind instruction emulation
// (Section 6.3), where the injected function supersedes the instruction.
func (n *NVBit) RemoveOrig(i *Instr) {
	i.removeOrig = true
	i.fs.dirty = true
}

// InjectionMode selects how the Code Generator materializes injected tool
// calls at instrumented sites.
type InjectionMode int

const (
	// InjectTrampoline (the default) jumps to a per-visit trampoline that
	// saves the liveness-minimal register set, marshals arguments, calls the
	// tool function and restores (paper Section 5.1).
	InjectTrampoline InjectionMode = iota
	// InjectFullSave is the ablation baseline: trampolines that save the
	// entire register file regardless of per-site liveness.
	InjectFullSave
	// InjectInline splices eligible tool bodies directly into the relocated
	// stream, renamed into registers liveness proved dead at the visit — no
	// save/restore, no call. Visits that cannot inline (indirect control
	// flow, a body that cannot be spliced, a dead set too small) fall back
	// to trampolines as a whole.
	InjectInline
)

var injectionModeNames = []string{"trampoline", "full-save", "inline"}

func (m InjectionMode) String() string { return enum.Name(injectionModeNames, "InjectionMode", m) }

// ParseInjectionMode converts a flag-style mode name ("trampoline",
// "full-save", "inline") into an InjectionMode.
func ParseInjectionMode(s string) (InjectionMode, error) {
	return enum.Parse[InjectionMode](injectionModeNames, "injection mode", s)
}

// hasWork reports whether the instruction carries instrumentation requests.
func (i *Instr) hasWork() bool {
	return i.before != 0 || i.after != 0 || i.removeOrig
}

// UnownedAddrError is the code-generation error for an ArgDevPtr address
// that lies in no span the attachment owns.
type UnownedAddrError struct {
	Func  string // the tool function
	Arg   int    // the argument's position
	Param string // and its parameter name
	Addr  uint64
}

func (e *UnownedAddrError) Error() string {
	return fmt.Sprintf("nvbit: tool function %s argument %d (%s): ArgDevPtr address %#x lies in no allocation of the attachment (Malloc or a channel)",
		e.Func, e.Arg, e.Param, e.Addr)
}

func validateArgs(tf *toolFunc, args []CallArg) error {
	if len(args) != len(tf.params) {
		return fmt.Errorf("tool function %s takes %d arguments, got %d", tf.name, len(tf.params), len(args))
	}
	for k, a := range args {
		if a.bytes() != tf.params[k].Bytes {
			return fmt.Errorf("tool function %s argument %d (%s) is %d bytes, got %d",
				tf.name, k, tf.params[k].Name, tf.params[k].Bytes, a.bytes())
		}
		if a.kind == argDevPtr && a.span < 0 {
			return &UnownedAddrError{Func: tf.name, Arg: k, Param: tf.params[k].Name, Addr: a.imm}
		}
	}
	return nil
}
