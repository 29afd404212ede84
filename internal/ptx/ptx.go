// Package ptx implements the PTX-flavoured virtual instruction set and the
// backend compiler (the ptxas / driver-JIT analog) that lowers it to binary
// synthetic SASS for a target GPU family.
//
// Real CUDA front-end compilers emit PTX, a stable virtual ISA; a backend
// compiler — invoked ahead of time by ptxas or at run time by the driver's
// JIT — performs register allocation and translates it into family-specific
// SASS. This package reproduces that pipeline for the subset of PTX the
// reproduction's workloads and NVBit tools need: typed virtual registers,
// predication, control flow, global/shared/param/const memory, atomics, warp
// intrinsics, device-function calls, and the hypothetical wfft32 proxy
// instruction from the paper's Section 6.3.
//
// The dialect (see the parser for the grammar) looks like:
//
//	.visible .entry saxpy(.param .u64 x, .param .u64 y, .param .f32 a, .param .u32 n)
//	{
//	    .reg .u32 %r<8>;
//	    .reg .u64 %rd<4>;
//	    .reg .f32 %f<4>;
//	    .reg .pred %p<2>;
//	    mov.u32  %r0, %ctaid.x;
//	    mov.u32  %r1, %ntid.x;
//	    mov.u32  %r2, %tid.x;
//	    mad.lo.u32 %r3, %r0, %r1, %r2;
//	    ld.param.u32 %r4, [n];
//	    setp.ge.u32 %p0, %r3, %r4;
//	    @%p0 exit;
//	    ...
//	}
package ptx

import (
	"fmt"

	"nvbitgo/internal/sass"
)

// RegClass classifies a virtual register.
type RegClass int

const (
	ClassB32  RegClass = iota // 32-bit integer or float bits
	ClassB64                  // 64-bit, lowered to an aligned register pair
	ClassPred                 // predicate
)

// Param is one kernel or device-function parameter.
type Param struct {
	Name   string
	Bytes  int // 4 or 8
	Offset int // byte offset in the parameter constant bank (entries)
}

// Reloc records a CAL instruction whose absolute target is a module-level
// symbol resolved by the loader at module-load time.
type Reloc struct {
	InstIdx int
	Symbol  string
}

// Func is one compiled function: family-specific SASS plus its metadata.
type Func struct {
	FuncInfo
	Insts []sass.Inst
}

// FuncInfo is a compiled function's metadata: what the CUDA-driver analog
// records at load and the NVBit core later consumes. A device binary carries
// it beside each function's encoded code.
type FuncInfo struct {
	Name    string
	Entry   bool // .entry (kernel) vs .func (device function)
	NumRegs int  // general-purpose registers used (the register budget)
	NumPred int  // predicate registers used
	Params  []Param
	// ParamBytes is the size of the parameter block (constant bank 1).
	ParamBytes  int
	SharedBytes int
	Relocs      []Reloc
	Related     []string // device functions this function calls
	// Lines maps each SASS instruction to the PTX source line that
	// produced it — the data behind Instr::getLineInfo.
	Lines []int32
}

// Module is the result of compiling one PTX translation unit.
type Module struct {
	Name   string
	Family sass.Family
	Funcs  []*Func
}

// CompilerVersion names the code Compile emits. A store of compiled modules
// keys them by it, so it changes whenever Compile's output for some source
// does: testdata/compile_golden.txt pins that output, and a test fails when
// the golden is re-recorded under an unchanged version.
const CompilerVersion = 1

// Compile parses and compiles a PTX source for the target family.
func Compile(name, src string, family sass.Family) (*Module, error) {
	pm, err := parse(src)
	if err != nil {
		return nil, fmt.Errorf("ptx: %s: %w", name, err)
	}
	m := &Module{Name: name, Family: family, Funcs: make([]*Func, 0, len(pm.funcs))}
	for _, pf := range pm.funcs {
		f, err := compileFunc(pm, pf, family)
		if err != nil {
			return nil, fmt.Errorf("ptx: %s: function %s: %w", name, pf.name, err)
		}
		m.Funcs = append(m.Funcs, f)
	}
	// Validate local symbol references (relocations may also target other
	// modules' functions; those stay unresolved until load time).
	return m, nil
}

// deviceABI describes the synthetic calling convention (see DESIGN.md):
// arguments and return values in R4.., with device-function locals allocated
// from calleeRegBase upward so a depth-1 call never clobbers caller state.
const (
	abiArgBase    = 4  // first argument register
	abiMaxArgs    = 12 // R4..R15
	calleeRegBase = 64
)
