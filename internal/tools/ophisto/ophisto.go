// Package ophisto implements the Section 6.2 tool: a histogram of executed
// instructions by opcode, with optional kernel sampling.
//
// In sampling mode the tool instruments every kernel but runs the
// instrumented version only once per unique (function, grid dimensions)
// pair, selecting the resident code version with nvbit_enable_instrumented
// before each launch. Counts from the instrumented execution are scaled by
// the number of launches sharing the key to approximate the uninstrumented
// executions — exact whenever control flow depends only on grid dimensions.
package ophisto

import (
	"fmt"
	"sort"

	"nvbitgo/internal/gpu"
	"nvbitgo/internal/sass"
	"nvbitgo/nvbit"
)

// The tally reads the current counter-block pointer through a fixed cell so
// one instrumentation serves every (function, grid) key: the host retargets
// the cell before each instrumented launch.
const toolPTX = `
.toolfunc ophisto_tally(.param .u64 basecell, .param .u32 off)
{
	.reg .u32 %r<2>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd0, [basecell];
	ld.global.u64 %rd2, [%rd0];
	ld.param.u32 %r0, [off];
	cvt.u64.u32 %rd4, %r0;
	add.u64 %rd2, %rd2, %rd4;
	mov.u64 %rd6, 1;
	red.global.add.u64 [%rd2], %rd6;
	ret;
}
`

type launchKey struct {
	f    *nvbit.Function
	grid gpu.Dim3
}

type keyState struct {
	block    uint64 // device counter block, one u64 per opcode
	launches uint64
}

// Tool builds the opcode histogram.
type Tool struct {
	// Sampling enables the grid-dimension kernel-sampling policy.
	Sampling bool

	basecell uint64
	keys     map[launchKey]*keyState
}

// New returns a fresh opcode-histogram tool.
func New(sampling bool) *Tool {
	return &Tool{Sampling: sampling, keys: make(map[launchKey]*keyState)}
}

// AtInit registers the device function and allocates the base cell.
func (t *Tool) AtInit(n *nvbit.NVBit) {
	if err := n.RegisterToolPTX(toolPTX); err != nil {
		panic(err)
	}
	var err error
	if t.basecell, err = n.Malloc(8); err != nil {
		panic(err)
	}
}

// AtTerm implements the Tool interface.
func (t *Tool) AtTerm(n *nvbit.NVBit) {}

// AtCUDACall handles launch-entry events.
func (t *Tool) AtCUDACall(n *nvbit.NVBit, exit bool, cbid nvbit.CBID, name string, p *nvbit.CallParams) {
	if exit || cbid != nvbit.CBLaunchKernel {
		return
	}
	f := p.Launch.Func
	key := launchKey{f, p.Launch.Grid}
	ks := t.keys[key]
	if ks == nil {
		block, err := n.Malloc(8 * uint64(sass.NumOpcodes))
		if err != nil {
			panic(err)
		}
		zero := make([]byte, 8*sass.NumOpcodes)
		if err := n.Device().Write(block, zero); err != nil {
			panic(err)
		}
		ks = &keyState{block: block}
		t.keys[key] = ks
	}
	ks.launches++

	if !n.IsInstrumented(f) {
		insts, err := n.GetInstrs(f)
		if err != nil {
			panic(fmt.Sprintf("ophisto: %v", err))
		}
		for _, i := range insts {
			n.InsertCallArgs(i, "ophisto_tally", nvbit.IPointBefore,
				nvbit.ArgDevPtr(t.basecell),
				nvbit.ArgConst32(uint32(i.Op())*8))
		}
	}

	instrumentThisLaunch := true
	if t.Sampling {
		instrumentThisLaunch = ks.launches == 1
	}
	if err := n.EnableInstrumented(f, instrumentThisLaunch); err != nil {
		panic(err)
	}
	if instrumentThisLaunch {
		// Retarget the counter block for this key before the kernel runs.
		if err := n.WriteU64(t.basecell, ks.block); err != nil {
			panic(err)
		}
	}
}

// Counts returns the per-opcode totals. In sampling mode each key's counts
// are scaled by its launch count (the approximation of Section 6.2); in full
// mode the blocks already hold exact totals.
func (t *Tool) Counts(n *nvbit.NVBit) map[string]uint64 {
	out := make(map[string]uint64)
	for _, ks := range t.keys {
		scale := uint64(1)
		if t.Sampling {
			scale = ks.launches
		}
		for op := 0; op < sass.NumOpcodes; op++ {
			v, err := n.ReadU64(ks.block + uint64(op)*8)
			if err != nil {
				panic(err)
			}
			if v != 0 {
				out[sass.Opcode(op).String()] += v * scale
			}
		}
	}
	return out
}

// Entry is one histogram row.
type Entry struct {
	Opcode string
	Count  uint64
}

// Top returns the k most-executed opcodes, descending.
func (t *Tool) Top(n *nvbit.NVBit, k int) []Entry {
	counts := t.Counts(n)
	entries := make([]Entry, 0, len(counts))
	for op, c := range counts {
		entries = append(entries, Entry{op, c})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Count != entries[j].Count {
			return entries[i].Count > entries[j].Count
		}
		return entries[i].Opcode < entries[j].Opcode
	})
	if k < len(entries) {
		entries = entries[:k]
	}
	return entries
}

var _ nvbit.Tool = (*Tool)(nil)
