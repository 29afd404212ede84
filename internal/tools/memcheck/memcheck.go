// Package memcheck is a device-memory validity checker — the
// compute-sanitizer/cuda-memcheck analog the paper names as the canonical
// "error checking" use of dynamic binary instrumentation (Section 1: tools
// built on frameworks like NVBit "range from ... error checking" to
// simulators).
//
// Every global load, store and atomic of every instrumented kernel reaches
// it through the memaccess stream: one record per executing lane — the
// effective 64-bit address, the static site and the lane — streamed
// device→host over a channel. At the entry of each cuLaunchKernel driver
// callback the host snapshots the device's allocation table; the records,
// delivered by the framework's launch-exit drain, are validated against it:
// an access that falls outside every live allocation is a violation, and one
// that lands inside a freed span is classified as a use-after-free. The simulated hardware only traps accesses outside the
// heap entirely, so memcheck catches exactly the bugs the device cannot:
// off-by-one overruns into a neighbouring allocation, reads through stale
// pointers, and writes into the allocator's recycled memory.
package memcheck

import (
	"fmt"
	"io"
	"sort"

	"nvbitgo/internal/tools/memaccess"
	"nvbitgo/nvbit"
)

// Kind classifies a violation.
type Kind int

const (
	// OutOfAllocation: the access touches heap bytes no live allocation
	// covers (including an access that starts inside an allocation and
	// runs off its end).
	OutOfAllocation Kind = iota
	// UseAfterFree: the access lands inside a span that was freed and not
	// since reallocated.
	UseAfterFree
)

func (k Kind) String() string {
	if k == UseAfterFree {
		return "use-after-free"
	}
	return "out-of-allocation"
}

// Violation is one invalid access, with full provenance back to the static
// instruction that issued it.
type Violation struct {
	Kind    Kind
	Addr    uint64 // effective lane address
	Width   int    // access width in bytes
	Lane    int    // executing lane
	Kernel  string // kernel the site belongs to
	InstIdx int    // static instruction index within the kernel
	SASS    string // disassembly of the faulting instruction
	IsStore bool
	// Span is the freed span hit (UseAfterFree) or the nearest live
	// allocation below the address (OutOfAllocation; Size 0 when none).
	Span nvbit.AllocSpan
}

func (v Violation) String() string {
	op := "load"
	if v.IsStore {
		op = "store"
	}
	s := fmt.Sprintf("%s: %d-byte %s at %#x by lane %d [kernel %s, instr %d: %s]",
		v.Kind, v.Width, op, v.Addr, v.Lane, v.Kernel, v.InstIdx, v.SASS)
	if v.Kind == UseAfterFree {
		s += fmt.Sprintf(" — freed span [%#x,+%d)", v.Span.Base, v.Span.Size)
	}
	return s
}

// Tool is the memory checker.
type Tool struct {
	// Capacity is the aggregate channel capacity in records (split across
	// the per-SM shards).
	Capacity int
	// Policy selects what happens when a shard's buffer fills between
	// flushes: ChannelDrop leaves (and counts) those accesses unchecked,
	// ChannelBlock checks every access.
	Policy nvbit.ChannelPolicy
	// MaxViolations caps the detailed Violations list; TotalViolations
	// keeps counting past it.
	MaxViolations int

	// Violations holds the first MaxViolations detailed reports, in the
	// channel's delivery order: ascending SM, push order within one.
	Violations []Violation
	// TotalViolations counts every invalid access, capped or not.
	TotalViolations uint64
	// Checked counts every validated lane-level access.
	Checked uint64

	acc *memaccess.Collector
	// live (sorted by base) and freed (most recent first) are the
	// allocation state the last launch ran under, taken at its entry; its
	// records are checked against it when they are delivered.
	live, freed []nvbit.AllocSpan
}

// New returns a memory checker with the given aggregate channel capacity.
func New(capacity int) *Tool {
	return &Tool{Capacity: capacity, MaxViolations: 64}
}

// Dropped returns how many accesses went unchecked because their records
// were lost to full buffers (always zero under ChannelBlock).
func (t *Tool) Dropped() uint64 { return t.acc.Stats().Dropped }

// AtInit opens the access stream, which registers the device function.
func (t *Tool) AtInit(n *nvbit.NVBit) {
	var err error
	if t.acc, err = memaccess.Open(n, "memcheck", t.Capacity, t.Policy, t.check); err != nil {
		panic(fmt.Sprintf("memcheck: %v", err))
	}
}

// AtTerm implements the Tool interface; the framework closes the channel.
func (t *Tool) AtTerm(n *nvbit.NVBit) {}

// AtCUDACall snapshots the allocation table and instruments global memory
// instructions at launch entry. The launch's driver gate still holds the
// device there, so the snapshot is exactly what the kernel runs under.
func (t *Tool) AtCUDACall(n *nvbit.NVBit, exit bool, cbid nvbit.CBID, name string, p *nvbit.CallParams) {
	if cbid != nvbit.CBLaunchKernel || exit {
		return
	}
	t.live, t.freed = n.Device().Allocations(), n.Device().FreedSpans()
	if err := t.acc.Instrument(n, p.Launch.Func); err != nil {
		panic(fmt.Sprintf("memcheck: %v", err))
	}
}

// check is the access stream's consumer: it classifies one delivered
// lane-level access against the snapshot taken at its launch's entry.
func (t *Tool) check(addr uint64, lane int, s *memaccess.Site) {
	live, freed := t.live, t.freed
	t.Checked++
	// Last live span with Base <= addr: live spans never overlap, so it is
	// the only candidate.
	k := sort.Search(len(live), func(i int) bool { return live[i].Base > addr }) - 1
	if k >= 0 && live[k].Contains(addr, s.Width) {
		return
	}
	v := Violation{
		Kind:    OutOfAllocation,
		Addr:    addr,
		Width:   s.Width,
		Lane:    lane,
		Kernel:  s.Kernel,
		InstIdx: s.InstIdx,
		SASS:    s.SASS,
		IsStore: s.IsStore,
	}
	if k >= 0 {
		v.Span = live[k]
	}
	// Freed spans may overlap recycled live memory; live coverage already
	// won above, so any hit here is a genuinely stale pointer. Most recent
	// free wins, matching what the programmer last did to that address.
	for _, fs := range freed {
		if fs.Contains(addr, s.Width) {
			v.Kind, v.Span = UseAfterFree, fs
			break
		}
	}
	t.TotalViolations++
	if len(t.Violations) < t.MaxViolations {
		t.Violations = append(t.Violations, v)
	}
}

// Report writes a compute-sanitizer-style summary of the run.
func (t *Tool) Report(w io.Writer) {
	fmt.Fprintf(w, "memcheck: %d accesses checked, %d violations, %d unchecked (dropped)\n",
		t.Checked, t.TotalViolations, t.Dropped())
	for _, v := range t.Violations {
		fmt.Fprintf(w, "  %s\n", v)
	}
	if extra := t.TotalViolations - uint64(len(t.Violations)); extra > 0 {
		fmt.Fprintf(w, "  ... and %d more\n", extra)
	}
}

var _ nvbit.Tool = (*Tool)(nil)
