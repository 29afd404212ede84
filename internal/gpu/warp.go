package gpu

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sync"

	"nvbitgo/internal/sass"
)

const (
	pcExited = -1
	// noWaiter is warp.wmin when no lane waits behind the active group.
	noWaiter = math.MaxInt32
	// fullMask is the lane mask of a complete warp.
	fullMask = 1<<WarpSize - 1
)

// maxFrameRegs bounds one save frame: a frame holds general-purpose
// registers, of which a thread has 256. It is also the slot stride between
// stack levels in the save slab.
const maxFrameRegs = 256

// levelWords is the size of one stack level of the save slab.
const levelWords = maxFrameRegs * WarpSize

const (
	// perLane is warp.callDepth or warp.saveDepth while the live lanes are
	// at different depths of that stack.
	perLane = -1
	// mixedPCs is a flat call level whose lanes return to different PCs.
	mixedPCs = math.MinInt32
)

// lane returns the lowest lane in a non-empty mask; `for m := mask; m != 0;
// m &= m - 1 { i := lane(m) … }` visits a mask's lanes in ascending order.
// The &31 lets the compiler drop bounds checks on [WarpSize] arrays.
func lane(m uint32) int { return bits.TrailingZeros32(m) & (WarpSize - 1) }

// warp is the execution state of one 32-thread warp. Threads have individual
// program counters; the scheduler issues, per step, the group of live
// threads sharing the minimum PC (min-PC reconvergence), which handles
// arbitrary control flow including the trampolines NVBit splices in.
//
// That minimum-PC view is cached rather than rescanned: act is the group the
// next step issues and upc its PC, kept only there; pc[] holds the PCs of
// the waiting lanes (live &^ act), all above upc, with wmin the smallest. A
// converged warp (act == live) has no waiters, so it never touches pc[] and
// every PC change is one store to upc.
type warp struct {
	id      int
	barWait bool
	cycles  uint64

	upc  int32  // PC of the active group; pcExited once live == 0
	wmin int32  // smallest waiting PC, noWaiter when act == live
	live uint32 // lanes that have not exited
	act  uint32 // live lanes at upc
	pc   [WarpSize]int32

	// The register file is register-major, so one operand of a whole warp is
	// a contiguous row. RZ is not backed by its row: reads go to zero, which
	// is never written, and writes to sink, which is never read.
	regs       [256][WarpSize]uint32
	zero, sink [WarpSize]uint32
	preds      [WarpSize]uint8
	barrier    [WarpSize]uint32 // Volta convergence-barrier state (opaque)

	local [WarpSize][]byte

	// Call stacks, one per lane, as rows of return PCs in slabs that stay
	// with the pooled warp. While every live lane is at one depth the stacks
	// are flat: callDepth is that depth and callPCs[d] the PC all lanes
	// return to from level d, so a CAL or RET of the whole warp is one store.
	// A level whose lanes return to different PCs is mixedPCs there, and
	// callRows holds the lanes' own: lane l's at level d is
	// callRows[d*WarpSize+l]. Once the live lanes' depths differ, callDepth is
	// perLane, lane l's depth is callDepths[l] and every level is in callRows.
	callDepth  int
	callDepths [WarpSize]int
	callPCs    []int32
	callRows   []int32

	// Save stacks, the synthetic equivalent of the stack area where NVBit's
	// pre-built routines save general-purpose registers, predicates and (on
	// Volta) convergence barrier state before entering an instrumentation
	// function. They are kept as the call stacks are: saveDepth is the depth
	// of every live lane, or perLane and saveDepths holds each lane's. Lane
	// l's frame at stack level d has its header — register slots (the
	// SAVEPUSH immediate), predicates, barrier state — at index d*WarpSize+l
	// of saveN, savePreds and saveBars, and register slot k at
	// saveRegs[d*levelWords+k*WarpSize+l]: slot-major, so one slot of a whole
	// warp is a contiguous row like a register.
	saveDepth  int
	saveDepths [WarpSize]int
	saveN      []int32
	savePreds  []uint8
	saveBars   []uint32
	saveRegs   []uint32
	// cohort caches the lanes of the last SAVEPUSH when they all pushed at
	// the same level: their innermost frames are cohortLen slots at stack
	// level cohortLevel, so the save traffic of a trampoline needs no
	// per-lane frame lookup. Lanes leave it when they pop; it is only ever an
	// under-approximation.
	cohort                 uint32
	cohortLevel, cohortLen int
}

func newWarp() *warp { return &warp{} }

// warpPool holds the warps of closed devices, cleared (see clear), for the
// devices created after them.
var warpPool sync.Pool

// clear returns the warp to newWarp's state, so a warp that ran on one
// device starts on the next exactly as a new one does: registers,
// predicates, barrier state and stack depths zero, local memory dropped.
// Only the call and save slabs stay allocated. Their contents are
// unobservable: CAL writes every return PC before RET reads it, SAVEPUSH
// clears every frame it pushes, and nothing reads a level above a lane's
// depth.
func (w *warp) clear() {
	*w = warp{
		callPCs: w.callPCs, callRows: w.callRows,
		saveN: w.saveN, savePreds: w.savePreds, saveBars: w.saveBars, saveRegs: w.saveRegs,
	}
}

// reset prepares the warp for a fresh CTA. Register and local-memory
// contents are deliberately not cleared: as on real hardware their initial
// values are undefined, and compiled kernels initialize before use. Each
// scheduler worker owns its warp pool and walks its CTAs in a fixed order
// (docs/scheduler.md), so runs stay deterministic regardless.
func (w *warp) reset(id, lanes int, entry int32) {
	w.id = id
	w.barWait = false
	w.live = fullMask >> uint(WarpSize-lanes)
	w.act, w.upc, w.wmin = w.live, entry, noWaiter
	w.preds = [WarpSize]uint8{}
	w.callDepth, w.saveDepth, w.cohort = 0, 0, 0
}

// jump moves the whole active group to PC t: the fall-through of every
// non-control-flow step, and a branch all active lanes take. While t stays
// below every waiting PC the group is still the minimum and nothing else
// changes.
func (w *warp) jump(t int32) {
	if t < w.wmin && t != pcExited {
		w.upc = t
		return
	}
	w.retarget(w.act, t)
	w.regroup()
}

// split sends the taken lanes of the active group to t (pcExited retires
// them) and the rest to the fall-through PC.
func (w *warp) split(taken uint32, t, next int32) {
	switch taken {
	case 0:
		w.jump(next)
	case w.act:
		w.jump(t)
	default:
		w.retarget(w.act&^taken, next)
		w.retarget(taken, t)
		w.regroup()
	}
}

// scatter finishes a step whose taken lanes stored their own targets in pc[]
// (BRX, RET); the rest of the active group falls through.
func (w *warp) scatter(taken uint32, next int32) {
	t, m := w.pc[lane(taken)], taken
	for m != 0 && w.pc[lane(m)] == t {
		m &= m - 1
	}
	if m == 0 { // one common target
		w.split(taken, t, next)
		return
	}
	w.retarget(w.act&^taken, next)
	w.regroup()
}

// retarget records t as the PC of the lanes in m.
func (w *warp) retarget(m uint32, t int32) {
	for ; m != 0; m &= m - 1 {
		w.pc[lane(m)] = t
	}
}

// regroup rebuilds the minimum-PC view from pc[], which must hold the PC of
// every live lane; lanes sent to pcExited retire here.
func (w *warp) regroup() {
	lo := int32(noWaiter)
	w.upc, w.wmin, w.act = pcExited, noWaiter, 0
	for m := w.live; m != 0; m &= m - 1 {
		i := lane(m)
		switch p := w.pc[i]; {
		case p == pcExited:
			w.live &^= 1 << uint(i)
		case p < lo:
			w.wmin, lo, w.act = lo, p, 1<<uint(i)
		case p == lo:
			w.act |= 1 << uint(i)
		case p < w.wmin:
			w.wmin = p
		}
	}
	if w.live != 0 {
		w.upc = lo
	}
}

// guard returns the lanes of act whose guard predicate holds. The predicate
// bits are gathered eight lanes at a time: the multiplication moves bit 8j of
// x, lane j's predicate, to bit 56+j, and no two of its partial products meet
// in one bit.
func (w *warp) guard(act uint32, p sass.Pred, neg bool) uint32 {
	t := act
	if p != sass.PT {
		t = 0
		for k := 0; k < WarpSize; k += 8 {
			x := binary.LittleEndian.Uint64(w.preds[k:k+8]) >> (p & 7) & 0x0101010101010101
			t |= uint32(x*0x0102040810204080>>56) << uint(k)
		}
		t &= act
	}
	if neg {
		return act &^ t
	}
	return t
}

// setPreds writes predicate p of the lanes in exec from their bits of val
// (writes to PT are dropped), eight lanes at a time: spread is guard's gather
// run backwards.
func (w *warp) setPreds(p sass.Pred, exec, val uint32) {
	if p == sass.PT {
		return
	}
	for k := 0; k < WarpSize; k += 8 {
		e, v := spread(exec>>uint(k))<<p, spread(val>>uint(k))<<p
		x := binary.LittleEndian.Uint64(w.preds[k : k+8])
		binary.LittleEndian.PutUint64(w.preds[k:k+8], x&^e|v&e)
	}
}

// spread moves bit j of b's low byte to bit 8j: the mask keeps bit j of the
// j-th copy of the byte, and adding 0x7f carries it into that copy's top bit.
func spread(b uint32) uint64 {
	x := uint64(b&0xff) * 0x0101010101010101 & 0x8040201008040201
	return (x + 0x7f7f7f7f7f7f7f7f) >> 7 & 0x0101010101010101
}

// src returns the row a register is read from, one word per lane.
func (w *warp) src(r sass.Reg) *[WarpSize]uint32 {
	if r == sass.RZ {
		return &w.zero
	}
	return &w.regs[r]
}

// dst returns the row a register is written to, one word per lane.
func (w *warp) dst(r sass.Reg) *[WarpSize]uint32 {
	if r == sass.RZ {
		return &w.sink
	}
	return &w.regs[r]
}

// reg reads a general-purpose register (RZ reads zero).
func (w *warp) reg(lane int, r sass.Reg) uint32 { return w.src(r)[lane] }

// setReg writes a general-purpose register (writes to RZ are dropped).
func (w *warp) setReg(lane int, r sass.Reg, v uint32) { w.dst(r)[lane] = v }

// src64 returns the rows the register pair (r, r+1) is read from, low word
// first. The pair at R254 has its high word in RZ's otherwise unused row.
func (w *warp) src64(r sass.Reg) (lo, hi *[WarpSize]uint32) {
	if r == sass.RZ {
		return &w.zero, &w.zero
	}
	return &w.regs[r], &w.regs[r+1]
}

// dst64 returns the rows the register pair (r, r+1) is written to.
func (w *warp) dst64(r sass.Reg) (lo, hi *[WarpSize]uint32) {
	if r == sass.RZ {
		return &w.sink, &w.sink
	}
	return &w.regs[r], &w.regs[r+1]
}

// pair is the 64-bit value of a register pair's two words.
func pair(lo, hi uint32) uint64 { return uint64(lo) | uint64(hi)<<32 }

// reg64 reads the 64-bit value in the register pair (r, r+1).
func (w *warp) reg64(lane int, r sass.Reg) uint64 {
	lo, hi := w.src64(r)
	return pair(lo[lane], hi[lane])
}

// setReg64 writes the register pair (r, r+1).
func (w *warp) setReg64(lane int, r sass.Reg, v uint64) {
	lo, hi := w.dst64(r)
	lo[lane], hi[lane] = uint32(v), uint32(v>>32)
}

// growCalls makes room for return PCs at one more call level.
func (w *warp) growCalls() {
	w.callPCs = append(w.callPCs, 0)
	w.callRows = append(w.callRows, make([]int32, WarpSize)...)
}

// spillCalls leaves the flat form: every lane's depth goes to callDepths and
// every level shared by all lanes to callRows.
func (w *warp) spillCalls() {
	d := w.callDepth
	if d == perLane {
		return
	}
	for l, pc := range w.callPCs[:d] {
		if pc != mixedPCs {
			row := (*[WarpSize]int32)(w.callRows[l*WarpSize:])
			for i := range row {
				row[i] = pc
			}
		}
	}
	for i := range w.callDepths {
		w.callDepths[i] = d
	}
	w.callDepth = perLane
}

// flattenCalls returns to the flat form when every live lane is at one
// depth, finding for each level whether its lanes share a return PC. The
// lanes of moved have just called or returned: when one of them and a live
// lane that did not move are at different depths, which is the usual case
// after a call under a partial mask, it returns without a scan.
func (w *warp) flattenCalls(moved uint32) {
	if still := w.live &^ moved; still != 0 && w.callDepths[lane(still)] != w.callDepths[lane(moved)] {
		return
	}
	d, ok := shared(&w.callDepths, w.live)
	if !ok {
		return
	}
	for l := range w.callPCs[:d] {
		if pc, ok := shared((*[WarpSize]int32)(w.callRows[l*WarpSize:]), w.live); ok {
			w.callPCs[l] = pc
		} else {
			w.callPCs[l] = mixedPCs
		}
	}
	w.callDepth = d
}

// shared returns the value the live lanes of a row hold, and whether they
// all hold it: one loop over the 32 lanes with no branch in it.
func shared[T int | int32](row *[WarpSize]T, live uint32) (T, bool) {
	v := row[lane(live)]
	var diff T
	for i, x := range row {
		diff |= (x ^ v) & -T(live>>uint(i)&1)
	}
	return v, diff == 0
}

// pushLevel makes room for frames at one more save stack level.
func (w *warp) pushLevel() {
	w.saveN = append(w.saveN, make([]int32, WarpSize)...)
	w.savePreds = append(w.savePreds, make([]uint8, WarpSize)...)
	w.saveBars = append(w.saveBars, make([]uint32, WarpSize)...)
	w.saveRegs = append(w.saveRegs, make([]uint32, levelWords)...)
}

// spillSaves leaves the flat form of the save stacks.
func (w *warp) spillSaves() {
	if d := w.saveDepth; d != perLane {
		for i := range w.saveDepths {
			w.saveDepths[i] = d
		}
		w.saveDepth = perLane
	}
}

// flattenSaves returns to the flat form when every live lane is at one save
// stack depth.
func (w *warp) flattenSaves() {
	if d, ok := shared(&w.saveDepths, w.live); ok {
		w.saveDepth = d
	}
}
