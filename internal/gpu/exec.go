package gpu

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"nvbitgo/internal/sass"
)

// maxStackDepth bounds the per-thread call and save stacks, as the finite
// stack RAM of real hardware does; exceeding it is a FaultStackOverflow
// rather than unbounded host-memory growth.
const maxStackDepth = 1024

// step executes one warp-level instruction (the group of live lanes sharing
// the minimum PC). The warp must have a live lane.
func (c *execContext) step(w *warp) error {
	pc, act := w.upc, w.act
	if c.wdLeft--; c.wdLeft < 0 {
		return c.trap(FaultWatchdogTimeout, pc, nil, -1,
			"CTA exceeded the launch watchdog budget of %d warp instructions", c.wdBudget)
	}
	in, err := c.dev.fetch(pc)
	if err != nil {
		return c.trap(FaultInvalidInstruction, pc, nil, -1, "%v", err)
	}
	exec := w.guard(act, in.Pred, in.PredNeg)

	st := &c.stats
	nActive := uint64(bits.OnesCount32(act))
	st.WarpInstrs++
	st.ThreadInstrs += nActive
	st.OpCounts[in.Op]++
	st.OpThreads[in.Op] += nActive
	w.cycles += issueCost(in.Op)

	// Control flow moves the lanes itself and returns; after any other
	// instruction the whole active group falls through to next. Operands
	// are resolved to register rows once, outside the lane loops; b[i]+imm
	// is the effective second source. The per-step helpers are plain
	// methods/functions rather than closures so the dispatch loop does not
	// allocate.
	next := pc + 1
	d, a, b := w.dst(in.Dst), w.src(in.Src1), w.src(in.Src2)
	imm := uint32(int32(in.Imm))

	switch in.Op {
	case sass.OpNOP:

	case sass.OpEXIT:
		w.split(exec, pcExited, next)
		return nil

	case sass.OpBRA:
		w.split(exec, next+int32(in.Imm), next)
		return nil

	case sass.OpJMP:
		w.split(exec, int32(in.Imm), next)
		return nil

	case sass.OpBRX:
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			w.pc[i] = int32(a[i]) + int32(in.Imm)
		}
		w.scatter(exec, next)
		return nil

	case sass.OpCAL:
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			if len(w.callStack[i]) >= maxStackDepth {
				return c.trap(FaultStackOverflow, pc, in, i, "call stack exceeds %d frames", maxStackDepth)
			}
			w.callStack[i] = append(w.callStack[i], next)
		}
		w.split(exec, int32(in.Imm), next)
		return nil

	case sass.OpRET:
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			n := len(w.callStack[i])
			if n == 0 {
				return c.trap(FaultStackUnderflow, pc, in, i, "RET with empty call stack")
			}
			w.pc[i] = w.callStack[i][n-1]
			w.callStack[i] = w.callStack[i][:n-1]
		}
		w.scatter(exec, next)
		return nil

	case sass.OpBAR:
		w.barWait = exec != 0

	case sass.OpMOV:
		if in.Mods.Wide() {
			_, dh := w.dst64(in.Dst)
			_, ah := w.src64(in.Src1)
			for m := exec; m != 0; m &= m - 1 {
				i := lane(m)
				d[i], dh[i] = a[i], ah[i]
			}
		} else {
			for m := exec; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = a[i]
			}
		}

	case sass.OpMOVI:
		for m := exec; m != 0; m &= m - 1 {
			d[lane(m)] = imm
		}

	case sass.OpMOVIH:
		lo := w.src(in.Dst)
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			d[i] = lo[i]&0xFFFFF | uint32(in.Imm)<<20
		}

	case sass.OpS2R:
		c.s2r(w, d, exec, in.Imm)

	case sass.OpP2R:
		single := in.Mods.SubOp() == sass.P2RSingle
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			v := uint32(w.preds[i])
			if single {
				v = 0
				if w.predTrue(i, in.Mods.Aux()) {
					v = 1
				}
			}
			d[i] = v
		}

	case sass.OpR2P:
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			w.preds[i] = uint8(a[i]) & 0x7f
		}

	case sass.OpSEL:
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			if w.predTrue(i, in.Mods.Aux()) {
				d[i] = a[i]
			} else {
				d[i] = b[i]
			}
		}

	case sass.OpIADD:
		if in.Mods.Wide() {
			_, dh := w.dst64(in.Dst)
			_, ah := w.src64(in.Src1)
			_, bh := w.src64(in.Src2)
			for m := exec; m != 0; m &= m - 1 {
				i := lane(m)
				v := pair(a[i], ah[i]) + pair(b[i], bh[i]) + uint64(in.Imm)
				d[i], dh[i] = uint32(v), uint32(v>>32)
			}
		} else {
			for m := exec; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = a[i] + b[i] + imm
			}
		}

	case sass.OpIMUL:
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			d[i] = a[i] * b[i]
		}

	case sass.OpIMAD:
		if in.Mods.Wide() {
			// IMAD.WIDE: 32x32 unsigned multiply + 64-bit add.
			_, dh := w.dst64(in.Dst)
			cl, ch := w.src64(in.Src3)
			for m := exec; m != 0; m &= m - 1 {
				i := lane(m)
				v := uint64(a[i])*uint64(b[i]) + pair(cl[i], ch[i])
				d[i], dh[i] = uint32(v), uint32(v>>32)
			}
		} else {
			c3 := w.src(in.Src3)
			for m := exec; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = a[i]*b[i] + c3[i]
			}
		}

	case sass.OpISETP:
		sub, p, unsigned := in.Mods.SubOp(), in.Mods.Aux(), in.Mods.Flag()
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			if unsigned {
				w.setPred(i, p, cmp(sub, a[i], b[i]+imm))
			} else {
				w.setPred(i, p, cmp(sub, int32(a[i]), int32(b[i]+imm)))
			}
		}

	case sass.OpSHL:
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			d[i] = a[i] << ((b[i] + imm) & 31)
		}

	case sass.OpSHR:
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			d[i] = a[i] >> ((b[i] + imm) & 31)
		}

	case sass.OpLOP:
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			x, y := a[i], b[i]+imm
			switch in.Mods.SubOp() {
			case sass.LopAnd:
				d[i] = x & y
			case sass.LopOr:
				d[i] = x | y
			case sass.LopXor:
				d[i] = x ^ y
			case sass.LopNot:
				d[i] = ^x
			default:
				return c.trap(FaultInvalidInstruction, pc, in, i, "bad LOP sub-op %d", in.Mods.SubOp())
			}
		}

	case sass.OpPOPC:
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			d[i] = uint32(bits.OnesCount32(a[i]))
		}

	case sass.OpFADD:
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			if x, y := a[i], b[i]; ordinary(x) && ordinary(y) {
				d[i] = addPlain(x, y)
			} else {
				d[i] = addF32(x, y)
			}
		}

	case sass.OpFMUL:
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			if x, y := a[i], b[i]; ordinary(x) && ordinary(y) {
				d[i] = mulPlain(x, y)
			} else {
				d[i] = mulF32(x, y)
			}
		}

	case sass.OpFFMA:
		c3 := w.src(in.Src3)
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			if x, y, z := a[i], b[i], c3[i]; ordinary(x) && ordinary(y) && ordinary(z) {
				d[i] = fmaPlain(x, y, z)
			} else {
				d[i] = fmaF32(x, y, z)
			}
		}

	case sass.OpFSETP:
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			w.setPred(i, in.Mods.Aux(), cmp(in.Mods.SubOp(), f32(a[i]), f32(b[i])))
		}

	case sass.OpMUFU:
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			x := widen(a[i])
			var v float64
			switch in.Mods.SubOp() {
			case sass.MufuRcp:
				v = 1 / x
			case sass.MufuRsq:
				v = 1 / math.Sqrt(x)
			case sass.MufuSqrt:
				v = math.Sqrt(x)
			case sass.MufuSin:
				v = math.Sin(x)
			case sass.MufuCos:
				v = math.Cos(x)
			case sass.MufuEx2:
				v = math.Exp2(x)
			case sass.MufuLg2:
				v = math.Log2(x)
			default:
				return c.trap(FaultInvalidInstruction, pc, in, i, "bad MUFU sub-op %d", in.Mods.SubOp())
			}
			d[i] = narrow(v)
		}

	case sass.OpI2F:
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			d[i] = f32bits(float32(int32(a[i])))
		}

	case sass.OpF2I:
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			switch f := f32(a[i]); {
			case math.IsNaN(float64(f)):
				d[i] = 0
			case f >= math.MaxInt32:
				d[i] = uint32(math.MaxInt32)
			case f <= math.MinInt32:
				d[i] = 0x80000000
			default:
				d[i] = uint32(int32(f))
			}
		}

	case sass.OpLDG, sass.OpSTG:
		if err := c.globalAccess(w, in, exec, pc); err != nil {
			return err
		}

	case sass.OpLDS, sass.OpSTS:
		width, mv := accessWidth(in), w.mover(in, in.Op == sass.OpLDS)
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			addr := int(int32(a[i]) + int32(in.Imm))
			if addr&(width-1) != 0 {
				f := c.trap(FaultMisalignedAddress, pc, in, i, "shared access at %#x not %d-byte aligned", addr, width)
				f.Addr = uint64(uint32(addr))
				return f
			}
			if addr < 0 || addr+width > len(c.shared) {
				f := c.trap(FaultSharedOOB, pc, in, i, "shared access [%#x,+%d) out of range (%d bytes shared)", addr, width, len(c.shared))
				f.Addr = uint64(uint32(addr))
				return f
			}
			mv.transfer(i, c.shared[addr:])
		}

	case sass.OpLDL, sass.OpSTL:
		width, mv := accessWidth(in), w.mover(in, in.Op == sass.OpLDL)
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			if w.local[i] == nil {
				w.local[i] = make([]byte, c.dev.cfg.LocalMemPerThr)
			}
			addr := int(int32(a[i]) + int32(in.Imm))
			if addr < 0 || addr+width > len(w.local[i]) {
				f := c.trap(FaultLocalOOB, pc, in, i, "local access [%#x,+%d) out of range", addr, width)
				f.Addr = uint64(uint32(addr))
				return f
			}
			mv.transfer(i, w.local[i][addr:])
		}

	case sass.OpLDC:
		bank := in.Mods.SubOp()
		data := c.banks[bank]
		width, mv := accessWidth(in), w.mover(in, true)
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			addr := int(int32(a[i]) + int32(in.Imm))
			if addr < 0 || addr+width > len(data) {
				f := c.trap(FaultConstOOB, pc, in, i, "constant access c[%d][%#x] out of range (%d bytes in bank)", bank, addr, len(data))
				f.Addr = uint64(uint32(addr))
				return f
			}
			mv.transfer(i, data[addr:])
		}

	case sass.OpATOM, sass.OpRED:
		if err := c.atomicAccess(w, in, exec, pc); err != nil {
			return err
		}

	case sass.OpSHFL:
		vals := *a
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			delta := int(int32(b[i] + imm))
			src := i
			switch in.Mods.SubOp() {
			case sass.ShflUp:
				src = i - delta
			case sass.ShflDown:
				src = i + delta
			case sass.ShflBfly:
				src = i ^ delta
			case sass.ShflIdx:
				src = delta
			}
			if src >= 0 && src < WarpSize && exec>>uint(src)&1 != 0 {
				d[i] = vals[src]
			} else {
				// Out-of-range or inactive source returns the lane's
				// own source value, as CUDA shuffles do.
				d[i] = vals[i]
			}
		}

	case sass.OpVOTE:
		var mask uint32
		for m := exec; m != 0; m &= m - 1 {
			if i := lane(m); w.predTrue(i, in.Mods.Aux()) {
				mask |= 1 << uint(i)
			}
		}
		p := sass.Pred(in.Dst & 7)
		switch in.Mods.SubOp() {
		case sass.VoteBallot:
			for m := exec; m != 0; m &= m - 1 {
				d[lane(m)] = mask
			}
		case sass.VoteAny:
			for m := exec; m != 0; m &= m - 1 {
				w.setPred(lane(m), p, mask != 0)
			}
		case sass.VoteAll:
			for m := exec; m != 0; m &= m - 1 {
				w.setPred(lane(m), p, mask == exec)
			}
		default:
			return c.trap(FaultInvalidInstruction, pc, in, -1, "bad VOTE sub-op %d", in.Mods.SubOp())
		}

	case sass.OpMATCH:
		// Keys are read as the lanes are written, lowest lane first, so a
		// MATCH whose destination is its own source sees what hardware
		// issuing the lanes in that order would.
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			mine := w.matchKey(in, i)
			var same uint32
			for n := exec; n != 0; n &= n - 1 {
				if j := lane(n); w.matchKey(in, j) == mine {
					same |= 1 << uint(j)
				}
			}
			d[i] = same
		}

	case sass.OpWFFT32:
		if !c.dev.cfg.EnableWFFT {
			return c.trap(FaultInvalidInstruction, pc, in, -1, "WFFT32 is a hypothetical instruction; this device does not implement it "+
				"(instrument it with the emulation tool, or enable Config.EnableWFFT)")
		}
		execWFFT32(w, in, exec)

	case sass.OpSAVEPUSH:
		if err := c.savePush(w, in, exec, pc); err != nil {
			return err
		}

	case sass.OpSAVEPOP:
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			if w.saveDepth[i] == 0 {
				return c.trap(FaultStackUnderflow, pc, in, i, "SAVEPOP with empty save stack")
			}
			w.saveDepth[i]--
		}
		w.cohort &^= exec

	case sass.OpSTSA, sass.OpLDSA, sass.OpSTSP, sass.OpLDSP, sass.OpSTSB, sass.OpLDSB,
		sass.OpRDREG, sass.OpWRREG, sass.OpRDPRED, sass.OpWRPRED:
		if err := c.saveAccess(w, in, exec, pc); err != nil {
			return err
		}

	default:
		return c.trap(FaultInvalidInstruction, pc, in, -1, "unimplemented opcode")
	}
	w.jump(next)
	return nil
}

// savePush executes SAVEPUSH: every executing lane pushes a zeroed frame of
// in.Imm register slots.
func (c *execContext) savePush(w *warp, in *sass.Inst, exec uint32, pc int32) error {
	if exec == 0 {
		return nil
	}
	n := int(in.Imm)
	if n < 0 || n > maxFrameRegs {
		return c.trap(FaultInvalidInstruction, pc, in, lane(exec), "save frame of %d registers (a thread has %d)", in.Imm, maxFrameRegs)
	}
	level, sameLevel := w.saveDepth[lane(exec)], true
	for m := exec; m != 0; m &= m - 1 {
		i := lane(m)
		dp := w.saveDepth[i]
		if dp >= maxStackDepth {
			return c.trap(FaultStackOverflow, pc, in, i, "save stack exceeds %d frames", maxStackDepth)
		}
		if dp == len(w.saveMeta)/WarpSize {
			w.pushLevel()
		}
		sameLevel = sameLevel && dp == level
	}
	// When every live lane pushes at one level, no other frame lives in the
	// rows and they are cleared whole; otherwise each lane clears its own
	// column of them.
	rows := sameLevel && exec == w.live
	if rows {
		clear(w.saveRegs[level*levelWords:][:n*WarpSize])
	}
	for m := exec; m != 0; m &= m - 1 {
		i := lane(m)
		dp := w.saveDepth[i]
		if !rows {
			col := w.saveRegs[dp*levelWords+i:]
			for k := 0; k < n; k++ {
				col[k*WarpSize] = 0
			}
		}
		w.saveMeta[dp*WarpSize+i] = saveFrame{n: int32(n)}
		w.saveDepth[i]++
	}
	w.cohort = 0
	if sameLevel {
		w.cohort, w.cohortRow, w.cohortLen = exec, level*maxFrameRegs, n
	}
	return nil
}

// saveAccess executes the instructions that address a lane's innermost save
// frame: the save/restore traffic of a trampoline and the device API's
// register reads and writes.
func (c *execContext) saveAccess(w *warp, in *sass.Inst, exec uint32, pc int32) error {
	// A trampoline's STSA/LDSA run on the lanes that pushed together: one
	// slot of their frames is a row, moved against a register row.
	if (in.Op == sass.OpSTSA || in.Op == sass.OpLDSA) && exec&^w.cohort == 0 && uint64(in.Imm) < uint64(w.cohortLen) {
		row := (*[WarpSize]uint32)(w.saveRegs[(w.cohortRow+int(in.Imm))*WarpSize:])
		from, to := w.src(in.Src1), row
		if in.Op == sass.OpLDSA {
			from, to = row, w.dst(in.Dst)
		}
		if exec == fullMask {
			*to = *from
			return nil
		}
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			to[i] = from[i]
		}
		return nil
	}
	d, a := w.dst(in.Dst), w.src(in.Src1)
	for m := exec; m != 0; m &= m - 1 {
		i := lane(m)
		dp := w.saveDepth[i]
		if dp == 0 {
			return c.trap(FaultStackUnderflow, pc, in, i, "%v with no save frame", in.Op)
		}
		fr := &w.saveMeta[(dp-1)*WarpSize+i]
		slots := w.saveRegs[(dp-1)*levelWords+i:] // slot k is slots[k*WarpSize]
		switch in.Op {
		case sass.OpSTSA, sass.OpLDSA:
			if uint64(in.Imm) >= uint64(fr.n) {
				return c.trap(FaultInvalidInstruction, pc, in, i, "save slot %d beyond frame of %d", in.Imm, fr.n)
			}
			if in.Op == sass.OpSTSA {
				slots[int(in.Imm)*WarpSize] = a[i]
			} else {
				d[i] = slots[int(in.Imm)*WarpSize]
			}
		case sass.OpSTSP:
			fr.preds = w.preds[i]
		case sass.OpLDSP:
			w.preds[i] = fr.preds
		case sass.OpSTSB:
			fr.barrier = w.barrier[i]
		case sass.OpLDSB:
			w.barrier[i] = fr.barrier
		case sass.OpRDREG, sass.OpWRREG:
			idx := int(a[i]) + int(in.Imm)
			if idx < 0 || idx >= int(fr.n) {
				return c.trap(FaultInvalidInstruction, pc, in, i, "%v of register %d beyond saved set of %d", in.Op, idx, fr.n)
			}
			if in.Op == sass.OpRDREG {
				d[i] = slots[idx*WarpSize]
			} else {
				slots[idx*WarpSize] = w.reg(i, in.Src2)
			}
		case sass.OpRDPRED:
			d[i] = uint32(fr.preds)
		case sass.OpWRPRED:
			fr.preds = uint8(w.reg(i, in.Src2)) & 0x7f
		}
	}
	return nil
}

// mover moves the lanes of one memory instruction between the register rows
// it names — the pair at Dst for a load, at Src2 for a store — and memory.
type mover struct {
	lo, hi     *[WarpSize]uint32
	load, wide bool
}

func (w *warp) mover(in *sass.Inst, load bool) mover {
	mv := mover{load: load, wide: in.Mods.Wide()}
	if load {
		mv.lo, mv.hi = w.dst64(in.Dst)
	} else {
		mv.lo, mv.hi = w.src64(in.Src2)
	}
	return mv
}

// transfer moves one lane's 4- or 8-byte value to or from mem, the
// bounds-checked bytes the instruction addresses.
func (mv *mover) transfer(lane int, mem []byte) {
	switch {
	case mv.load && mv.wide:
		v := binary.LittleEndian.Uint64(mem)
		mv.lo[lane], mv.hi[lane] = uint32(v), uint32(v>>32)
	case mv.load:
		mv.lo[lane] = binary.LittleEndian.Uint32(mem)
	case mv.wide:
		binary.LittleEndian.PutUint64(mem, pair(mv.lo[lane], mv.hi[lane]))
	default:
		binary.LittleEndian.PutUint32(mem, mv.lo[lane])
	}
}

// matchKey is the value MATCH compares for one lane.
func (w *warp) matchKey(in *sass.Inst, lane int) uint64 {
	if in.Mods.Wide() {
		return w.reg64(lane, in.Src1)
	}
	return uint64(w.reg(lane, in.Src1))
}

// trap builds a structured execution fault at the current instruction (nil
// when none could be fetched), stamping it with the worker's full provenance
// (kernel, SM, CTA, warp). It is the cold path of step; keeping it a method
// (not a per-step closure) keeps the dispatch loop allocation-free. Lane is
// -1 for warp-wide faults.
func (c *execContext) trap(kind FaultKind, pc int32, in *sass.Inst, lane int, format string, args ...any) *Fault {
	f := &Fault{
		Kind:   kind,
		PC:     pc,
		Entry:  c.spec.Entry,
		Kernel: c.spec.Name,
		SM:     c.sm,
		CTA:    c.ctaID,
		Warp:   c.curWarp,
		Lane:   lane,
		Detail: fmt.Sprintf(format, args...),
	}
	if in != nil {
		f.SASS = sass.Format(*in)
	}
	return f
}

// cmp evaluates an ISETP/FSETP comparison.
func cmp[T int32 | uint32 | float32](sub int, a, b T) bool {
	switch sub {
	case sass.CmpEQ:
		return a == b
	case sass.CmpNE:
		return a != b
	case sass.CmpLT:
		return a < b
	case sass.CmpLE:
		return a <= b
	case sass.CmpGT:
		return a > b
	case sass.CmpGE:
		return a >= b
	}
	return false
}

// s2r executes S2R on the lanes of exec. Only the lane and thread ids differ
// between the lanes of a warp. A thread id is divided out of the linear
// index once, for the warp's first thread; the others follow by carry.
func (c *execContext) s2r(w *warp, d *[WarpSize]uint32, exec uint32, id int64) {
	switch id {
	case sass.SRLaneID:
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			d[i] = uint32(i)
		}
	case sass.SRTIDX, sass.SRTIDY, sass.SRTIDZ:
		bx, by := max1(c.spec.Block.X), max1(c.spec.Block.Y)
		t := w.id * WarpSize
		tid := [3]int{t % bx, t / bx % by, t / (bx * by)}
		for i := 0; i < WarpSize; i++ {
			if exec>>uint(i)&1 != 0 {
				d[i] = uint32(tid[id-sass.SRTIDX])
			}
			if tid[0]++; tid[0] == bx {
				tid[0] = 0
				if tid[1]++; tid[1] == by {
					tid[1] = 0
					tid[2]++
				}
			}
		}
	default:
		v := c.specialReg(w, id)
		for m := exec; m != 0; m &= m - 1 {
			d[lane(m)] = v
		}
	}
}

// specialReg evaluates an S2R source that all lanes of a warp read alike.
func (c *execContext) specialReg(w *warp, id int64) uint32 {
	b := c.spec.Block
	switch id {
	case sass.SRWarpID:
		return uint32(w.id)
	case sass.SRCTAIDX:
		return uint32(c.cta.X)
	case sass.SRCTAIDY:
		return uint32(c.cta.Y)
	case sass.SRCTAIDZ:
		return uint32(c.cta.Z)
	case sass.SRNTIDX:
		return uint32(max1(b.X))
	case sass.SRNTIDY:
		return uint32(max1(b.Y))
	case sass.SRNTIDZ:
		return uint32(max1(b.Z))
	case sass.SRNCTAIDX:
		return uint32(max1(c.spec.Grid.X))
	case sass.SRNCTAIDY:
		return uint32(max1(c.spec.Grid.Y))
	case sass.SRNCTAIDZ:
		return uint32(max1(c.spec.Grid.Z))
	case sass.SRClock:
		return uint32(w.cycles)
	case sass.SRSMID:
		return uint32(c.sm)
	}
	return 0
}

func accessWidth(in *sass.Inst) int {
	if in.Mods.Wide() {
		return 8
	}
	return 4
}

// lineSet collects the distinct cache lines of one warp access in the order
// the lanes first touch them. Neighbouring lanes mostly share a line: one
// equal to the line before it is in the set already and is not searched for.
type lineSet struct {
	n     int
	last  uint64
	lines [2 * WarpSize]uint64 // each lane can straddle two lines
}

func (s *lineSet) add(line uint64) {
	if line == s.last {
		return
	}
	s.last = line
	for _, l := range s.lines[:s.n] {
		if l == line {
			return
		}
	}
	s.lines[s.n] = line
	s.n++
}

// globalAccess performs a coalesced warp-level global load/store and feeds
// the cache/timing model.
func (c *execContext) globalAccess(w *warp, in *sass.Inst, exec uint32, pc int32) error {
	if exec == 0 {
		return nil
	}
	width := uint64(accessWidth(in))
	d := c.dev
	mv := w.mover(in, in.Op == sass.OpLDG)
	alo, ahi := w.src64(in.Src1)
	// An aligned access lies within one line unless lines are narrower than
	// it (Config.L1LineBytes may be 4): only then is its last byte probed.
	straddle := uint64(1)<<d.lineShift < width
	// No address reaches line or page ^0. The page is looked up again only
	// when a lane leaves the page of the lane before it.
	set := lineSet{last: ^uint64(0)}
	var page *memPage
	pageNo := ^uint64(0)
	for m := exec; m != 0; m &= m - 1 {
		i := lane(m)
		addr := pair(alo[i], ahi[i]) + uint64(in.Imm)
		if addr&(width-1) != 0 {
			f := c.trap(FaultMisalignedAddress, pc, in, i, "global access at %#x not %d-byte aligned", addr, width)
			f.Addr = addr
			return f
		}
		if !d.inHeap(addr, width) {
			f := c.trap(FaultIllegalAddress, pc, in, i, "global access [%#x,+%d) outside the device heap", addr, width)
			f.Addr = addr
			return f
		}
		if addr>>pageShift != pageNo {
			pageNo = addr >> pageShift
			if mv.load {
				page = d.peek(addr)
			} else {
				page = d.touch(addr)
			}
		}
		mv.transfer(i, page[addr&pageMask:])
		set.add(addr >> d.lineShift)
		if straddle {
			set.add((addr + width - 1) >> d.lineShift)
		}
	}
	st := &c.stats
	st.GlobalAccesses++
	st.GlobalLines += uint64(set.n)
	for _, line := range set.lines[:set.n] {
		w.cycles += c.lineCost(line)
	}
	return nil
}

// lineCost runs one line through L1/L2 and returns its latency contribution.
// c.l1s[c.sm] is owned by this worker (each SM has exactly one owner); c.l2
// is the device-shared L2 under the sequential scheduler and a private
// per-SM shard under the parallel one.
func (c *execContext) lineCost(line uint64) uint64 {
	st := &c.stats
	if c.l1s[c.sm].access(line) {
		st.L1Hits++
		return costL1Hit
	}
	st.L1Misses++
	if c.l2.access(line) {
		st.L2Hits++
		return costL2Hit
	}
	st.L2Misses++
	return costL2Miss
}

// atomicAccess executes ATOM/RED lane by lane in lane order (deterministic
// within a warp). Under the parallel scheduler (c.locked) each lane's
// read-modify-write is serialized through an address-striped device lock, so
// concurrent CTAs interleave atomically — in an undefined cross-CTA order,
// exactly as on real hardware — and the race detector stays clean.
func (c *execContext) atomicAccess(w *warp, in *sass.Inst, exec uint32, pc int32) error {
	d := c.dev
	width := uint64(accessWidth(in))
	for m := exec; m != 0; m &= m - 1 {
		i := lane(m)
		addr := w.reg64(i, in.Src1) + uint64(in.Imm)
		if addr&(width-1) != 0 {
			f := c.trap(FaultMisalignedAddress, pc, in, i, "atomic access at %#x not %d-byte aligned", addr, width)
			f.Addr = addr
			return f
		}
		if !d.inHeap(addr, width) {
			f := c.trap(FaultIllegalAddress, pc, in, i, "atomic access [%#x,+%d) outside the device heap", addr, width)
			f.Addr = addr
			return f
		}
		var mu *sync.Mutex
		if c.locked {
			mu = &d.atomLocks[(addr>>3)&(atomStripes-1)]
			mu.Lock()
		}
		mem := d.touch(addr)[addr&pageMask:]
		if width == 8 {
			old := binary.LittleEndian.Uint64(mem)
			binary.LittleEndian.PutUint64(mem, atomInt(in.Mods.SubOp(), old, w.reg64(i, in.Src2)))
			if in.Op == sass.OpATOM {
				w.setReg64(i, in.Dst, old)
			}
		} else {
			old := binary.LittleEndian.Uint32(mem)
			val := w.reg(i, in.Src2)
			var nv uint32
			if in.Mods.Flag() { // float atomic
				switch in.Mods.SubOp() {
				case sass.AtomAdd:
					nv = addF32(old, val)
				case sass.AtomMin:
					nv = minF32u(old, val)
				case sass.AtomMax:
					nv = maxF32u(old, val)
				case sass.AtomExch:
					nv = val
				default:
					if mu != nil {
						mu.Unlock()
					}
					return c.trap(FaultInvalidInstruction, pc, in, i, "float atomic %s unsupported", sass.AtomName(in.Mods.SubOp()))
				}
			} else {
				nv = atomInt(in.Mods.SubOp(), old, val)
			}
			binary.LittleEndian.PutUint32(mem, nv)
			if in.Op == sass.OpATOM {
				w.setReg(i, in.Dst, old)
			}
		}
		if mu != nil {
			mu.Unlock()
		}
		w.cycles += c.lineCost(addr >> d.lineShift)
	}
	if exec != 0 {
		c.stats.GlobalAccesses++
	}
	return nil
}

// atomInt computes the value an integer ATOM/RED leaves in memory.
func atomInt[T uint32 | uint64](sub int, old, val T) T {
	switch sub {
	case sass.AtomAdd:
		return old + val
	case sass.AtomMin:
		return min(old, val)
	case sass.AtomMax:
		return max(old, val)
	case sass.AtomExch:
		return val
	case sass.AtomAnd:
		return old & val
	case sass.AtomOr:
		return old | val
	case sass.AtomXor:
		return old ^ val
	}
	return 0
}

// execWFFT32 natively evaluates the hypothetical warp-wide 32-point FFT:
// lane k receives X[k] = sum_n x[n] * e^(-2*pi*i*k*n/32), with the real parts
// in register Dst and the imaginary parts in register Src1 across the warp.
func execWFFT32(w *warp, in *sass.Inst, exec uint32) {
	var re, im [WarpSize]float64
	for m := exec; m != 0; m &= m - 1 {
		n := lane(m)
		re[n] = float64(f32(w.reg(n, in.Dst)))
		im[n] = float64(f32(w.reg(n, in.Src1)))
	}
	for m := exec; m != 0; m &= m - 1 {
		k := lane(m)
		var sr, si float64
		for n := 0; n < WarpSize; n++ {
			ang := -2 * math.Pi * float64(k*n) / WarpSize
			c, s := math.Cos(ang), math.Sin(ang)
			sr += re[n]*c - im[n]*s
			si += re[n]*s + im[n]*c
		}
		w.setReg(k, in.Dst, f32bits(float32(sr)))
		w.setReg(k, in.Src1, f32bits(float32(si)))
	}
}
