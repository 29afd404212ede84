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
	in, err := c.fetch(pc)
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
	// instruction the whole active group falls through to next.
	next := pc + 1
	if exec == 0 && in.Op != sass.OpVOTE && in.Op != sass.OpWFFT32 {
		// No lane passed its guard. Nothing below touches state then, and
		// only those two opcodes can still trap.
		w.jump(next)
		return nil
	}

	// Operands are resolved to register rows once, outside the lane loops;
	// b[i]+imm is the effective second source. The per-step helpers are plain
	// methods/functions rather than closures so the dispatch loop does not
	// allocate.
	//
	// A register-to-register opcode (rowOps) is one plain loop over all 32
	// lanes into o, and oh for the high word of a pair: the destination rows
	// when the whole warp executes, else scratch rows whose executing lanes
	// are merged in after the switch. A lane reads its own column, before it
	// writes it, so rows may alias. What a dead lane holds costs an integer
	// loop nothing; where it could cost time or fault (float64 paths, memory,
	// stacks) the lanes of exec are walked with a bit scan.
	d, dh := w.dst64(in.Dst)
	a, b := w.src(in.Src1), w.src(in.Src2)
	imm := uint32(int32(in.Imm))
	full := exec == fullMask
	o, oh := d, dh
	merge := !full && rowOps[in.Op]
	if merge {
		o, oh = &c.row[0], &c.row[1]
	}

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
		// The whole warp at one depth: one return PC for the level.
		if d := w.callDepth; exec == w.live && d != perLane && d < maxStackDepth {
			if d == len(w.callPCs) {
				w.growCalls()
			}
			w.callPCs[d], w.callDepth = next, d+1
			w.jump(int32(in.Imm))
			return nil
		}
		return c.callLanes(w, in, exec, pc)

	case sass.OpRET:
		if d := w.callDepth; exec == w.live && d > 0 && w.callPCs[d-1] != mixedPCs {
			w.callDepth = d - 1
			w.jump(w.callPCs[d-1])
			return nil
		}
		return c.retLanes(w, in, exec, pc)

	case sass.OpBAR:
		w.barWait = exec != 0

	case sass.OpMOV:
		if in.Mods.Wide() {
			_, ah := w.src64(in.Src1)
			for i := range o {
				o[i], oh[i] = a[i], ah[i]
			}
			mergeRow(dh, oh, exec)
		} else {
			*o = *a
		}

	case sass.OpMOVI:
		fillRow(o, imm)

	case sass.OpMOVIH:
		lo := w.src(in.Dst)
		for i := range o {
			o[i] = lo[i]&0xFFFFF | uint32(in.Imm)<<20
		}

	case sass.OpS2R:
		c.s2r(w, o, in.Imm)

	case sass.OpP2R:
		single, t := in.Mods.SubOp() == sass.P2RSingle, w.guard(exec, in.Mods.Aux(), false)
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			d[i] = uint32(w.preds[i])
			if single {
				d[i] = t >> uint(i) & 1
			}
		}

	case sass.OpR2P:
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			w.preds[i] = uint8(a[i]) & 0x7f
		}

	case sass.OpSEL:
		t := w.guard(fullMask, in.Mods.Aux(), false)
		for i := range o {
			pick := -(t >> uint(i) & 1) // all ones where the predicate holds
			o[i] = a[i]&pick | b[i]&^pick
		}

	case sass.OpIADD:
		if in.Mods.Wide() {
			_, ah := w.src64(in.Src1)
			_, bh := w.src64(in.Src2)
			for i := range o {
				v := pair(a[i], ah[i]) + pair(b[i], bh[i]) + uint64(in.Imm)
				o[i], oh[i] = uint32(v), uint32(v>>32)
			}
			mergeRow(dh, oh, exec)
		} else {
			for i := range o {
				o[i] = a[i] + b[i] + imm
			}
		}

	case sass.OpIMUL:
		for i := range o {
			o[i] = a[i] * b[i]
		}

	case sass.OpIMAD:
		if in.Mods.Wide() {
			// IMAD.WIDE: 32x32 unsigned multiply + 64-bit add.
			cl, ch := w.src64(in.Src3)
			for i := range o {
				v := uint64(a[i])*uint64(b[i]) + pair(cl[i], ch[i])
				o[i], oh[i] = uint32(v), uint32(v>>32)
			}
			mergeRow(dh, oh, exec)
		} else {
			c3 := w.src(in.Src3)
			for i := range o {
				o[i] = a[i]*b[i] + c3[i]
			}
		}

	case sass.OpISETP:
		var lt, eq uint32
		if in.Mods.Flag() {
			lt, eq = cmpRows[uint32](a, b, imm)
		} else {
			lt, eq = cmpRows[int32](a, b, imm)
		}
		w.setPreds(in.Mods.Aux(), exec, cmpMask(in.Mods.SubOp(), lt, eq))

	case sass.OpSHL:
		for i := range o {
			o[i] = a[i] << ((b[i] + imm) & 31)
		}

	case sass.OpSHR:
		for i := range o {
			o[i] = a[i] >> ((b[i] + imm) & 31)
		}

	case sass.OpLOP:
		switch in.Mods.SubOp() {
		case sass.LopAnd:
			for i := range o {
				o[i] = a[i] & (b[i] + imm)
			}
		case sass.LopOr:
			for i := range o {
				o[i] = a[i] | (b[i] + imm)
			}
		case sass.LopXor:
			for i := range o {
				o[i] = a[i] ^ (b[i] + imm)
			}
		case sass.LopNot:
			for i := range o {
				o[i] = ^a[i]
			}
		}

	case sass.OpPOPC:
		for i := range o {
			o[i] = uint32(bits.OnesCount32(a[i]))
		}

	case sass.OpFADD:
		var slow uint32 // lanes that need the float64 path
		for i := range o {
			if x, y := a[i], b[i]; ordinary(x) && ordinary(y) {
				o[i] = addPlain(x, y)
			} else {
				slow |= 1 << (uint(i) & 31)
			}
		}
		for m := slow & exec; m != 0; m &= m - 1 {
			i := lane(m)
			o[i] = addF32(a[i], b[i])
		}

	case sass.OpFMUL:
		var slow uint32
		for i := range o {
			if x, y := a[i], b[i]; ordinary(x) && ordinary(y) {
				o[i] = mulPlain(x, y)
			} else {
				slow |= 1 << (uint(i) & 31)
			}
		}
		for m := slow & exec; m != 0; m &= m - 1 {
			i := lane(m)
			o[i] = mulF32(a[i], b[i])
		}

	case sass.OpFFMA:
		c3 := w.src(in.Src3)
		var slow uint32
		for i := range o {
			if x, y, z := a[i], b[i], c3[i]; ordinary(x) && ordinary(y) && ordinary(z) {
				o[i] = fmaPlain(x, y, z)
			} else {
				slow |= 1 << (uint(i) & 31)
			}
		}
		for m := slow & exec; m != 0; m &= m - 1 {
			i := lane(m)
			o[i] = fmaF32(a[i], b[i], c3[i])
		}

	case sass.OpFSETP:
		var holds uint32
		for m := exec; m != 0; m &= m - 1 {
			if i := lane(m); cmp(in.Mods.SubOp(), f32(a[i]), f32(b[i])) {
				holds |= 1 << uint(i)
			}
		}
		w.setPreds(in.Mods.Aux(), exec, holds)

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
			}
			d[i] = narrow(v)
		}

	case sass.OpI2F:
		for i := range o {
			o[i] = f32bits(float32(int32(a[i])))
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
		if addr := int(int32(in.Imm)); full && in.Src1 == sass.RZ && addr >= 0 && addr+width <= len(data) {
			// One constant for the whole warp: a kernel parameter, mostly.
			fillRow(d, binary.LittleEndian.Uint32(data[addr:]))
			if mv.wide {
				fillRow(dh, binary.LittleEndian.Uint32(data[addr+4:]))
			}
			break
		}
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
		mask := w.guard(exec, in.Mods.Aux(), false)
		p := sass.Pred(in.Dst & 7)
		switch in.Mods.SubOp() {
		case sass.VoteBallot:
			for m := exec; m != 0; m &= m - 1 {
				d[lane(m)] = mask
			}
		case sass.VoteAny, sass.VoteAll:
			var all uint32 // every lane reads the same answer
			if mask == exec || mask != 0 && in.Mods.SubOp() == sass.VoteAny {
				all = fullMask
			}
			w.setPreds(p, exec, all)
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
		if err := c.savePop(w, in, exec, pc); err != nil {
			return err
		}

	case sass.OpSTSA, sass.OpLDSA, sass.OpSTSP, sass.OpLDSP, sass.OpSTSB, sass.OpLDSB,
		sass.OpRDREG, sass.OpWRREG, sass.OpRDPRED, sass.OpWRPRED:
		if err := c.saveAccess(w, in, exec, pc); err != nil {
			return err
		}

	default:
		return c.trap(FaultInvalidInstruction, pc, in, -1, "unimplemented opcode")
	}
	if merge {
		mergeRow(d, o, exec)
	}
	w.jump(next)
	return nil
}

// rowOps marks the opcodes that step computes a whole row at a time.
var rowOps = [sass.NumOpcodes]bool{
	sass.OpMOV: true, sass.OpMOVI: true, sass.OpMOVIH: true, sass.OpS2R: true, sass.OpSEL: true,
	sass.OpIADD: true, sass.OpIMUL: true, sass.OpIMAD: true, sass.OpSHL: true, sass.OpSHR: true,
	sass.OpLOP: true, sass.OpPOPC: true, sass.OpI2F: true, sass.OpFADD: true, sass.OpFMUL: true, sass.OpFFMA: true,
}

// fillRow gives every lane of a row the same value.
func fillRow(r *[WarpSize]uint32, v uint32) {
	for i := range r {
		r[i] = v
	}
}

// mergeRow copies the lanes of exec from a scratch row to the destination
// row, unless the row was computed in place.
func mergeRow(d, o *[WarpSize]uint32, exec uint32) {
	if o == d {
		return
	}
	for m := exec; m != 0; m &= m - 1 {
		i := lane(m)
		d[i] = o[i]
	}
}

// callLanes executes a CAL lane by lane, on the rows of the lanes' own
// stacks: one under a partial mask, or one that overflows.
func (c *execContext) callLanes(w *warp, in *sass.Inst, exec uint32, pc int32) error {
	next := pc + 1
	w.spillCalls()
	for m := exec; m != 0; m &= m - 1 {
		i := lane(m)
		d := w.callDepths[i]
		if d >= maxStackDepth {
			return c.trap(FaultStackOverflow, pc, in, i, "call stack exceeds %d frames", maxStackDepth)
		}
		if d == len(w.callPCs) {
			w.growCalls()
		}
		w.callRows[d*WarpSize+i], w.callDepths[i] = next, d+1
	}
	w.flattenCalls(exec)
	w.split(exec, int32(in.Imm), next)
	return nil
}

// retLanes executes a RET whose lanes return to PCs of their own: from a
// mixed level of the flat form, under a partial mask, or with an empty stack.
func (c *execContext) retLanes(w *warp, in *sass.Inst, exec uint32, pc int32) error {
	if d := w.callDepth; exec == w.live && d > 0 {
		row := (*[WarpSize]int32)(w.callRows[(d-1)*WarpSize:])
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			w.pc[i] = row[i]
		}
		w.callDepth = d - 1
		w.scatter(exec, pc+1)
		return nil
	}
	w.spillCalls()
	for m := exec; m != 0; m &= m - 1 {
		i := lane(m)
		d := w.callDepths[i]
		if d == 0 {
			return c.trap(FaultStackUnderflow, pc, in, i, "RET with empty call stack")
		}
		w.pc[i], w.callDepths[i] = w.callRows[(d-1)*WarpSize+i], d-1
	}
	w.flattenCalls(exec)
	w.scatter(exec, pc+1)
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
	// When every live lane pushes at one level, no other frame lives in the
	// rows and they are cleared whole; otherwise each lane clears its own
	// column of them.
	if level := w.saveDepth; exec == w.live && level != perLane && level < maxStackDepth {
		if level == len(w.saveN)/WarpSize {
			w.pushLevel()
		}
		clear(w.saveRegs[level*levelWords:][:n*WarpSize])
		h := level * WarpSize
		lens := (*[WarpSize]int32)(w.saveN[h:])
		for i := range lens {
			lens[i] = int32(n)
		}
		clear(w.savePreds[h:][:WarpSize])
		clear(w.saveBars[h:][:WarpSize])
		w.saveDepth = level + 1
		w.cohort, w.cohortLevel, w.cohortLen = exec, level, n
		return nil
	}
	w.spillSaves()
	level, sameLevel := w.saveDepths[lane(exec)], true
	for m := exec; m != 0; m &= m - 1 {
		i := lane(m)
		dp := w.saveDepths[i]
		if dp >= maxStackDepth {
			return c.trap(FaultStackOverflow, pc, in, i, "save stack exceeds %d frames", maxStackDepth)
		}
		if dp == len(w.saveN)/WarpSize {
			w.pushLevel()
		}
		sameLevel = sameLevel && dp == level
	}
	rows := sameLevel && exec == w.live
	if rows {
		clear(w.saveRegs[level*levelWords:][:n*WarpSize])
	}
	for m := exec; m != 0; m &= m - 1 {
		i := lane(m)
		dp := w.saveDepths[i]
		if !rows {
			col := w.saveRegs[dp*levelWords+i:]
			for k := 0; k < n; k++ {
				col[k*WarpSize] = 0
			}
		}
		h := dp*WarpSize + i
		w.saveN[h], w.savePreds[h], w.saveBars[h] = int32(n), 0, 0
		w.saveDepths[i]++
	}
	w.cohort = 0
	if sameLevel {
		w.cohort, w.cohortLevel, w.cohortLen = exec, level, n
	}
	w.flattenSaves()
	return nil
}

// savePop executes SAVEPOP: every executing lane drops its innermost frame.
func (c *execContext) savePop(w *warp, in *sass.Inst, exec uint32, pc int32) error {
	w.cohort &^= exec
	if d := w.saveDepth; exec == w.live && d > 0 {
		w.saveDepth = d - 1
		return nil
	}
	w.spillSaves()
	for m := exec; m != 0; m &= m - 1 {
		i := lane(m)
		if w.saveDepths[i] == 0 {
			return c.trap(FaultStackUnderflow, pc, in, i, "SAVEPOP with empty save stack")
		}
		w.saveDepths[i]--
	}
	w.flattenSaves()
	return nil
}

// saveAccess executes the instructions that address a lane's innermost save
// frame: the save/restore traffic of a trampoline and the device API's
// register reads and writes.
func (c *execContext) saveAccess(w *warp, in *sass.Inst, exec uint32, pc int32) error {
	// A trampoline's save traffic runs on the lanes that pushed together:
	// one slot of their frames is a row, moved against a register row, and
	// their headers are a row too.
	if exec&^w.cohort == 0 {
		switch h := w.cohortLevel * WarpSize; in.Op {
		case sass.OpSTSA, sass.OpLDSA:
			if uint64(in.Imm) < uint64(w.cohortLen) {
				row := (*[WarpSize]uint32)(w.saveRegs[w.cohortLevel*levelWords+int(in.Imm)*WarpSize:])
				if in.Op == sass.OpSTSA {
					moveRow(row, w.src(in.Src1), exec)
				} else {
					moveRow(w.dst(in.Dst), row, exec)
				}
				return nil
			}
		case sass.OpSTSP:
			moveRow((*[WarpSize]uint8)(w.savePreds[h:]), &w.preds, exec)
			return nil
		case sass.OpLDSP:
			moveRow(&w.preds, (*[WarpSize]uint8)(w.savePreds[h:]), exec)
			return nil
		case sass.OpSTSB:
			moveRow((*[WarpSize]uint32)(w.saveBars[h:]), &w.barrier, exec)
			return nil
		case sass.OpLDSB:
			moveRow(&w.barrier, (*[WarpSize]uint32)(w.saveBars[h:]), exec)
			return nil
		}
	}
	d, a := w.dst(in.Dst), w.src(in.Src1)
	for m := exec; m != 0; m &= m - 1 {
		i := lane(m)
		dp := w.saveDepth
		if dp == perLane {
			dp = w.saveDepths[i]
		}
		if dp == 0 {
			return c.trap(FaultStackUnderflow, pc, in, i, "%v with no save frame", in.Op)
		}
		h, slots := (dp-1)*WarpSize+i, (dp-1)*levelWords+i // slot k is saveRegs[slots+k*WarpSize]
		n := w.saveN[h]
		switch in.Op {
		case sass.OpSTSA, sass.OpLDSA:
			if uint64(in.Imm) >= uint64(n) {
				return c.trap(FaultInvalidInstruction, pc, in, i, "save slot %d beyond frame of %d", in.Imm, n)
			}
			if in.Op == sass.OpSTSA {
				w.saveRegs[slots+int(in.Imm)*WarpSize] = a[i]
			} else {
				d[i] = w.saveRegs[slots+int(in.Imm)*WarpSize]
			}
		case sass.OpSTSP:
			w.savePreds[h] = w.preds[i]
		case sass.OpLDSP:
			w.preds[i] = w.savePreds[h]
		case sass.OpSTSB:
			w.saveBars[h] = w.barrier[i]
		case sass.OpLDSB:
			w.barrier[i] = w.saveBars[h]
		case sass.OpRDREG, sass.OpWRREG:
			idx := int(a[i]) + int(in.Imm)
			if idx < 0 || idx >= int(n) {
				return c.trap(FaultInvalidInstruction, pc, in, i, "%v of register %d beyond saved set of %d", in.Op, idx, n)
			}
			if in.Op == sass.OpRDREG {
				d[i] = w.saveRegs[slots+idx*WarpSize]
			} else {
				w.saveRegs[slots+idx*WarpSize] = w.reg(i, in.Src2)
			}
		case sass.OpRDPRED:
			d[i] = uint32(w.savePreds[h])
		case sass.OpWRPRED:
			w.savePreds[h] = uint8(w.reg(i, in.Src2)) & 0x7f
		}
	}
	return nil
}

// moveRow copies the lanes of exec from one row to another: the whole row
// when the whole warp executes. That copy converts its source, because the
// compiler makes an assignment between two array dereferences, which may
// overlap, a runtime.memmove call; the rows never partly overlap.
func moveRow[T uint8 | uint32](to, from *[WarpSize]T, exec uint32) {
	if exec == fullMask {
		*to = [WarpSize]T(*from)
		return
	}
	for m := exec; m != 0; m &= m - 1 {
		i := lane(m)
		to[i] = from[i]
	}
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

// transferRow moves the whole warp to or from the consecutive elements at the
// start of mem. The bytes are spelled out because that, on an array, is what
// compiles to one load and one store per word with no bounds check.
func (mv *mover) transferRow(mem []byte) {
	lo, hi, load := mv.lo, mv.hi, mv.load
	if !mv.wide {
		for i, m := 0, (*[4 * WarpSize]byte)(mem); i < WarpSize; i++ {
			if j := 4 * i; load {
				lo[i] = uint32(m[j]) | uint32(m[j+1])<<8 | uint32(m[j+2])<<16 | uint32(m[j+3])<<24
			} else {
				m[j], m[j+1], m[j+2], m[j+3] = byte(lo[i]), byte(lo[i]>>8), byte(lo[i]>>16), byte(lo[i]>>24)
			}
		}
		return
	}
	for i, m := 0, (*[8 * WarpSize]byte)(mem); i < WarpSize; i++ {
		if j := 8 * i; load {
			lo[i] = uint32(m[j]) | uint32(m[j+1])<<8 | uint32(m[j+2])<<16 | uint32(m[j+3])<<24
			hi[i] = uint32(m[j+4]) | uint32(m[j+5])<<8 | uint32(m[j+6])<<16 | uint32(m[j+7])<<24
		} else {
			m[j], m[j+1], m[j+2], m[j+3] = byte(lo[i]), byte(lo[i]>>8), byte(lo[i]>>16), byte(lo[i]>>24)
			m[j+4], m[j+5], m[j+6], m[j+7] = byte(hi[i]), byte(hi[i]>>8), byte(hi[i]>>16), byte(hi[i]>>24)
		}
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

// cmpRows returns the lanes where a is below b+imm, as T orders them, and
// where the two are equal: each the borrow of a 64-bit subtraction, shifted
// in last lane first, with no branch for the data to mispredict. Out of line,
// so that its loop does not compete with step's variables for registers.
//
//go:noinline
func cmpRows[T int32 | uint32](a, b *[WarpSize]uint32, imm uint32) (lt, eq uint32) {
	for i := WarpSize - 1; i >= 0; i-- {
		x, y := a[i], b[i]+imm
		lt = lt<<1 | uint32(uint64(int64(T(x))-int64(T(y)))>>63)
		eq = eq<<1 | uint32((uint64(x^y)-1)>>63)
	}
	return lt, eq
}

// cmpMask turns those two into the lanes where an ISETP comparison holds.
func cmpMask(sub int, lt, eq uint32) uint32 {
	return [8]uint32{sass.CmpEQ: eq, sass.CmpNE: ^eq, sass.CmpLT: lt, sass.CmpLE: lt | eq, sass.CmpGT: ^(lt | eq), sass.CmpGE: ^lt}[sub&7]
}

// cmp evaluates an FSETP comparison.
func cmp(sub int, a, b float32) bool {
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

// s2r executes S2R as a row operation. Only the lane and thread ids differ
// between the lanes of a warp. A thread id is divided out of the linear
// index once, for the warp's first thread; the others follow by carry.
func (c *execContext) s2r(w *warp, o *[WarpSize]uint32, id int64) {
	switch id {
	case sass.SRLaneID:
		for i := range o {
			o[i] = uint32(i)
		}
	case sass.SRTIDX, sass.SRTIDY, sass.SRTIDZ:
		bx, by := max(c.spec.Block.X, 1), max(c.spec.Block.Y, 1)
		t := w.id * WarpSize
		tid := [3]int{t % bx, t / bx % by, t / (bx * by)}
		for i := range o {
			o[i] = uint32(tid[id-sass.SRTIDX])
			if tid[0]++; tid[0] == bx {
				tid[0] = 0
				if tid[1]++; tid[1] == by {
					tid[1] = 0
					tid[2]++
				}
			}
		}
	default:
		fillRow(o, c.specialReg(w, id))
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
		return uint32(max(b.X, 1))
	case sass.SRNTIDY:
		return uint32(max(b.Y, 1))
	case sass.SRNTIDZ:
		return uint32(max(b.Z, 1))
	case sass.SRNCTAIDX:
		return uint32(max(c.spec.Grid.X, 1))
	case sass.SRNCTAIDY:
		return uint32(max(c.spec.Grid.Y, 1))
	case sass.SRNCTAIDZ:
		return uint32(max(c.spec.Grid.Z, 1))
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
	if exec == fullMask && !straddle && alo[1]-alo[0] == uint32(width) && c.unitAccess(w, in, &mv, width) {
		return nil
	}
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

// unitAccess performs the access of a full warp on consecutive elements,
// aligned and inside the heap — one range check, one copy, lines first..last
// as the lanes meet them — and reports whether it did: anything else, every
// faulting access included, is left to the walk in globalAccess (whose
// registers this loop would compete for if it were there). A span that
// crosses into the next page (one in sixteen 256-byte spans at random
// offsets, such as a channel's records) moves through a row-sized buffer.
// The low words must not wrap: the page arithmetic reads base, offset
// included.
func (c *execContext) unitAccess(w *warp, in *sass.Inst, mv *mover, width uint64) bool {
	d := c.dev
	alo, ahi := w.src64(in.Src1)
	lo0, hi0 := alo[0], ahi[0]
	base, span := pair(lo0, hi0)+uint64(in.Imm), WarpSize*width
	off, want := uint32(0), lo0
	for i := range alo {
		off |= (alo[i] ^ want) | (ahi[i] ^ hi0)
		want += uint32(width)
	}
	if off != 0 || want <= lo0 || base&(width-1) != 0 || !d.inHeap(base, span) {
		return false
	}
	if n := pageSize - base&pageMask; n < span {
		var buf [8 * WarpSize]byte
		if mv.load {
			copy(buf[:n], d.peek(base)[base&pageMask:])
			copy(buf[n:span], d.peek(base + n)[:])
			mv.transferRow(buf[:])
		} else {
			mv.transferRow(buf[:])
			copy(d.touch(base)[base&pageMask:], buf[:n])
			copy(d.touch(base + n)[:], buf[n:span])
		}
	} else if mv.load {
		mv.transferRow(d.peek(base)[base&pageMask:])
	} else {
		mv.transferRow(d.touch(base)[base&pageMask:])
	}
	first, last := base>>d.lineShift, (base+span-1)>>d.lineShift
	c.stats.GlobalAccesses++
	c.stats.GlobalLines += last - first + 1
	for line := first; line <= last; line++ {
		w.cycles += c.lineCost(line)
	}
	return true
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
	sub, float := in.Mods.SubOp(), in.Mods.Flag()
	// The ISA has no FP64 unit, and only these float atomics on 32 bits.
	badFloat := float && (width == 8 || sub != sass.AtomAdd && sub != sass.AtomMin && sub != sass.AtomMax && sub != sass.AtomExch)
	if in.Op == sass.OpRED && sub == sass.AtomAdd && !float && exec != 0 && c.redAddUniform(w, in, exec, width) {
		return nil
	}
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
		if badFloat {
			return c.trap(FaultInvalidInstruction, pc, in, i, "float atomic %s unsupported on %d-bit operands", in.Op.SubOpName(sub), 8*width)
		}
		mu := c.lockAtomic(addr)
		mem := d.touch(addr)[addr&pageMask:]
		if width == 8 {
			old := binary.LittleEndian.Uint64(mem)
			binary.LittleEndian.PutUint64(mem, atomInt(sub, old, w.reg64(i, in.Src2)))
			if in.Op == sass.OpATOM {
				w.setReg64(i, in.Dst, old)
			}
		} else {
			old := binary.LittleEndian.Uint32(mem)
			val := w.reg(i, in.Src2)
			var nv uint32
			switch {
			case !float:
				nv = atomInt(sub, old, val)
			case sub == sass.AtomAdd:
				nv = addF32(old, val)
			case sub == sass.AtomMin:
				nv = minF32u(old, val)
			case sub == sass.AtomMax:
				nv = maxF32u(old, val)
			default: // AtomExch
				nv = val
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

// lockAtomic takes the stripe lock of addr under the parallel scheduler and
// returns it for the caller to release; nil under the sequential one.
func (c *execContext) lockAtomic(addr uint64) *sync.Mutex {
	if !c.locked {
		return nil
	}
	mu := &c.dev.atomLocks[(addr>>3)&(atomStripes-1)]
	mu.Lock()
	return mu
}

// redAddUniform executes an integer RED.ADD whose lanes (exec is not empty)
// all address one word, the counter an instrumentation tool bumps at every
// site, as one read-modify-write of their sum, and reports whether it did; a
// faulting address is left to the loop. Addition commutes, and to other
// workers the lanes arrive back to back, one of the orders they always could.
// The cache is charged as n probes in lane order: the first as it falls, the
// rest hits of the line it brought in (repeating them would advance the LRU
// clock, not reorder it).
func (c *execContext) redAddUniform(w *warp, in *sass.Inst, exec uint32, width uint64) bool {
	alo, ahi := w.src64(in.Src1)
	vlo, vhi := w.src64(in.Src2)
	first := lane(exec)
	var diff uint32
	var sum uint64 // its low word is the sum of the low words
	if exec == fullMask {
		for i := range alo {
			diff |= (alo[i] ^ alo[0]) | (ahi[i] ^ ahi[0])
			sum += pair(vlo[i], vhi[i])
		}
	} else {
		for m := exec; m != 0; m &= m - 1 {
			i := lane(m)
			diff |= (alo[i] ^ alo[first]) | (ahi[i] ^ ahi[first])
			sum += pair(vlo[i], vhi[i])
		}
	}
	addr := pair(alo[first], ahi[first]) + uint64(in.Imm)
	if diff != 0 || addr&(width-1) != 0 || !c.dev.inHeap(addr, width) {
		return false
	}
	mu := c.lockAtomic(addr)
	mem := c.dev.touch(addr)[addr&pageMask:]
	if width == 8 {
		binary.LittleEndian.PutUint64(mem, binary.LittleEndian.Uint64(mem)+sum)
	} else {
		binary.LittleEndian.PutUint32(mem, binary.LittleEndian.Uint32(mem)+uint32(sum))
	}
	if mu != nil {
		mu.Unlock()
	}
	n := uint64(bits.OnesCount32(exec))
	w.cycles += c.lineCost(addr>>c.dev.lineShift) + (n-1)*costL1Hit
	c.stats.L1Hits += n - 1
	c.stats.GlobalAccesses++
	return true
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
