package core

import (
	"fmt"

	"nvbitgo/internal/gpu"
	"nvbitgo/internal/sass"
)

// buildArtifact runs the device-independent half of the Code Generator: it
// builds one trampoline body per visit — a straight-line run of instrumented
// instructions (planVisits) — and records relocations for every immediate that
// depends on device placement (save/restore routines, tool-function load
// addresses, the return jump, relocated relative branches). It performs no
// device writes and no trampoline allocation, so its output is a pure function
// of (function bytes, plan, tool sources, family, MaxRegs, injection mode) —
// exactly the inputs the cache key covers, which is what makes artifacts
// shareable across attaches.
func (n *NVBit) buildArtifact(fs *funcState) (*codeArtifact, error) {
	calls, visits, err := n.planVisits(fs)
	if err != nil {
		return nil, err
	}
	// Count what the trampolines hold — the relocated instructions (with a
	// relocation for a relative branch, which only ends a visit) and the jump
	// back; per bracket a save and a restore call; per call the CAL and a word
	// (two where an immediate takes MOVI and MOVIH) for each 32 bits of
	// argument it marshals — so the artifact's three arrays are each allocated
	// once. Where a visit needs more (predicate arguments, an inlined body),
	// append grows the array as usual.
	words, relocs := 0, 0
	argWords := 2
	if n.hal.ImmFits(sass.OpMOVI, 1<<31) {
		argWords = 1
	}
	for _, v := range visits {
		if v.calls.n == 0 {
			continue
		}
		words += v.cover + 1
		relocs += 2
		vc := of(v.calls, calls)
		for _, group := range [2][]siteCall{vc[:v.head], vc[v.head:]} {
			if len(group) > 0 {
				words += 2
				relocs += 2
			}
			for k := range group {
				words++
				relocs++
				for a, arg := range group[k].cr.args {
					if !reusesArg(group, k, a) {
						words += arg.bytes() / 4 * argWords
					}
				}
			}
		}
	}
	art := &codeArtifact{
		sites:  make([]siteArtifact, 0, len(visits)),
		insts:  make([]sass.Inst, 0, words),
		relocs: make([]reloc, 0, relocs),
	}
	var inlineLive *sass.Liveness
	if n.injectMode == InjectInline {
		inlineLive = inlineLiveness(fs, calls)
	}
	for _, v := range visits {
		// Removal without injected calls degenerates to an in-place NOP.
		if v.calls.n == 0 {
			art.sites = append(art.sites, siteArtifact{idx: v.first, cover: 1, nopOnly: true})
			continue
		}
		vc := of(v.calls, calls)
		// Inline injection: when liveness proves enough dead registers to
		// hold every injected body's renamed working set, splice the bodies
		// into the relocated stream and skip the save/restore machinery
		// entirely. Any ineligible call falls the whole visit back to
		// save/CAL/restore.
		if inlineLive == nil || !n.inlineVisit(art, fs, inlineLive, v, vc[:v.head], vc[v.head:]) {
			n.trampolineVisit(art, fs, v, vc)
		}
	}
	return art, nil
}

// siteCall is one injected call resolved against the loaded tool functions
// and the instrumented instruction.
type siteCall struct {
	cr   *callRequest
	tf   *toolFunc
	site *Instr // the instruction the call was inserted at
	// reads and predReads are the site's registers and predicates the
	// argument marshalling reads. A trampoline's save set must cover them;
	// inline renaming must not hand them out as targets (inlineLiveness); a
	// call moves over no instruction that writes them.
	reads     sass.RegSet
	predReads sass.PredSet
}

// resolveCalls looks up and validates one group of call requests and appends
// them to calls.
func (n *NVBit) resolveCalls(calls []siteCall, i *Instr, group []*callRequest) ([]siteCall, error) {
	for _, cr := range group {
		tf, err := n.loader.lookup(cr.funcName)
		if err != nil {
			return nil, err
		}
		if err := validateArgs(tf, cr.args); err != nil {
			return nil, err
		}
		c := siteCall{cr: cr, tf: tf, site: i}
		for _, a := range cr.args {
			switch a.kind {
			case argRegVal:
				c.reads.AddRange(sass.Reg(a.reg), 1)
			case argRegVal64:
				c.reads.AddRange(sass.Reg(a.reg), 2)
			case argPredVal:
				c.predReads.Add(a.pred)
			case argGuardPred:
				c.predReads.Add(i.inst.Pred)
			case argMRefAddr:
				mref, ok := i.inst.MemOperand()
				if !ok {
					return nil, fmt.Errorf("nvbit: ArgMRefAddr on %s word %d: instruction has no memory operand", i.fs.f.Name, i.idx)
				}
				width := 1
				if mref.Space == sass.MemGlobal {
					width = 2 // 64-bit base register pair
				}
				c.reads.AddRange(mref.Base, width)
			}
		}
		calls = append(calls, c)
	}
	return calls, nil
}

// layoutVisit is the skeleton every injection strategy shares: the calls that
// run before the visit's first instruction, that instruction relocated (step 5
// of Figure 4) or a NOP when nvbit_remove_orig was requested, the calls that
// run after it, the visit's other instructions the same way, and the jump back
// to the instrumented code at the program counter after the last of them. It
// appends to the artifact's arrays; the visit's code started at instruction
// i0, which is what relocation slots count from. emitGroup appends one group's
// code and reports whether it could. A relocated relative control-flow
// instruction must have its offset adjusted for its new position (Section
// 5.1), which depends on the trampoline base; the relocation marks the slot,
// which keeps the original immediate until then.
func layoutVisit(art *codeArtifact, i0 int, insts []*Instr, head, tail []siteCall, emitGroup func([]siteCall) bool) bool {
	if !emitGroup(head) {
		return false
	}
	for k, i := range insts {
		if i.removeOrig {
			art.insts = append(art.insts, sass.NewInst(sass.OpNOP))
		} else {
			if i.inst.Op.IsRelativeBranch() {
				art.relocs = append(art.relocs, reloc{kind: relocRelBranch, slot: int32(len(art.insts) - i0)})
			}
			art.insts = append(art.insts, i.inst)
		}
		if k == 0 && !emitGroup(tail) {
			return false
		}
	}
	art.relocs = append(art.relocs, reloc{kind: relocRetJump, slot: int32(len(art.insts) - i0)})
	art.insts = append(art.insts, sass.NewInst(sass.OpJMP))
	return true
}

// trampolineVisit appends the save/CAL/restore form of a visit to the
// artifact: vc[:v.head] in one bracket before the first instruction, the rest
// in one after it.
func (n *NVBit) trampolineVisit(art *codeArtifact, fs *funcState, v visit, vc []siteCall) {
	hal := n.hal
	f := fs.f
	// Size the save set per visit. The frame always holds every injected
	// function's registers and every register the argument marshalling reads
	// (added below): nothing else is written by trampoline code, and registers
	// above the frame are never touched, so skipping them cannot change tool
	// output. A function that can look at the saved context (rdreg and
	// friends) must also find in it whatever the application has live around
	// the instruction, operands included: the registers the liveness pass
	// proves live at the visit's first site, the only one whose calls can be
	// pinned, clipped to the function's register requirement, which is also
	// the fallback when the analysis is conservative.
	maxRegs := 0
	for _, c := range vc {
		if !c.tf.inlinable {
			maxRegs = f.MaxRegs()
			if live := fs.liveness(); !live.Conservative() {
				rs, _ := live.SiteLive(v.first)
				maxRegs = min(maxRegs, rs.Max()+1)
			}
			break
		}
	}
	for _, c := range vc {
		maxRegs = max(maxRegs, c.tf.numRegs, c.reads.Max()+1)
	}
	saveN := hal.SaveSetSize(maxRegs)
	// SavedRegs counts the registers a bracket must preserve (the
	// liveness-derived requirement), not the granularity-rounded frame the
	// HAL caches save routines by: the requirement is the quantity the
	// paper's minimality claim is about, and rounding would mask per-site
	// variation below one granule.
	site := siteArtifact{idx: v.first, cover: v.cover, saveN: saveN, savedRegs: maxRegs}
	if n.injectMode == InjectFullSave {
		site.saveN, site.savedRegs = hal.RegsPerThread, hal.RegsPerThread
	}
	i0, r0 := len(art.insts), len(art.relocs)
	emitCall := func(kind relocKind, aux int32) {
		art.relocs = append(art.relocs, reloc{kind: kind, slot: int32(len(art.insts) - i0), aux: aux})
		art.insts = append(art.insts, sass.NewInst(sass.OpCAL))
	}
	layoutVisit(art, i0, fs.insts[v.first:v.first+v.cover], vc[:v.head], vc[v.head:], func(group []siteCall) bool {
		if len(group) == 0 {
			return true
		}
		emitCall(relocSaveFn, int32(site.saveN))
		for k, c := range group {
			art.insts = n.marshalArgs(art.insts, group, k, nil)
			emitCall(relocToolFn, art.toolIndex(c.cr.funcName))
		}
		emitCall(relocRestoreFn, int32(site.saveN))
		return true
	})
	art.addSite(site, i0, r0)
}

// materializeArtifact is the device-side half of the Code Generator: it
// copies the original code into system memory, allocates trampoline space,
// resolves each site's relocations against this attach's save/restore and
// tool-function load addresses, writes the trampolines to the device, and
// substitutes each instrumented instruction with a jump to its trampoline.
// Relocations are resolved in the artifact's own instructions: the cache holds
// an artifact as bytes, and the one passed here was built or decoded for this
// attach alone, which is done with it when this returns. Trampolines that land
// back to back — all that one bulk chunk holds — are encoded into trampRaw and
// written to the device together.
// Inserting trampolines preserves the instruction layout — instrumented and
// original code have the exact same size and occupy the same location in GPU
// memory, so absolute jumps keep working regardless of which version is
// resident.
func (n *NVBit) materializeArtifact(fs *funcState, art *codeArtifact) error {
	hal := n.hal
	ib, codec := hal.InstBytes, hal.Codec()
	if fs.instrCode == nil {
		fs.instrCode = append([]byte(nil), fs.origCode...)
	}
	f := fs.f
	// A tool function's address and a frame size's routines are asked of the
	// loader at their first use in the function and remembered for the rest
	// of it. The loader loads on demand, so first uses in site order keep
	// every device allocation where resolving each relocation afresh put it.
	type frame struct {
		n             int32
		save, restore int64
	}
	frames := make([]frame, 0, 4)
	tools := make([]int64, len(art.toolNames)) // 0: not asked yet; word 0 holds no code
	// The pending run: encoded trampolines not yet written, destined for
	// runBase onward. One bulk chunk bounds it, and so does the function.
	run, runBase := n.trampRaw[:0], gpu.CodeAddr(0)
	if need := min(len(art.insts), trampChunkWords) * ib; cap(run) < need {
		run = make([]byte, 0, need)
	}
	flush := func() error {
		if len(run) == 0 {
			return nil
		}
		return n.Device().WriteCode(runBase, run)
	}
	for si := range art.sites {
		site := &art.sites[si]
		// The artifact may come from a cache file: what it says it covers must
		// lie inside this function.
		if site.idx < 0 || site.cover < 1 || site.idx+site.cover > f.NumWords {
			return fmt.Errorf("nvbit: artifact site covers words %d to %d of %s, which has %d: %w",
				site.idx, site.idx+site.cover, f.Name, f.NumWords, errArtifactValue)
		}
		if site.nopOnly {
			nop := sass.NewInst(sass.OpNOP)
			if err := codec.Encode(nop, fs.instrCode[site.idx*ib:]); err != nil {
				return err
			}
			continue
		}
		tr, relocs := of(site.insts, art.insts), of(site.relocs, art.relocs)
		// Device-placement-independent relocations first (save/restore and
		// tool functions load on demand, before trampoline space is carved,
		// preserving the pre-artifact device allocation order).
		for _, rl := range relocs {
			switch rl.kind {
			case relocSaveFn, relocRestoreFn:
				k := 0
				for k < len(frames) && frames[k].n != rl.aux {
					k++
				}
				if k == len(frames) {
					save, restore, err := n.loader.saveRestore(int(rl.aux))
					if err != nil {
						return err
					}
					frames = append(frames, frame{rl.aux, int64(save), int64(restore)})
				}
				if rl.kind == relocSaveFn {
					tr[rl.slot].Imm = frames[k].save
					n.stats.SavedRegs += site.savedRegs
				} else {
					tr[rl.slot].Imm = frames[k].restore
				}
			case relocToolFn:
				if tools[rl.aux] == 0 {
					tf, err := n.loader.lookup(art.toolNames[rl.aux])
					if err != nil {
						return err
					}
					tools[rl.aux] = int64(tf.addr)
				}
				tr[rl.slot].Imm = tools[rl.aux]
			case relocRetJump:
				tr[rl.slot].Imm = int64(f.Addr) + int64(site.idx+site.cover)
			case relocInlineSkip:
				// Skip over (part of) an inlined body: the distance is
				// body-relative, so it is placement-independent and carried
				// verbatim in the relocation.
				if !hal.ImmFits(sass.OpBRA, int64(rl.aux)) {
					return fmt.Errorf("nvbit: inline skip in %s at word %d out of branch range (%d)", f.Name, site.idx, rl.aux)
				}
				tr[rl.slot].Imm = int64(rl.aux)
			}
		}
		base, err := n.loader.allocTramp(len(tr))
		if err != nil {
			return err
		}
		if base != runBase+gpu.CodeAddr(len(run)/ib) {
			if err := flush(); err != nil {
				return err
			}
			run, runBase = run[:0], base
		}
		for _, rl := range relocs {
			if rl.kind != relocRelBranch {
				continue
			}
			origTarget := int64(f.Addr) + int64(site.idx+site.cover) + tr[rl.slot].Imm
			newImm := origTarget - (int64(base) + int64(rl.slot) + 1)
			if !hal.ImmFits(sass.OpBRA, newImm) {
				return fmt.Errorf("nvbit: relocated branch in %s at word %d cannot reach its target (offset %d)", f.Name, site.idx, newImm)
			}
			tr[rl.slot].Imm = newImm
		}
		enc, err := codec.AppendEncode(run, tr)
		if err != nil {
			return fmt.Errorf("nvbit: encoding trampoline for %s word %d: %w", f.Name, site.idx, err)
		}
		run = enc
		// Substitute the instrumented instruction with an unguarded jump
		// to the trampoline; every active thread enters it, and the guard
		// predicate travels as an argument when the tool asked for it.
		jmp := sass.NewInst(sass.OpJMP)
		jmp.Imm = int64(base)
		if err := codec.Encode(jmp, fs.instrCode[site.idx*ib:]); err != nil {
			return err
		}
		if site.inline {
			n.stats.InlinedSites += site.cover
			n.stats.InlineWords += len(tr)
		} else {
			n.stats.Visits++
			n.stats.TrampolinesEmitted += site.cover
			n.stats.TrampolineWords += len(tr)
		}
	}
	n.trampRaw = run
	if err := flush(); err != nil {
		return err
	}
	fs.instrumented = true
	fs.dirty = false
	return nil
}

// reusesArg reports whether argument a of group[k] is already in its ABI
// register when that call's marshalling starts: the call before it in the
// bracket was to the same tool function with the same constant there, and the
// function's body leaves its parameter registers alone.
func reusesArg(group []siteCall, k, a int) bool {
	if k == 0 || group[k-1].tf != group[k].tf || !group[k].tf.keepsParams {
		return false
	}
	arg := group[k].cr.args[a]
	return (arg.kind == argImm32 || arg.kind == argImm64 || arg.kind == argCBank) && group[k-1].cr.args[a] == arg
}

// marshalArgs appends to out the argument-passing sequence for the injected
// call group[k], placing each argument in its ABI register according to the
// device calling convention. regMap says where the interrupted thread's state
// is read from. A nil regMap is the trampoline: state comes from the save
// frame (LDSA, RDPRED), not from live registers, which earlier marshalling or
// previous injected calls may have clobbered, and group is the bracket, whose
// previous call may have left a constant in place (reusesArg). A non-nil
// regMap is the inline splice: the ABI registers are renamed through it and
// state is read live (MOV, P2R.ONE) — safe because inline code written so far
// has only touched renamed dead registers and predicates.
func (n *NVBit) marshalArgs(out []sass.Inst, group []siteCall, k int, regMap map[sass.Reg]sass.Reg) []sass.Inst {
	c, site := group[k], group[k].site
	live := regMap != nil
	// readRegs leaves the site's register r (a pair when width is 2) in dst.
	readRegs := func(dst, r sass.Reg, width int) {
		if live {
			mv := sass.NewInst(sass.OpMOV)
			mv.Dst, mv.Src1 = dst, r
			mv.Mods = sass.MakeMods(0, width == 2, false, sass.PT)
			out = append(out, mv)
			return
		}
		for k := 0; k < width; k++ {
			ld := sass.NewInst(sass.OpLDSA)
			ld.Dst, ld.Imm = dst+sass.Reg(k), int64(r)+int64(k)
			out = append(out, ld)
		}
	}
	loadImm64 := func(dst sass.Reg, v uint64) {
		out = sass.AppendLoadImm32(out, n.hal.family, dst, uint32(v))
		out = sass.AppendLoadImm32(out, n.hal.family, dst+1, uint32(v>>32))
	}
	for ai, a := range c.cr.args {
		abi := sass.Reg(c.tf.params[ai].Offset)
		if live {
			abi = regMap[abi]
		} else if reusesArg(group, k, ai) {
			continue
		}
		switch a.kind {
		case argRegVal:
			readRegs(abi, sass.Reg(a.reg), 1)
		case argRegVal64:
			readRegs(abi, sass.Reg(a.reg), 2)
		case argImm32:
			out = sass.AppendLoadImm32(out, n.hal.family, abi, uint32(a.imm))
		case argImm64:
			loadImm64(abi, a.imm)
		case argCBank:
			ld := sass.NewInst(sass.OpLDC)
			ld.Dst, ld.Src1, ld.Imm = abi, sass.RZ, int64(a.off)
			ld.Mods = sass.MakeMods(a.bank, false, false, sass.PT)
			out = append(out, ld)
		case argPredVal, argGuardPred:
			p, neg := a.pred, a.predNeg
			if a.kind == argGuardPred {
				p, neg = site.inst.Pred, site.inst.PredNeg
			}
			out = predValSeq(out, abi, p, neg, live)
		case argMRefAddr:
			// The 64-bit effective address of the site's memory reference
			// (resolveCalls checked there is one): the base register plus
			// the encoded offset, added with a wide IADD. Global references
			// use a 64-bit base pair; shared, local and constant references
			// a 32-bit base (zero-extended), and an RZ base degenerates to
			// the absolute offset.
			mref, _ := site.inst.MemOperand()
			if mref.Base == sass.RZ {
				loadImm64(abi, uint64(mref.Offset))
				break
			}
			if mref.Space == sass.MemGlobal {
				readRegs(abi, mref.Base, 2)
			} else {
				readRegs(abi, mref.Base, 1)
				hi := sass.NewInst(sass.OpMOVI)
				hi.Dst = abi + 1
				out = append(out, hi)
			}
			if mref.Offset != 0 {
				add := sass.NewInst(sass.OpIADD)
				add.Dst, add.Src1, add.Src2, add.Imm = abi, abi, sass.RZ, mref.Offset
				add.Mods = sass.MakeMods(0, true, false, sass.PT)
				out = append(out, add)
			}
		}
	}
	return out
}

// predValSeq appends to out code leaving the value of predicate p at the
// site, as 0/1, in dst: from the live bank through a single-predicate P2R, or
// from the saved predicate image (RDPRED, which traps without a save frame).
// PT is constant-folded.
func predValSeq(out []sass.Inst, dst sass.Reg, p sass.Pred, neg, live bool) []sass.Inst {
	if p == sass.PT {
		mv := sass.NewInst(sass.OpMOVI)
		mv.Dst = dst
		if !neg {
			mv.Imm = 1
		}
		return append(out, mv)
	}
	if live {
		rd := sass.NewInst(sass.OpP2R)
		rd.Dst = dst
		rd.Mods = sass.MakeMods(sass.P2RSingle, false, false, p)
		out = append(out, rd)
	} else {
		rd := sass.NewInst(sass.OpRDPRED)
		rd.Dst = dst
		sh := sass.NewInst(sass.OpSHR)
		sh.Dst, sh.Src1, sh.Src2, sh.Imm = dst, dst, sass.RZ, int64(p)
		and := sass.NewInst(sass.OpLOP)
		and.Dst, and.Src1, and.Src2, and.Imm = dst, dst, sass.RZ, 1
		and.Mods = sass.MakeMods(sass.LopAnd, false, false, sass.PT)
		out = append(out, rd, sh, and)
	}
	if neg {
		x := sass.NewInst(sass.OpLOP)
		x.Dst, x.Src1, x.Src2, x.Imm = dst, dst, sass.RZ, 1
		x.Mods = sass.MakeMods(sass.LopXor, false, false, sass.PT)
		out = append(out, x)
	}
	return out
}
