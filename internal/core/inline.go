package core

import (
	"sort"

	"nvbitgo/internal/sass"
)

// This file implements the inline-injection half of the Code Generator
// (InjectInline). Where the trampoline strategy preserves the live state of a
// visit (coalesce.go) with save/restore routines around a CAL into the tool
// function, the inline strategy proves — via the same backward liveness
// analysis that sizes trampoline save sets — that enough registers are dead at
// the visit's first instruction to hold the tool function's entire working
// set, renames the tool body into those dead registers, and splices it
// directly into the relocated stream: no save frame, no CAL/RET, no
// marshalling through the save area. Both injection strategies lay out the
// same visits; a visit that cannot inline falls back to the trampoline form as
// a whole:
//
//   - the function has indirect control flow (liveness is conservative);
//   - a tool body uses save-frame or device-API opcodes (they trap without a
//     trampoline frame), calls, absolute/indirect jumps, or whole-bank
//     predicate moves;
//   - the dead set is too small to hold the renamed working set.
//
// Arguments read after the first instruction need no rule of their own: a
// trampoline's after bracket saves its frame after the relocated instruction,
// so it marshals the values the instruction left, which is what inline code
// reads live.
//
// The pool is what inlineLiveness proves dead around the visit's first
// instruction: both brackets run next to it, planVisits lets a later site's
// call join only while the instructions it crosses write nothing it reads, and
// the visit's later instructions run after every body has finished.
//
// The dead-register pool is capped at the function's register high-water mark
// (MaxRegs): registers above it are architecturally dead, but allocating them
// would raise the kernel's register demand and with it the occupancy cost of
// instrumentation, which trampolines never pay (their save sets spill to the
// save area instead). The cap is an occupancy policy, not a correctness
// requirement.

// inlineLiveness is the function's liveness with the registers and predicates
// every call's marshalling reads counted as uses at the call's site.
// A body renamed into what this proves dead clobbers no value a later call
// reads — not even one the application itself never reads again, which a
// trampoline, restoring everything it writes, would pass unchanged.
func inlineLiveness(fs *funcState, calls []siteCall) *sass.Liveness {
	uses := make([]sass.RegSet, len(fs.raw))
	puses := make([]sass.PredSet, len(fs.raw))
	for _, c := range calls {
		uses[c.site.idx] = uses[c.site.idx].Union(c.reads)
		puses[c.site.idx] |= c.predReads
	}
	return sass.AnalyzeLivenessWith(fs.raw, uses, puses)
}

// inlineVisit attempts inline injection for one visit, appending it to the
// artifact; live is inlineLiveness. It reports false, with the artifact as it
// found it, when any call of the visit is ineligible; the caller then emits an
// ordinary trampoline.
func (n *NVBit) inlineVisit(art *codeArtifact, fs *funcState, live *sass.Liveness, v visit, head, tail []siteCall) bool {
	if live.Conservative() {
		return false
	}
	liveRegs, livePreds := live.SiteLive(v.first)
	pool := sass.RegRange(fs.f.MaxRegs()).Diff(liveRegs)
	deadPreds := sass.AllPreds &^ livePreds

	// Allocate each call independently from the full pool: bodies never read
	// another body's renamed registers, so reuse across calls is safe and
	// keeps the visit's demand at the largest single working set.
	i0, r0, a0 := len(art.insts), len(art.relocs), len(art.addrs)
	ok := layoutVisit(art, i0, fs.insts[v.first:v.first+v.cover], head, tail, func(group []siteCall) bool {
		for k := range group {
			if !n.spliceCall(art, i0, group, k, pool, deadPreds) {
				return false
			}
		}
		return true
	})
	if !ok {
		art.insts, art.relocs, art.addrs = art.insts[:i0], art.relocs[:r0], art.addrs[:a0]
		return false
	}
	art.addSite(siteArtifact{idx: v.first, cover: v.cover, inline: true}, i0, r0)
	return true
}

// spliceCall renames the tool body of group[k] into dead registers and appends
// its marshalling and body to the site that started at instruction i0. It
// reports false when the body cannot be spliced at all (see
// sass.BodyFootprint, asked once when the function was loaded), the dead set
// cannot hold the working set, or a skip distance is unencodable.
func (n *NVBit) spliceCall(art *codeArtifact, i0 int, group []siteCall, k int, pool sass.RegSet, deadPreds sass.PredSet) bool {
	c := group[k]
	if !c.tf.inlinable {
		return false
	}
	fp := c.tf.footprint
	// The working set: every register the body touches plus the ABI
	// argument registers the marshalling writes (a body may ignore an
	// argument, but the marshalling still needs a renamed target).
	need, pairs := fp.Regs, fp.PairBases
	for _, pr := range c.tf.params {
		width := 1
		if pr.Bytes == 8 {
			width = 2
			pairs.Add(sass.Reg(pr.Offset))
		}
		need.AddRange(sass.Reg(pr.Offset), width)
	}
	regMap, ok := allocRenames(need, pairs, pool)
	if !ok {
		return false
	}
	predMap, ok := allocPredRenames(fp.Preds, deadPreds)
	if !ok {
		return false
	}
	n.marshalArgs(art, i0, group, k, regMap)
	body := sass.RenameBody(c.tf.insts, regMap, predMap)
	emitLen := len(body)
	if emitLen > 0 && body[emitLen-1].Op == sass.OpRET && !body[emitLen-1].Guarded() {
		emitLen-- // the return point is simply the next inline instruction
	}
	for b, in := range body[:emitLen] {
		if in.Op != sass.OpRET {
			art.insts = append(art.insts, in)
			continue
		}
		// An interior return becomes a (possibly guarded) branch over the
		// rest of the body. A branch that targeted the dropped trailing RET
		// keeps working: its target is now the instruction after the body,
		// which is exactly the return point. The skip distance is
		// body-relative and thus placement-independent; it is recorded as a
		// relocation so cached artifacts stay self-describing.
		d := emitLen - b - 1
		if !n.hal.ImmFits(sass.OpBRA, int64(d)) {
			return false
		}
		br := sass.NewInst(sass.OpBRA)
		br.Pred, br.PredNeg = in.Pred, in.PredNeg
		art.relocs = append(art.relocs, reloc{kind: relocInlineSkip, slot: int32(len(art.insts) - i0), aux: int32(d)})
		art.insts = append(art.insts, br)
	}
	return true
}

// allocRenames maps every register in need onto the pool. Registers linked by
// pair constraints (pairs marks the base of each 64-bit pair) form clusters
// that must land on consecutive pool registers; clusters are placed
// longest-first into the tightest pool run that fits.
func allocRenames(need, pairs, pool sass.RegSet) (map[sass.Reg]sass.Reg, bool) {
	regs := need.Regs()
	if len(regs) == 0 {
		return map[sass.Reg]sass.Reg{}, true
	}
	var clusters [][]sass.Reg
	for k, r := range regs {
		if k > 0 && regs[k-1] == r-1 && pairs.Has(r-1) {
			clusters[len(clusters)-1] = append(clusters[len(clusters)-1], r)
		} else {
			clusters = append(clusters, []sass.Reg{r})
		}
	}
	type run struct {
		start sass.Reg
		n     int
	}
	var runs []run
	for _, r := range pool.Regs() {
		if len(runs) > 0 && runs[len(runs)-1].start+sass.Reg(runs[len(runs)-1].n) == r {
			runs[len(runs)-1].n++
		} else {
			runs = append(runs, run{start: r, n: 1})
		}
	}
	order := make([]int, len(clusters))
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(a, b int) bool { return len(clusters[order[a]]) > len(clusters[order[b]]) })
	m := make(map[sass.Reg]sass.Reg, len(regs))
	for _, ci := range order {
		cl := clusters[ci]
		best := -1
		for ri := range runs {
			if runs[ri].n >= len(cl) && (best < 0 || runs[ri].n < runs[best].n) {
				best = ri
			}
		}
		if best < 0 {
			return nil, false
		}
		for k, r := range cl {
			m[r] = runs[best].start + sass.Reg(k)
		}
		runs[best].start += sass.Reg(len(cl))
		runs[best].n -= len(cl)
	}
	return m, true
}

// allocPredRenames maps every body predicate onto a dead predicate.
func allocPredRenames(need, dead sass.PredSet) (map[sass.Pred]sass.Pred, bool) {
	m := make(map[sass.Pred]sass.Pred)
	for p := sass.Pred(0); p < sass.NumPreds; p++ {
		if !need.Has(p) {
			continue
		}
		found := false
		for d := sass.Pred(0); d < sass.NumPreds; d++ {
			if dead.Has(d) {
				m[p] = d
				dead &^= 1 << d
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return m, true
}
