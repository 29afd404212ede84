package core

import "nvbitgo/internal/sass"

// This file decides what one trampoline covers. The unit of code generation is
// a visit: a straight-line run of instrumented instructions inside one basic
// block, relocated together, with every injected call in one of at most two
// save … calls … restore brackets — one before the run's first instruction,
// one after it — and a single jump back. A visit starts at an instrumented
// instruction and takes in the next one only while every call of that
// instruction may run at the visit's last bracket instead of at its own site;
// a call that may not move ends the visit, and its site starts the next one, so
// a tool whose functions cannot move gets the one-instruction visits the
// generator always made. Only the first instruction of a visit is replaced by
// a jump; the others stay where they are, unreachable, since no branch lands
// inside a basic block.
//
// A call may run earlier, over original instructions, only when
//
//	(i)   none of them is control flow or a barrier (a block leader cannot be
//	      among them: a visit never leaves its block),
//	(ii)  none of them writes a register or predicate the call's arguments
//	      read — arguments are marshalled from the bracket's save frame, so it
//	      must still hold the values they have at the call's own site,
//	(iii) its tool function does not care where it runs (toolFunc.pinned) and,
//	      if it loads memory, none of them stores to memory.
//
// Calls keep their insertion order: a joining call goes to the end of the
// visit's last bracket.

// visit is one planned trampoline.
type visit struct {
	first, cover int  // the instructions covered: cover of them from word first
	calls        span // the visit's resolved calls, in insertion order
	// head of the calls run in the bracket before the first instruction, the
	// rest in the one after it. No calls at all is a removal in place.
	head int
}

// crossed is what the instructions between a visit's last bracket and the
// next candidate call do, as far as rules (i)–(iii) ask.
type crossed struct {
	defs   sass.RegSet
	pdefs  sass.PredSet
	stores bool
	fence  bool // control flow or a barrier
}

func (x *crossed) add(in sass.Inst) {
	defs, _, pdefs, _ := sass.DefUse(in)
	x.defs = x.defs.Union(defs)
	x.pdefs |= pdefs
	x.stores = x.stores || in.Op.IsStore()
	x.fence = x.fence || in.Op == sass.OpBAR || in.Op.IsControlFlow()
}

// admits reports whether every call of group may move up over the crossed
// instructions.
func (x *crossed) admits(group []siteCall) bool {
	for k := range group {
		c := &group[k]
		if x.fence || c.tf.pinned() || c.tf.loads && x.stores ||
			!c.reads.Intersect(x.defs).Empty() || c.predReads&x.pdefs != 0 {
			return false
		}
	}
	return true
}

// planVisits resolves every call request of the function and partitions its
// instrumented instructions into visits, the same ones for every injection
// mode. Functions with indirect control flow (no basic blocks, no liveness)
// and the test hook keep one visit per instrumented instruction, laid out as
// before visits existed. The rules read each instruction's own def sets, not
// the liveness fixed point, so planning runs no dataflow analysis. The two
// arrays are the workspace's, valid until the next function's planning.
func (n *NVBit) planVisits(fs *funcState) ([]siteCall, []visit, error) {
	nSites, nCalls := 0, 0
	for _, i := range fs.insts {
		if i.hasWork() {
			nSites++
			nCalls += fs.plan.count(i.before) + fs.plan.count(i.after)
		}
	}
	// Both counts are exact, so appending never moves either array.
	n.ws.calls, n.ws.visits = reuse(n.ws.calls, nCalls), reuse(n.ws.visits, nSites)
	calls, visits := n.ws.calls, n.ws.visits
	perSite := n.perSiteVisits || fs.hasICF
	var (
		open bool    // the last visit may take in the next instruction
		x    crossed // what lies between that visit's last bracket and the next instruction
		end  int     // where its basic block ends
		blk  int     // the basic block the walk is in
		err  error
	)
	for idx, i := range fs.insts {
		if !i.hasWork() {
			open = false
			continue
		}
		c0 := len(calls)
		if calls, err = n.resolveCalls(calls, i, i.before); err != nil {
			return nil, nil, err
		}
		head := len(calls) - c0
		if calls, err = n.resolveCalls(calls, i, i.after); err != nil {
			return nil, nil, err
		}
		mine := calls[c0:]
		if open && idx < end && len(mine) > 0 && x.admits(mine[:head]) {
			x.add(*i.inst()) // after-calls cross the instruction itself as well
			if x.admits(mine[head:]) {
				v := &visits[len(visits)-1]
				if v.head == int(v.calls.n) {
					v.head += len(mine)
				}
				v.calls.n += int32(len(mine))
				v.cover++
				continue
			}
		}
		visits = append(visits, visit{first: idx, cover: 1, calls: span{int32(c0), int32(len(mine))}, head: head})
		open = !perSite && len(mine) > 0
		if !open {
			continue
		}
		for ; idx >= end; blk++ {
			b := fs.blocks[blk].Instrs
			end = int(b[0].idx) + len(b)
		}
		// The first instruction's after-calls join its before-calls when they
		// may cross it; otherwise theirs is the bracket later calls join, and
		// nothing lies between it and the next instruction yet.
		x = crossed{}
		x.add(*i.inst())
		if head > 0 && x.admits(mine[head:]) {
			visits[len(visits)-1].head = len(mine)
		} else {
			x = crossed{}
		}
	}
	return calls, visits, nil
}
