package ptx

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"nvbitgo/internal/sass"
)

// local is one register a tool function's lowering names: a member of a
// declaration or a scratch, a pair when wide.
type local struct {
	reg  sass.Reg
	wide bool
}

func (l local) width() int {
	if l.wide {
		return 2
	}
	return 1
}

// in reports whether s holds l, or either half of it.
func (l local) in(s sass.RegSet) bool { return s.Has(l.reg) || l.wide && s.Has(l.reg+1) }

// callClobbers is what a callee may write: the argument registers (its
// arguments, its result and its own calls' arguments) and the device
// functions' local area.
var callClobbers = func() sass.RegSet {
	s := sass.RegRange(sass.NumRegs).Diff(sass.RegRange(calleeRegBase))
	s.AddRange(abiArgBase, abiMaxArgs)
	return s
}()

// node is what colouring learns about one local.
type node struct {
	local
	conflict sass.RegSet // names and fixed registers live with it
	avoid    sass.RegSet // registers it may not take
	defs     int         // instructions that write it
	def      int         // the last of them
	colour   int         // -1 until coloured
	used     bool
}

// colourScratch is the storage colouring one function needs. A tool's
// functions are compiled at every attach, so it is kept across compiles.
type colourScratch struct {
	live  sass.Liveness
	nodes []node
	rets  []int
	at    []int32
	to    [sass.NumRegs]sass.Reg // name -> register
}

// colourPool's scratch starts at a size that holds a typical tool function,
// so colouring the first few allocates it once.
var colourPool = sync.Pool{New: func() any {
	return &colourScratch{nodes: make([]node, 0, 32), at: make([]int32, 0, 64)}
}}

// colourLocals gives a tool function's locals registers by live range. A
// trampoline saves the prefix of the register file its tool function
// reaches, so every register a local does not need is a save and a restore
// less at every call.
//
// Liveness runs on the lowered body, where each local still has the name
// allocRegs gave it, with every return read as an exit: a local's range ends
// when the function does. Two locals share a register when their ranges do
// not overlap. A local defined where a fixed register (an argument, a call's
// argument or result) is live, or live where one is written, does not take
// it; a local live across a call keeps out of what the callee may write.
//
// Locals take the lowest free register of R0..R3 and those above the last
// argument register, pairs even-aligned; the argument registers stay as the
// marshalling left them, so the Code Generator can keep a constant argument
// in place across calls. The one exception is a local whose only definition
// copies an argument (ld.param) in a body that writes no argument register
// and calls nothing: it is the argument, and its move goes, as does any move
// the colouring turns into a copy onto itself.
func (c *compiler) colourLocals() error {
	sc := colourPool.Get().(*colourScratch)
	defer colourPool.Put(sc)
	// A return reads as an exit while liveness runs: nothing is live after
	// it.
	body := c.out
	sc.rets = sc.rets[:0]
	for i := range body {
		if body[i].Op == sass.OpRET {
			body[i].Op, sc.rets = sass.OpEXIT, append(sc.rets, i)
		}
	}
	live := &sc.live
	live.Reanalyze(body)
	for _, i := range sc.rets {
		body[i].Op = sass.OpRET
	}

	argEnd := abiArgBase // first register above the arguments
	for _, p := range c.params {
		argEnd = max(argEnd, p.Offset+p.Bytes/4)
	}
	args := sass.RegRange(argEnd).Diff(sass.RegRange(abiArgBase))

	// The locals are the names from R16 up, in the order lowering gave
	// them out.
	sc.nodes = slices.Grow(sc.nodes[:0], c.nextReg-(abiArgBase+abiMaxArgs))
	for r := abiArgBase + abiMaxArgs; r < c.nextReg; {
		n := node{local: local{reg: sass.Reg(r), wide: c.pairs.Has(sass.Reg(r))}, colour: -1}
		sc.nodes, r = append(sc.nodes, n), r+n.width()
	}
	nodes := sc.nodes
	var owner [sass.NumRegs]int16 // name -> node index + 1
	for i, n := range nodes {
		for k := 0; k < n.width(); k++ {
			owner[int(n.reg)+k] = int16(i + 1)
		}
	}
	// interfere records that everything in s is live at one point.
	interfere := func(s sass.RegSet) {
		for w, word := range s {
			for ; word != 0; word &= word - 1 {
				if n := owner[w*64+bits.TrailingZeros64(word)]; n > 0 {
					nodes[n-1].conflict = nodes[n-1].conflict.Union(s)
				}
			}
		}
	}
	coalesce := true
	in0, _ := live.LiveIn(0)
	interfere(in0)
	for pc, in := range body {
		defs, uses, _, _ := sass.DefUse(in)
		out, _ := live.LiveOut(pc)
		if in.Op == sass.OpMATCH {
			// Lanes are written as the keys are read, so the destination
			// must not be a source.
			out = out.Union(uses)
		}
		interfere(out.Union(defs))
		coalesce = coalesce && in.Op != sass.OpCAL && defs.Intersect(args).Empty()
		for i := range nodes {
			n := &nodes[i]
			if in.Op == sass.OpCAL && n.in(out) {
				n.avoid = n.avoid.Union(callClobbers)
			}
			if n.in(defs) {
				n.defs++
				n.def = pc
			}
			n.used = n.used || n.in(defs) || n.in(uses)
		}
	}
	fixed := sass.RegRange(abiArgBase + abiMaxArgs)
	for i := range nodes {
		n := &nodes[i]
		n.avoid = n.avoid.Union(n.conflict.Intersect(fixed))
		if in := c.out[n.def]; coalesce && n.defs == 1 && in.Op == sass.OpMOV && !in.Guarded() &&
			in.Mods.Wide() == n.wide && int(in.Src1) >= abiArgBase &&
			int(in.Src1)+n.width() <= argEnd && (!in.Mods.Wide() || in.Src1%2 == 0) {
			n.colour = int(in.Src1)
		}
	}
	for i := range nodes {
		n := &nodes[i]
		if !n.used || n.colour >= 0 {
			continue
		}
		taken := n.avoid
		for j, m := range nodes {
			if j != i && m.colour >= 0 && m.in(n.conflict) {
				taken.AddRange(sass.Reg(m.colour), m.width())
			}
		}
		for r := 0; r+n.width() <= sass.NumRegs; r++ {
			if r == abiArgBase {
				r = argEnd
			}
			if (!n.wide || r%2 == 0) && !taken.Has(sass.Reg(r)) && (!n.wide || !taken.Has(sass.Reg(r+1))) {
				n.colour = r
				break
			}
		}
		if n.colour < 0 {
			return fmt.Errorf("function %s: out of registers", c.f.name)
		}
	}

	for r := range sc.to {
		sc.to[r] = sass.Reg(r)
	}
	for _, n := range nodes {
		if n.used {
			for k := 0; k < n.width(); k++ {
				sc.to[n.reg+sass.Reg(k)] = sass.Reg(n.colour + k)
			}
		}
	}
	renamed := c.out
	sass.RenameRegs(renamed, &sc.to)
	// Drop the moves onto themselves and re-aim branches and call
	// relocations at what is left.
	selfMove := func(in sass.Inst) bool { return in.Op == sass.OpMOV && in.Dst == in.Src1 }
	sc.at = slices.Grow(sc.at[:0], len(renamed)+1)[:len(renamed)+1]
	at := sc.at // old index -> new index
	at[0] = 0
	for i, in := range renamed {
		at[i+1] = at[i]
		if !selfMove(in) {
			at[i+1]++
		}
	}
	out, lines := renamed[:0], c.lines[:0]
	for i, in := range renamed {
		if selfMove(in) {
			continue
		}
		if in.Op == sass.OpBRA {
			in.Imm = int64(at[i+1+int(in.Imm)] - at[i] - 1)
		}
		out, lines = append(out, in), append(lines, c.lines[i])
	}
	for i := range c.relocs {
		c.relocs[i].InstIdx = int(at[c.relocs[i].InstIdx])
	}
	c.out, c.lines = out, lines
	var regs sass.RegSet
	for _, in := range out {
		defs, uses, _, _ := sass.DefUse(in)
		regs = regs.Union(defs).Union(uses)
		if in.Op == sass.OpCAL {
			regs.AddRange(abiArgBase, abiMaxArgs)
		}
	}
	if m := regs.Max(); m >= 0 {
		c.touchReg(sass.Reg(m), false)
	}
	return nil
}
