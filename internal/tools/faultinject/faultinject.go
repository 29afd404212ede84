// Package faultinject is a transient-fault injection tool in the NVBitFI
// mold — the SASSIFI-style use case the paper cites (Section 1 and Section
// 6.3's "prior art has used similar functionality to study fault injection").
//
// The unit of targeting is one *dynamic thread-instruction*: every executing
// lane of every eligible instruction increments a device-side counter, and
// the lane whose pre-increment count equals the armed target corrupts its
// just-produced destination register *after* the instruction executes. The
// corruption is applied through the NVBit device API (rdreg/wrreg against the
// saved register image) so it survives the trampoline restore and propagates
// through the program — exactly how architectural error-resilience studies
// perturb state. All four NVBitFI injection models reduce to one update rule,
//
//	new = (old AND andmask) XOR xormask
//
// so the device function never branches on the model.
//
// A Tool is armed once, at AtInit, and injects at most once; a run that
// injects again makes a fresh Tool. Armed with NoTarget it only counts: a
// campaign's golden pass (internal/campaign) reads its counter at the exit of
// every CTA, and those per-CTA populations are the space the planner draws
// targets from. A counter need not know which instruction a lane is at, so
// the disarmed tool counts per basic block, as the paper's Section 3 sketches
// for instruction counting: one call at each block head adds the block's
// unguarded sites per entering lane.
package faultinject

import (
	"fmt"
	"sync"

	"nvbitgo/internal/enum"
	"nvbitgo/internal/sass"
	"nvbitgo/nvbit"
)

// Group is an NVBitFI-style instruction-group filter: which static
// instructions are eligible injection sites.
type Group int

const (
	// GroupGPR: instructions writing a single 32-bit general-purpose
	// destination register (nvbitfi's G_GP).
	GroupGPR Group = iota
	// GroupFP32: FP32-pipe instructions (FADD/FMUL/FFMA/MUFU and the
	// int<->float converts), nvbitfi's G_FP32.
	GroupFP32
	// GroupFP64: instructions producing a 64-bit register-pair result. The
	// simulated ISA has no FP64 unit, so wide integer/address producers
	// stand in for nvbitfi's G_FP64 double-precision group.
	GroupFP64
	// GroupLD: memory loads with a register destination (including ATOM's
	// returned old value), nvbitfi's G_LD.
	GroupLD
	// GroupAll: every instruction writing a non-RZ GPR destination.
	GroupAll
	// NumGroups is the number of instruction groups.
	NumGroups
)

var groupNames = []string{"gpr", "fp32", "fp64", "ld", "all"}

func (g Group) String() string { return enum.Name(groupNames, "Group", g) }

// ParseGroup resolves a group name (as accepted by nvbit-run -fi-group).
func ParseGroup(s string) (Group, error) {
	return enum.Parse[Group](groupNames, "instruction group", s)
}

// Model is an NVBitFI bit-flip model: how the targeted register value is
// corrupted.
type Model int

const (
	// ModelFlip flips one bit (nvbitfi FLIP_SINGLE_BIT).
	ModelFlip Model = iota
	// ModelFlip2 flips two adjacent bits (nvbitfi FLIP_TWO_BITS).
	ModelFlip2
	// ModelRand replaces the value with a random word (nvbitfi RANDOM_VALUE).
	ModelRand
	// ModelZero replaces the value with zero (nvbitfi ZERO_VALUE).
	ModelZero
	// NumModels is the number of injection models.
	NumModels
)

var modelNames = []string{"flip", "flip2", "rand", "zero"}

func (m Model) String() string { return enum.Name(modelNames, "Model", m) }

// ParseModel resolves a model name (as accepted by nvbit-run -fi-model).
func ParseModel(s string) (Model, error) {
	return enum.Parse[Model](modelNames, "injection model", s)
}

// Injection specifies one fault: which dynamic thread-instruction of which
// group fires, and how the destination value is corrupted.
type Injection struct {
	Group  Group  `json:"group"`
	Target uint64 `json:"target"` // 0-based dynamic thread-instruction index within the group
	Model  Model  `json:"model"`
	Bit    uint   `json:"bit"`   // ModelFlip: 0..31; ModelFlip2: 0..30
	Value  uint32 `json:"value"` // ModelRand replacement word
}

// Check is the one statement of which fields each model reads and in what
// range: flip reads a bit in 0..MaxFlipBit, flip2 a bit in 0..MaxFlip2Bit,
// rand a value, and zero neither. A field the model does not read must be
// zero, and a bit past the range is refused because masks would silently
// flip some other bit (or, for flip2's top pair, only one).
func (inj Injection) Check() error {
	maxBit, readsBit := uint(0), true
	switch inj.Model {
	case ModelFlip:
		maxBit = MaxFlipBit
	case ModelFlip2:
		maxBit = MaxFlip2Bit
	case ModelRand, ModelZero:
		readsBit = false
	default:
		return fmt.Errorf("faultinject: unknown model %v", inj.Model)
	}
	switch {
	case readsBit && inj.Bit > maxBit:
		return fmt.Errorf("faultinject: bit %d out of range for model %s (takes 0..%d)", inj.Bit, inj.Model, maxBit)
	case !readsBit && inj.Bit != 0:
		return fmt.Errorf("faultinject: model %s does not read bit (%d)", inj.Model, inj.Bit)
	case inj.Model != ModelRand && inj.Value != 0:
		return fmt.Errorf("faultinject: model %s does not read value (%#x)", inj.Model, inj.Value)
	}
	return nil
}

// masks folds the injection model into the device update rule
// new = (old AND and) XOR xor.
func (inj Injection) masks() (and, xor uint32) {
	switch inj.Model {
	case ModelFlip:
		return ^uint32(0), 1 << (inj.Bit & 31)
	case ModelFlip2:
		// Adjacent pair; at bit 31 the upper flip falls off the register,
		// so the planner draws Bit from 0..30.
		return ^uint32(0), 3 << (inj.Bit & 31)
	case ModelRand:
		return 0, inj.Value
	default: // ModelZero
		return 0, 0
	}
}

func (inj Injection) String() string {
	s := fmt.Sprintf("%s[%d] %s", inj.Group, inj.Target, inj.Model)
	switch inj.Model {
	case ModelFlip:
		s += fmt.Sprintf(" bit %d", inj.Bit)
	case ModelFlip2:
		s += fmt.Sprintf(" bits %d-%d", inj.Bit, inj.Bit+1)
	case ModelRand:
		s += fmt.Sprintf(" value %#08x", inj.Value)
	}
	return s
}

// Device state block layout (one per Tool, stBytes long):
//
//	offset  type  field
//	0       u64   counter: dynamic thread-instructions executed so far
//	8       u64   target: counter value that fires the injection
//	16      u32   andmask
//	20      u32   xormask
//	24      u32   fired (0/1)
//	28      u32   firing lane id
//	32      u32   old register value
//	36      u32   new (corrupted) register value
//	40      u32   static site: instruction word index within its function
//	44      u32   kernel id (instrumentation order)
//
// Arming with target = NoTarget (2^64-1) turns the tool into a pure counter:
// a workload would need ~10^19 dynamic instructions to fire it.
const (
	stBytes  = 48
	NoTarget = ^uint64(0)

	// MaxFlipBit is the highest ModelFlip bit position.
	MaxFlipBit = 31
	// MaxFlip2Bit is the highest ModelFlip2 low bit position (the pair must
	// stay inside the 32-bit word).
	MaxFlip2Bit = 30
)

// toolPTX is the injected device function; its comments say what it does.
const toolPTX = `
// fi_inject runs after each eligible site of the tool's group (disarmed: each
// guarded one), once per executing lane: it counts the lane's dynamic
// thread-instruction and, on the firing one, corrupts the destination
// register. Its state block is laid out as the table above stBytes shows.
//
// It takes the site predicate as its first argument (ArgSitePred) and
// returns immediately for lanes where the original instruction's guard was
// false: a predicated-off lane executes nothing, so it neither counts toward
// the dynamic-instruction space nor hosts an injection.
//
// The 64-bit equality check has no direct dialect form (setp is 32-bit), so
// it is computed half by half: XOR the low words, XOR the high words
// (extracted with shr.b64), OR the two: zero iff the values are equal.

.toolfunc fi_inject(.param .u32 pred, .param .u32 reg, .param .u32 site, .param .u32 kid, .param .u64 st)
{
	.reg .u32 %r<12>;
	.reg .u64 %rd<10>;
	.reg .pred %p<3>;
	// Lanes whose site guard was false did not execute the instruction.
	ld.param.u32 %r0, [pred];
	setp.eq.u32 %p0, %r0, 0;
	@%p0 ret;
	// idx = counter++, per executing lane: the dynamic thread-instruction index.
	ld.param.u64 %rd0, [st];
	mov.u64 %rd2, 1;
	atom.global.add.u64 %rd4, [%rd0], %rd2;
	// Fire iff idx == target, compared as two 32-bit halves (setp is
	// 32-bit only): XOR each half, OR the results, fire on zero.
	ld.global.u64 %rd6, [%rd0+8];
	cvt.u32.u64 %r1, %rd4;
	cvt.u32.u64 %r2, %rd6;
	xor.b32 %r1, %r1, %r2;
	shr.b64 %rd4, %rd4, 32;
	shr.b64 %rd6, %rd6, 32;
	cvt.u32.u64 %r2, %rd4;
	cvt.u32.u64 %r3, %rd6;
	xor.b32 %r2, %r2, %r3;
	or.b32 %r1, %r1, %r2;
	setp.ne.u32 %p1, %r1, 0;
	@%p1 ret;
	// Corrupt the saved register image: new = (old AND and) XOR xor.
	ld.param.u32 %r3, [reg];
	rdreg.b32 %r4, %r3;
	ld.global.u32 %r5, [%rd0+16];
	ld.global.u32 %r6, [%rd0+20];
	and.b32 %r7, %r4, %r5;
	xor.b32 %r7, %r7, %r6;
	wrreg.b32 %r3, %r7;
	// Exactly one dynamic thread-instruction reaches this point per run, so
	// plain stores of the injection record are race-free.
	mov.u32 %r8, 1;
	st.global.u32 [%rd0+24], %r8;
	mov.u32 %r9, %laneid;
	st.global.u32 [%rd0+28], %r9;
	st.global.u32 [%rd0+32], %r4;
	st.global.u32 [%rd0+36], %r7;
	ld.param.u32 %r10, [site];
	st.global.u32 [%rd0+40], %r10;
	ld.param.u32 %r11, [kid];
	st.global.u32 [%rd0+44], %r11;
	ret;
}

// fi_count runs at the head of a basic block, once per entering lane, when
// the tool is disarmed: every lane that enters a block executes each of its
// unguarded instructions once, so it adds their number, cnt, to the counter
// in one step. Guarded sites keep their own fi_inject call.
.toolfunc fi_count(.param .u32 cnt, .param .u64 st)
{
	.reg .u32 %r<2>;
	.reg .u64 %rd<4>;
	ld.param.u32 %r0, [cnt];
	ld.param.u64 %rd0, [st];
	cvt.u64.u32 %rd2, %r0;
	red.global.add.u64 [%rd0], %rd2;
	ret;
}
`

// eligible classifies one static instruction as an injection site: it must
// write a non-RZ general-purpose destination register and not redirect the
// PC. Stores and compares fall out naturally (their first operand is a
// memory reference or a predicate), writes to RZ are architecturally
// discarded so corrupting them is meaningless, and control flow is excluded
// because corrupting a branch's (nonexistent) destination register is not in
// the NVBitFI model — that failure mode arrives via corrupted *inputs* to
// later control flow. ATOM is eligible: it returns the old memory value into
// a GPR, making it a load for grouping purposes.
func eligible(i *nvbit.Instr) (reg sass.Reg, groups [NumGroups]bool, ok bool) {
	return classify(i.Raw())
}

// classify is eligible over the raw instruction encoding; split out so tests
// can probe edge cases (RZ destinations, wide pairs, predication) without a
// lifted function in hand.
func classify(in sass.Inst) (reg sass.Reg, groups [NumGroups]bool, ok bool) {
	if in.Op.IsControlFlow() {
		return sass.RZ, groups, false
	}
	ops := in.Operands()
	if len(ops) == 0 {
		return sass.RZ, groups, false
	}
	op := ops[0]
	if op.Kind != sass.OpdReg || !op.Dst || op.Reg == sass.RZ {
		return sass.RZ, groups, false
	}
	groups[GroupAll] = true
	groups[GroupGPR] = !op.Wide
	groups[GroupFP64] = op.Wide
	switch in.Op {
	case sass.OpFADD, sass.OpFMUL, sass.OpFFMA, sass.OpMUFU, sass.OpI2F, sass.OpF2I:
		groups[GroupFP32] = true
	}
	if in.Op.IsLoad() {
		groups[GroupLD] = true
	}
	return op.Reg, groups, true
}

// Result is the device-side record of what one armed injection did.
type Result struct {
	// Executed is the group's dynamic thread-instructions counted so far.
	// Under OnlyCTA the counter starts at the target CTA's base and nothing
	// counts outside that CTA, so it reads the count through the target CTA
	// (base + its population), not the run's total.
	Executed uint64
	Fired    bool   // the target index was reached
	Lane     uint32 // firing warp lane
	Old      uint32 // value the instruction produced
	New      uint32 // value written back
	Site     uint32 // static instruction word index within its kernel
	Kernel   string // firing kernel name
}

func (r Result) String() string {
	if !r.Fired {
		return fmt.Sprintf("no injection (target beyond %d executed)", r.Executed)
	}
	return fmt.Sprintf("injected %s word %d lane %d: %#08x -> %#08x",
		r.Kernel, r.Site, r.Lane, r.Old, r.New)
}

// Tool arms one fault injection: it corrupts at most one dynamic
// thread-instruction. The injection, instruction-group filter included, is
// fixed at New; AtInit writes it to the device state block.
type Tool struct {
	mu      sync.Mutex
	inj     Injection
	st      uint64   // device state block
	kernels []string // kernel id -> name, instrumentation order
	nv      *nvbit.NVBit

	// OnlyCTA state: only restricts instrumentation to CTA onlyCTA of
	// launch onlyK, whose counter starts at onlyBase; launches counts the
	// launches seen since OnlyCTA was called.
	only     bool
	onlyK    int
	onlyCTA  int
	onlyBase uint64
	launches int
}

// New returns a fault injector armed with inj.
func New(inj Injection) *Tool { return &Tool{inj: inj} }

// AtInit registers the device function and arms the state block: a zero
// counter, the target, the model's masks and a clear firing record.
func (t *Tool) AtInit(n *nvbit.NVBit) {
	if err := n.RegisterToolPTX(toolPTX); err != nil {
		panic(err)
	}
	st, err := n.Malloc(stBytes)
	if err != nil {
		panic(err)
	}
	and, xor := t.inj.masks()
	must(n.WriteU64(st, 0))
	must(n.WriteU64(st+8, t.inj.Target))
	for k, v := range [...]uint32{and, xor, 0, 0, 0, 0, 0, 0} { // offsets 16..44
		must(n.WriteU32(st+16+4*uint64(k), v))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nv = n
	t.st = st
}

// Result reads back the device-side injection record.
func (t *Tool) Result() (Result, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.nv == nil {
		return Result{}, fmt.Errorf("faultinject: Result before AtInit")
	}
	var r Result
	var err error
	if r.Executed, err = t.nv.ReadU64(t.st); err != nil {
		return Result{}, err
	}
	read := func(off uint64) uint32 {
		if err != nil {
			return 0
		}
		var v uint32
		v, err = t.nv.ReadU32(t.st + off)
		return v
	}
	fired := read(24)
	r.Lane = read(28)
	r.Old = read(32)
	r.New = read(36)
	r.Site = read(40)
	kid := read(44)
	if err != nil {
		return Result{}, err
	}
	r.Fired = fired != 0
	if r.Fired && int(kid) < len(t.kernels) {
		r.Kernel = t.kernels[kid]
	}
	return r, nil
}

// OnlyCTA restricts the tool to one CTA of one kernel launch: CTA cta of the
// k-th (0-based) launch after this call runs instrumented with the counter
// set to base, and every other CTA and launch runs the original code. base
// must be the group's dynamic thread-instruction count of everything before
// that CTA, the launches before k and the CTAs of k before cta, so the armed
// target keeps its meaning as an index over the whole run; it is what a
// campaign's launch table gives. Launch k's function is lifted and
// instrumented at k, starts native unless cta is 0, and is switched in at
// the exit of CTA cta-1 and out at the exit of CTA cta (OnCTAExit: a code
// swap, no re-JIT). It runs its original code when launched again, and a
// function never launched at k is never lifted at all. OnCTAExit needs the
// sequential scheduler, so under the parallel one launch k fails with
// ErrToolCallback.
//
// Without OnlyCTA the tool instruments every launch.
func (t *Tool) OnlyCTA(k, cta int, base uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.only, t.onlyK, t.onlyCTA, t.onlyBase, t.launches = true, k, cta, base, 0
}

// AtTerm implements the Tool interface.
func (t *Tool) AtTerm(n *nvbit.NVBit) {}

// AtCUDACall instruments every eligible site of every kernel at its first
// launch, or under OnlyCTA those of the target launch's kernel, switched in
// for the target CTA only.
func (t *Tool) AtCUDACall(n *nvbit.NVBit, exit bool, cbid nvbit.CBID, name string, p *nvbit.CallParams) {
	if exit || cbid != nvbit.CBLaunchKernel {
		return
	}
	f := p.Launch.Func
	t.mu.Lock()
	only, target, cta, base, st := t.only, t.launches == t.onlyK, t.onlyCTA, t.onlyBase, t.st
	t.launches++
	t.mu.Unlock()
	if only && !target {
		if n.IsInstrumented(f) {
			must(n.EnableInstrumented(f, false))
		}
		return
	}
	if !n.IsInstrumented(f) {
		t.instrument(n, f)
	}
	if !only {
		return
	}
	must(n.WriteU64(st, base))
	must(n.EnableInstrumented(f, cta == 0))
	must(n.OnCTAExit(func(exited int) {
		if exited == cta-1 || exited == cta {
			must(n.EnableInstrumented(f, exited == cta-1))
		}
	}))
}

// must routes a failed control or device call through the framework's
// recovery of tool panics (see instrument): in a launch callback it fails
// that launch, and in the OnCTAExit callback it fails the launch at its
// exit, after the kernel has run.
func must(err error) {
	if err != nil {
		panic(fmt.Errorf("faultinject: %w", err))
	}
}

// instrument inserts fi_inject after every eligible site of f in the tool's
// group. Disarmed, it counts the unguarded sites of each basic block with one
// fi_count call at the block's head instead: blocks end at every control-flow
// instruction, EXIT included, so each lane that enters one executes all of
// them once, and the counter at every CTA exit is what the per-site calls
// would leave. A function with indirect control flow has no block view and
// keeps the per-site calls. Armed, every site keeps its own call: the firing
// lane must know its instruction.
func (t *Tool) instrument(n *nvbit.NVBit, f *nvbit.Function) {
	insts, err := n.GetInstrs(f)
	if err != nil {
		// Deliberately routed through the framework's recovery of tool
		// panics: the launch fails with an error wrapping
		// ErrToolCallback, which a campaign classifies as a DUE instead of
		// losing the worker process.
		panic(fmt.Errorf("faultinject: lifting %s: %w", f.Name, err))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kid := len(t.kernels)
	t.kernels = append(t.kernels, f.Name)
	inject := func(i *nvbit.Instr, reg sass.Reg) {
		n.InsertCallArgs(i, "fi_inject", nvbit.IPointAfter,
			nvbit.ArgSitePred(),
			nvbit.ArgConst32(uint32(reg)),
			nvbit.ArgConst32(uint32(i.Idx())),
			nvbit.ArgConst32(uint32(kid)),
			nvbit.ArgDevPtr(t.st))
	}
	if t.inj.Target == NoTarget {
		if blocks, err := n.GetBasicBlocks(f); err == nil {
			for _, bb := range blocks {
				k := 0
				for _, i := range bb.Instrs {
					reg, ok := t.site(i)
					switch {
					case ok && i.Raw().Guarded():
						inject(i, reg)
					case ok:
						k++
					}
				}
				if k > 0 {
					n.InsertCallArgs(bb.Instrs[0], "fi_count", nvbit.IPointBefore,
						nvbit.ArgConst32(uint32(k)), nvbit.ArgDevPtr(t.st))
				}
			}
			return
		}
	}
	for _, i := range insts {
		if reg, ok := t.site(i); ok {
			inject(i, reg)
		}
	}
}

// site reports whether i is an eligible site of the tool's group, and its
// destination register.
func (t *Tool) site(i *nvbit.Instr) (sass.Reg, bool) {
	reg, groups, ok := eligible(i)
	return reg, ok && groups[t.inj.Group]
}

var _ nvbit.Tool = (*Tool)(nil)
