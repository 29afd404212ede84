package memaccess

import (
	"fmt"
	"testing"

	"nvbitgo/gpusim"
	"nvbitgo/nvbit"
)

// accessKernel: every thread loads the 8-byte word at data[tid]; the even
// threads then store their tid over its low half under a guard.
const accessKernel = `
.visible .entry access(.param .u64 data)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<6>;
	.reg .pred %p<2>;
	mov.u32 %r0, %tid.x;
	ld.param.u64 %rd0, [data];
	mul.wide.u32 %rd2, %r0, 8;
	add.u64 %rd0, %rd0, %rd2;
	ld.global.u64 %rd4, [%rd0];
	and.b32 %r1, %r0, 1;
	setp.eq.u32 %p0, %r1, 0;
	@%p0 st.global.u32 [%rd0], %r0;
	exit;
}
`

// record is one delivered access, its site copied.
type record struct {
	addr uint64
	lane int
	site Site
}

// probe is a tool that only collects: it keeps every delivered record and
// the instructions of the kernel it instrumented.
type probe struct {
	acc   *Collector
	insts []*nvbit.Instr
	recs  []record
}

func (p *probe) AtInit(n *nvbit.NVBit) {
	var err error
	p.acc, err = Open(n, "probe", 1<<10, nvbit.ChannelBlock, func(addr uint64, lane int, s *Site) {
		p.recs = append(p.recs, record{addr, lane, *s})
	})
	if err != nil {
		panic(err)
	}
}

func (p *probe) AtTerm(n *nvbit.NVBit) {}

func (p *probe) AtCUDACall(n *nvbit.NVBit, exit bool, cbid nvbit.CBID, name string, params *nvbit.CallParams) {
	if cbid != nvbit.CBLaunchKernel || exit {
		return
	}
	if err := p.acc.Instrument(n, params.Launch.Func); err != nil {
		panic(err)
	}
	var err error
	if p.insts, err = n.GetInstrs(params.Launch.Func); err != nil {
		panic(err)
	}
}

// TestOneRecordPerExecutingLane runs a 20-thread CTA — a partial warp —
// through a 64-bit load and a store guarded to the even lanes. Each lane
// that executes an access delivers exactly one record carrying its own
// address and lane id, a guard-false lane delivers none, and each record's
// site names the instruction that issued it.
func TestOneRecordPerExecutingLane(t *testing.T) {
	const threads = 20
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		t.Fatal(err)
	}
	p := &probe{}
	if _, err := nvbit.Attach(api, p); err != nil {
		t.Fatal(err)
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ctx.ModuleLoadPTX("app", accessKernel)
	if err != nil {
		t.Fatal(err)
	}
	f, err := mod.GetFunction("access")
	if err != nil {
		t.Fatal(err)
	}
	data, err := ctx.MemAlloc(8 * threads)
	if err != nil {
		t.Fatal(err)
	}
	params, err := gpusim.PackParams(f, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.LaunchKernel(f, gpusim.D1(1), gpusim.D1(threads), 0, params); err != nil {
		t.Fatal(err)
	}

	// The kernel's two global accesses are the two sites, in order.
	if len(p.acc.sites) != 2 {
		t.Fatalf("%d sites, want 2: %+v", len(p.acc.sites), p.acc.sites)
	}
	for k, want := range []struct {
		width   int
		isStore bool
	}{{8, false}, {4, true}} {
		s := p.acc.sites[k]
		if s.Kernel != "access" || s.Width != want.width || s.IsStore != want.isStore {
			t.Errorf("site %d = %+v, want kernel access, width %d, store %v", k, s, want.width, want.isStore)
		}
		if s.InstIdx < 0 || s.InstIdx >= len(p.insts) {
			t.Fatalf("site %d index %d outside the kernel's %d instructions", k, s.InstIdx, len(p.insts))
		}
		i := p.insts[s.InstIdx]
		if i.GetMemOpSpace() != nvbit.MemGlobal || i.IsStore() != want.isStore || i.GetSASS() != s.SASS {
			t.Errorf("site %d index %d is %q, recorded as %q", k, s.InstIdx, i.GetSASS(), s.SASS)
		}
	}

	// One warp on one SM: the records arrive in push order, the load's
	// lanes first.
	var want []record
	for lane := 0; lane < threads; lane++ {
		want = append(want, record{data + 8*uint64(lane), lane, p.acc.sites[0]})
	}
	for lane := 0; lane < threads; lane += 2 {
		want = append(want, record{data + 8*uint64(lane), lane, p.acc.sites[1]})
	}
	if got, w := fmt.Sprint(p.recs), fmt.Sprint(want); got != w {
		t.Fatalf("records:\n got %s\nwant %s", got, w)
	}
	if st := p.acc.Stats(); st.Dropped != 0 {
		t.Fatalf("dropped = %d", st.Dropped)
	}
}
