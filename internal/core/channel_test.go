package core

import (
	"testing"

	"nvbitgo/internal/channel"
	"nvbitgo/internal/driver"
	"nvbitgo/internal/sass"
)

// pushSrc pushes one 8-byte record per guard-true lane and counts the pushes
// in a device counter, so the host knows what a launch pushed.
const pushSrc = `
.toolfunc push(.param .u32 pred, .param .u64 ctr, .param .u64 ctrl)
{
	.reg .u32 %r<11>;
	.reg .u64 %rd<6>;
	.reg .pred %p<5>;
	ld.param.u32 %r0, [pred];
	setp.eq.u32 %p0, %r0, 0;
	@%p0 ret;
	ld.param.u64 %rd0, [ctr];
	mov.u64 %rd1, 1;
	red.global.add.u64 [%rd0], %rd1;
	setp.ne.u32 %p1, %r0, 0;
@RESERVE@
	mov.u32 %r0, %laneid;
	cvt.u64.u32 %rd0, %r0;
	st.global.u64 [%rd1], %rd0;
@COMMIT@
	ret;
}
`

// pushTool instruments every instruction with push. It never drains its
// channel unless drains is set, in which case its exit callback does.
type pushTool struct {
	drains bool

	ch       *channel.Channel
	ctr      uint64
	batched  uint64 // records OnBatch received
	lastPush uint64
	lastSeen uint64
	// pushed and seen are, per launch, the records pushed and the records
	// delivered by the time the tool's exit callback runs.
	pushed, seen []uint64
}

func (t *pushTool) AtInit(n *NVBit) {
	var err error
	if t.ctr, err = n.Malloc(8); err != nil {
		panic(err)
	}
	if err := n.WriteU64(t.ctr, 0); err != nil {
		panic(err)
	}
	t.ch, err = n.OpenChannel(channel.Config{
		Name:         "push",
		RecordBytes:  8,
		TotalRecords: 1, // the smallest buffers: launches flush mid-kernel too
		Policy:       channel.Block,
		OnBatch:      func(data []byte) { t.batched += uint64(len(data) / 8) },
		ToolPTX:      pushSrc,
		PushPred:     "%p1",
	})
	if err != nil {
		panic(err)
	}
}

func (t *pushTool) AtTerm(n *NVBit) {}

func (t *pushTool) AtCUDACall(n *NVBit, exit bool, cbid driver.CBID, name string, p *driver.CallParams) {
	if cbid != driver.CBLaunchKernel {
		return
	}
	if !exit {
		if n.IsInstrumented(p.Launch.Func) {
			return
		}
		insts, err := n.GetInstrs(p.Launch.Func)
		if err != nil {
			panic(err)
		}
		for _, i := range insts {
			n.InsertCallArgs(i, "push", IPointBefore, ArgSitePred(), ArgDevPtr(t.ctr), ArgDevPtr(t.ch.CtrlAddr()))
		}
		return
	}
	if t.drains {
		t.ch.Drain()
	}
	pushes, err := n.ReadU64(t.ctr)
	if err != nil {
		panic(err)
	}
	seen := t.ch.Stats().Delivered
	t.pushed = append(t.pushed, pushes-t.lastPush)
	t.seen = append(t.seen, seen-t.lastSeen)
	t.lastPush, t.lastSeen = pushes, seen
}

// TestChannelDrainedAtLaunchExit: the framework drains an attachment's
// channels at every launch exit, before the tool's exit callback, so a tool
// that never calls Drain has received every record launch k pushed when it
// hears of launch k's end, and a tool that still drains itself gets no
// record twice.
func TestChannelDrainedAtLaunchExit(t *testing.T) {
	for _, drains := range []bool{false, true} {
		tool := &pushTool{drains: drains}
		env := setup(t, sass.Volta, tool)
		const launches = 3
		for range launches {
			env.launch(t)
		}
		st := tool.ch.Stats()
		if st.TickFlushes == 0 {
			t.Fatalf("drains=%v: no mid-kernel flush; the test wants both kinds", drains)
		}
		for k := range launches {
			if tool.pushed[k] == 0 || tool.seen[k] != tool.pushed[k] {
				t.Fatalf("drains=%v: launch %d pushed %d records, its exit callback saw %d delivered",
					drains, k, tool.pushed[k], tool.seen[k])
			}
		}
		if tool.batched != st.Delivered || st.Delivered != tool.lastPush {
			t.Fatalf("drains=%v: OnBatch got %d records, Delivered %d, pushed %d", drains, tool.batched, st.Delivered, tool.lastPush)
		}
		if err := env.api.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
