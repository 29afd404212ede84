// Package itrace is a warp-level dynamic instruction tracer — the mechanism
// behind the paper's observation that combining instruction emulation with
// tracing lets one "trace instruction sets that do not exist, potentially
// enabling future trace-based GPU simulators" (Section 6.3).
//
// Every instruction of every instrumented kernel is injected with a device
// function in which the lowest active lane (one record per warp-level
// dynamic instruction) appends a compact record — kernel id, static
// instruction index, global warp id, and the executing-lane mask — to a
// device→host streaming channel. Records flow to the host through the
// channel's mid-kernel flushes and are delivered at each launch exit;
// the accumulated trace is a faithful warp-level dynamic instruction
// stream, including instructions (like an emulated WFFT32) that no silicon
// implements.
package itrace

import (
	"encoding/binary"
	"fmt"

	"nvbitgo/nvbit"
)

const recBytes = 16

// toolPTX is the pushing device function; the channel writes its claim and
// commit at the two markers (nvbit.ChannelConfig.ToolPTX). Non-leader lanes
// retire before the claim, so the always-true %p1 selects exactly one
// pushing lane per warp; %rd1 receives the claimed record address.
const toolPTX = `
.toolfunc itrace_rec(.param .u32 pred, .param .u32 kid, .param .u32 idx, .param .u64 ctrl)
{
	.reg .u32 %r<11>;
	.reg .u64 %rd<6>;
	.reg .pred %p<5>;
	// Executing-lane mask (guard-true lanes).
	ld.param.u32 %r0, [pred];
	setp.ne.u32 %p0, %r0, 0;
	vote.ballot.b32 %r1, %p0;
	// Leader election among all lanes that entered (active lanes); the
	// non-leaders retire so one record is pushed per warp.
	setp.eq.u32 %p1, %r0, %r0;
	vote.ballot.b32 %r2, %p1;
	not.b32 %r3, %r2;
	add.u32 %r3, %r3, 1;
	and.b32 %r3, %r2, %r3;
	mov.u32 %r0, %laneid;
	mov.u32 %r2, 1;
	shl.b32 %r2, %r2, %r0;
	setp.ne.u32 %p2, %r3, %r2;
	@%p2 ret;
@RESERVE@
	// Record: kid, idx, gwid, exec mask.
	ld.param.u32 %r0, [kid];
	st.global.u32 [%rd1], %r0;
	ld.param.u32 %r0, [idx];
	st.global.u32 [%rd1+4], %r0;
	mov.u32 %r0, %ntid.x;
	add.u32 %r0, %r0, 31;
	shr.b32 %r0, %r0, 5;
	mov.u32 %r3, %ctaid.x;
	mov.u32 %r2, %warpid;
	mad.lo.u32 %r0, %r3, %r0, %r2;
	st.global.u32 [%rd1+8], %r0;
	st.global.u32 [%rd1+12], %r1;
@COMMIT@
	ret;
}
`

// Record is one warp-level dynamic instruction.
type Record struct {
	KernelID uint32 // dense id assigned per instrumented function
	InstIdx  uint32 // static word index within the function
	WarpID   uint32 // global warp id within the launch
	ExecMask uint32 // guard-true lanes at the site
}

// Tool collects the dynamic instruction trace.
type Tool struct {
	// Capacity is the aggregate channel capacity in records (split across
	// the per-SM shards).
	Capacity int
	// Policy selects the backpressure behaviour when a shard's buffer
	// fills between flushes (ChannelDrop or ChannelBlock).
	Policy nvbit.ChannelPolicy
	// OnRecord, if set, streams records at delivery time instead of (in
	// addition to) accumulating them in Records.
	OnRecord func(Record)
	// Keep controls whether delivered records accumulate in Records
	// (default true; turn off for long streaming runs).
	Keep bool

	Records []Record

	ch      *nvbit.Channel
	kernels map[*nvbit.Function]uint32
	names   []string
}

// New returns a tracer with the given aggregate channel capacity.
func New(capacity int) *Tool {
	return &Tool{Capacity: capacity, Keep: true, kernels: make(map[*nvbit.Function]uint32)}
}

// KernelName resolves a Record.KernelID back to the kernel's name.
func (t *Tool) KernelName(id uint32) string {
	if int(id) < len(t.names) {
		return t.names[id]
	}
	return fmt.Sprintf("kernel#%d", id)
}

// Dropped returns how many records were lost to full buffers (always zero
// under ChannelBlock).
func (t *Tool) Dropped() uint64 { return t.Stats().Dropped }

// Stats returns the channel's counter snapshot.
func (t *Tool) Stats() nvbit.ChannelStats { return t.ch.Stats() }

// AtInit opens the streaming channel, which registers the device function.
func (t *Tool) AtInit(n *nvbit.NVBit) {
	var err error
	t.ch, err = n.OpenChannel(nvbit.ChannelConfig{
		Name:         "itrace",
		RecordBytes:  recBytes,
		TotalRecords: t.Capacity,
		Policy:       t.Policy,
		OnBatch:      t.decode,
		ToolPTX:      toolPTX,
		PushPred:     "%p1",
	})
	if err != nil {
		panic(fmt.Sprintf("itrace: %v", err))
	}
}

// AtTerm implements the Tool interface; the framework closes the channel.
func (t *Tool) AtTerm(n *nvbit.NVBit) {}

// AtCUDACall instruments at launch entry; the framework drains the channel
// at launch exit.
func (t *Tool) AtCUDACall(n *nvbit.NVBit, exit bool, cbid nvbit.CBID, name string, p *nvbit.CallParams) {
	if cbid != nvbit.CBLaunchKernel || exit {
		return
	}
	f := p.Launch.Func
	if _, seen := t.kernels[f]; !seen {
		t.kernels[f] = uint32(len(t.names))
		t.names = append(t.names, f.Name)
	}
	if n.IsInstrumented(f) {
		return
	}
	kid := t.kernels[f]
	insts, err := n.GetInstrs(f)
	if err != nil {
		panic(fmt.Sprintf("itrace: %v", err))
	}
	for _, i := range insts {
		n.InsertCallArgs(i, "itrace_rec", nvbit.IPointBefore,
			nvbit.ArgSitePred(),
			nvbit.ArgConst32(kid),
			nvbit.ArgConst32(uint32(i.Idx())),
			nvbit.ArgDevPtr(t.ch.CtrlAddr()))
	}
}

// decode is the channel's OnBatch consumer.
func (t *Tool) decode(data []byte) {
	for off := 0; off+recBytes <= len(data); off += recBytes {
		rec := Record{
			KernelID: binary.LittleEndian.Uint32(data[off:]),
			InstIdx:  binary.LittleEndian.Uint32(data[off+4:]),
			WarpID:   binary.LittleEndian.Uint32(data[off+8:]),
			ExecMask: binary.LittleEndian.Uint32(data[off+12:]),
		}
		if t.OnRecord != nil {
			t.OnRecord(rec)
		}
		if t.Keep {
			t.Records = append(t.Records, rec)
		}
	}
}

var _ nvbit.Tool = (*Tool)(nil)
