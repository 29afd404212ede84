// Package memtrace is the flagship memory-address tracer — the mem_trace
// example tool of the NVBit paper (Section 6.2, Listing 5), rebuilt on the
// streaming channel subsystem.
//
// Every global memory instruction is instrumented with a device function
// that emits one record per warp-level dynamic access: kernel id, static
// instruction index, opcode, global warp id, the executing-lane mask and all
// 32 effective lane addresses (via ArgMRefAddr). The warp claims one channel
// slot through the warp-aggregated reserve fragment; every executing lane
// then stores its own address into the shared record, and the leader
// publishes the commit. Records stream to the host through mid-kernel
// flushes, so a trace is no longer bounded by a launch-exit ring drain: with
// ChannelBlock backpressure the trace is complete regardless of buffer size.
package memtrace

import (
	"encoding/binary"
	"fmt"
	"strings"

	"nvbitgo/nvbit"
)

// Record flags.
const (
	FlagStore = 1 << 0
	FlagWide  = 1 << 1 // 8-byte access
	FlagAtom  = 1 << 2
)

// recBytes is one record: six u32 header words followed by 32 lane
// addresses.
//
//	[0]  u32 kernel id     [4]  u32 instruction index
//	[8]  u32 opcode        [12] u32 global warp id
//	[16] u32 exec mask     [20] u32 flags
//	[24] u64 addrs[32]     — lane i's effective address, 0 if inactive
const recBytes = 24 + 32*8

// toolPTX is the pushing device function; the channel writes its claim and
// commit at the two markers (nvbit.ChannelConfig.ToolPTX). The leader %p2
// claims one shared record per warp; %rd0/%rd1 hold the lane address and the
// claimed record address.
const toolPTX = `
.toolfunc memtrace_rec(.param .u32 pred, .param .u32 kid, .param .u32 idx, .param .u32 op, .param .u32 flags, .param .u64 addr, .param .u64 ctrl)
{
	.reg .u32 %r<11>;
	.reg .u64 %rd<6>;
	.reg .pred %p<5>;
	// Executing-lane mask, then retire guard-false lanes: only lanes with
	// a real access cooperate on the record.
	ld.param.u32 %r0, [pred];
	setp.ne.u32 %p0, %r0, 0;
	vote.ballot.b32 %r1, %p0;
	setp.eq.u32 %p1, %r0, 0;
	@%p1 ret;
	// Leader election among the remaining lanes: lowest set mask bit.
	not.b32 %r3, %r1;
	add.u32 %r3, %r3, 1;
	and.b32 %r3, %r1, %r3;
	mov.u32 %r0, %laneid;
	mov.u32 %r2, 1;
	shl.b32 %r2, %r2, %r0;
	setp.eq.u32 %p2, %r3, %r2;
@RESERVE@
	// Header (leader only).
	ld.param.u32 %r0, [kid];
	@%p2 st.global.u32 [%rd1], %r0;
	ld.param.u32 %r0, [idx];
	@%p2 st.global.u32 [%rd1+4], %r0;
	ld.param.u32 %r0, [op];
	@%p2 st.global.u32 [%rd1+8], %r0;
	mov.u32 %r0, %ntid.x;
	add.u32 %r0, %r0, 31;
	shr.b32 %r0, %r0, 5;
	mov.u32 %r3, %ctaid.x;
	mov.u32 %r2, %warpid;
	mad.lo.u32 %r0, %r3, %r0, %r2;
	@%p2 st.global.u32 [%rd1+12], %r0;
	@%p2 st.global.u32 [%rd1+16], %r1;
	ld.param.u32 %r0, [flags];
	@%p2 st.global.u32 [%rd1+20], %r0;
	// Every executing lane stores its effective address into its slot.
	ld.param.u64 %rd0, [addr];
	mov.u32 %r0, %laneid;
	mov.u32 %r3, 8;
	mad.wide.u32 %rd4, %r0, %r3, %rd1;
	st.global.u64 [%rd4+24], %rd0;
@COMMIT@
	ret;
}
`

// Record is one warp-level dynamic global-memory access.
type Record struct {
	KernelID uint32 // dense id assigned per instrumented function
	InstIdx  uint32 // static word index within the function
	Opcode   uint32 // raw SASS opcode
	WarpID   uint32 // global warp id within the launch
	ExecMask uint32 // lanes that executed the access
	Flags    uint32 // FlagStore | FlagWide | FlagAtom
	Addrs    [32]uint64
}

// Tool collects the memory-address trace.
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

// New returns a memory tracer with the given aggregate channel capacity.
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
		Name:         "memtrace",
		RecordBytes:  recBytes,
		TotalRecords: t.Capacity,
		Policy:       t.Policy,
		OnBatch:      t.decode,
		ToolPTX:      toolPTX,
		PushPred:     "%p2",
		SharedSlot:   true,
	})
	if err != nil {
		panic(fmt.Sprintf("memtrace: %v", err))
	}
}

// AtTerm implements the Tool interface; the framework closes the channel.
func (t *Tool) AtTerm(n *nvbit.NVBit) {}

// AtCUDACall instruments global memory instructions at launch entry; the
// framework drains the channel at launch exit.
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
		panic(fmt.Sprintf("memtrace: %v", err))
	}
	for _, i := range insts {
		if i.GetMemOpSpace() != nvbit.MemGlobal {
			continue
		}
		mref, ok := i.MemOperand()
		if !ok {
			continue
		}
		flags := uint32(0)
		if i.IsStore() {
			flags |= FlagStore
		}
		if mref.Wide {
			flags |= FlagWide
		}
		if op := i.GetOpcode(); strings.HasPrefix(op, "ATOM") || strings.HasPrefix(op, "RED") {
			flags |= FlagAtom
		}
		n.InsertCallArgs(i, "memtrace_rec", nvbit.IPointBefore,
			nvbit.ArgSitePred(),
			nvbit.ArgConst32(kid),
			nvbit.ArgConst32(uint32(i.Idx())),
			nvbit.ArgConst32(uint32(i.Op())),
			nvbit.ArgConst32(flags),
			nvbit.ArgMRefAddr(),
			nvbit.ArgDevPtr(t.ch.CtrlAddr()))
	}
}

// decode is the channel's OnBatch consumer: it unpacks each delivered
// buffer into Records, zeroing the address slots of inactive lanes (the
// device leaves them unwritten).
func (t *Tool) decode(data []byte) {
	for off := 0; off+recBytes <= len(data); off += recBytes {
		rec := Record{
			KernelID: binary.LittleEndian.Uint32(data[off:]),
			InstIdx:  binary.LittleEndian.Uint32(data[off+4:]),
			Opcode:   binary.LittleEndian.Uint32(data[off+8:]),
			WarpID:   binary.LittleEndian.Uint32(data[off+12:]),
			ExecMask: binary.LittleEndian.Uint32(data[off+16:]),
			Flags:    binary.LittleEndian.Uint32(data[off+20:]),
		}
		for lane := 0; lane < 32; lane++ {
			if rec.ExecMask&(1<<lane) != 0 {
				rec.Addrs[lane] = binary.LittleEndian.Uint64(data[off+24+lane*8:])
			}
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
