// Package memaccess is the per-lane global-memory access stream that the
// address-driven analyses are built on: the paper's cache simulators
// ("entire cache simulators can be built around these mechanisms", Section
// 6.1) and error checkers (Section 1) both instrument global memory and ship
// each lane's address to the host. cachesim and memcheck consume it.
//
// A Collector inserts one device function before every global load, store
// and atomic of each launched kernel. The function pushes one 16-byte record
// per executing lane — the effective address, a static site id and the lane —
// into a device→host streaming channel, claiming slots with the channel's
// warp-aggregated reserve fragment. The host keeps the site table, so each
// delivered record reaches the consumer with the instruction that issued it.
package memaccess

import (
	"encoding/binary"

	"nvbitgo/nvbit"
)

// recBytes is one record: u64 address + u32 site id + u32 lane.
const recBytes = 16

// toolPTX is the pushing device function; the channel writes its claim and
// commit at the two markers (nvbit.ChannelConfig.ToolPTX). Guard-false lanes
// retire before the claim, so the always-true %p1 makes every remaining lane
// claim its own slot; %rd1 receives each lane's record address.
const toolPTX = `
.toolfunc memaccess_rec(.param .u32 pred, .param .u64 base, .param .u32 off, .param .u32 site, .param .u64 ctrl)
{
	.reg .u32 %r<11>;
	.reg .u64 %rd<6>;
	.reg .pred %p<5>;
	ld.param.u32 %r0, [pred];
	setp.eq.u32 %p0, %r0, 0;
	@%p0 ret;
	setp.ne.u32 %p1, %r0, 0;
@RESERVE@
	// Reconstruct and store the effective address, then site and lane.
	ld.param.u64 %rd0, [base];
	ld.param.u32 %r0, [off];
	cvt.u64.u32 %rd4, %r0;
	add.u64 %rd0, %rd0, %rd4;
	st.global.u64 [%rd1], %rd0;
	ld.param.u32 %r0, [site];
	st.global.u32 [%rd1+8], %r0;
	mov.u32 %r0, %laneid;
	st.global.u32 [%rd1+12], %r0;
@COMMIT@
	ret;
}
`

// Site is the host-side description of one instrumented instruction.
type Site struct {
	Kernel  string // kernel the instruction belongs to
	InstIdx int    // static instruction index within the kernel
	SASS    string // disassembly of the instruction
	Width   int    // access width in bytes: 4, or 8 for a wide access
	IsStore bool
}

// Collector is one open access stream: its channel and its site table.
type Collector struct {
	ch      *nvbit.Channel
	sites   []Site
	consume func(addr uint64, lane int, s *Site)
}

// Open opens the stream's channel on n under the caller's name, aggregate
// record capacity and backpressure policy, which registers the device
// function; call it from AtInit. Every delivered record is handed to consume
// with its site, in the channel's delivery order (ascending SM, push order
// within one).
func Open(n *nvbit.NVBit, name string, capacity int, policy nvbit.ChannelPolicy, consume func(addr uint64, lane int, s *Site)) (*Collector, error) {
	c := &Collector{consume: consume}
	var err error
	c.ch, err = n.OpenChannel(nvbit.ChannelConfig{
		Name:         name,
		RecordBytes:  recBytes,
		TotalRecords: capacity,
		Policy:       policy,
		OnBatch:      c.decode,
		ToolPTX:      toolPTX,
		PushPred:     "%p1",
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Instrument inserts the device function before every global memory
// instruction of f that has a memory operand, and records its site; a
// function already instrumented is left alone. Call it at launch entry.
func (c *Collector) Instrument(n *nvbit.NVBit, f *nvbit.Function) error {
	if n.IsInstrumented(f) {
		return nil
	}
	insts, err := n.GetInstrs(f)
	if err != nil {
		return err
	}
	for _, i := range insts {
		if i.GetMemOpSpace() != nvbit.MemGlobal {
			continue
		}
		mref, ok := i.MemOperand()
		if !ok {
			continue
		}
		width := 4
		if mref.Wide {
			width = 8
		}
		id := uint32(len(c.sites))
		c.sites = append(c.sites, Site{Kernel: f.Name, InstIdx: i.Idx(), SASS: i.GetSASS(), Width: width, IsStore: i.IsStore()})
		n.InsertCallArgs(i, "memaccess_rec", nvbit.IPointBefore,
			nvbit.ArgSitePred(),
			nvbit.ArgReg64(int(mref.Base)),
			nvbit.ArgConst32(uint32(mref.Offset)),
			nvbit.ArgConst32(id),
			nvbit.ArgDevPtr(c.ch.CtrlAddr()))
	}
	return nil
}

// Stats returns the channel's counter snapshot.
func (c *Collector) Stats() nvbit.ChannelStats { return c.ch.Stats() }

// decode is the channel's OnBatch consumer: it hands each delivered record,
// with its site, to the consumer.
func (c *Collector) decode(data []byte) {
	for off := 0; off+recBytes <= len(data); off += recBytes {
		id := binary.LittleEndian.Uint32(data[off+8:])
		if int(id) >= len(c.sites) {
			continue // corrupt record; never attribute it to a wrong site
		}
		c.consume(binary.LittleEndian.Uint64(data[off:]), int(binary.LittleEndian.Uint32(data[off+12:])), &c.sites[id])
	}
}
