package gpu

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"nvbitgo/internal/sass"
)

func TestMultiDimensionalLaunch(t *testing.T) {
	// A 2-D grid of 2-D blocks: every thread writes gid = linearized
	// (ctaid, tid) coordinates; verify the special-register decomposition.
	d := newTestDevice(t, sass.Volta)
	grid := Dim3{X: 2, Y: 3, Z: 1}
	block := Dim3{X: 8, Y: 4, Z: 1}
	total := grid.Count() * block.Count()
	out, _ := d.Malloc(uint64(4 * total))
	entry := loadSASS(t, d, `
		S2R R0, SR_TID.X
		S2R R1, SR_TID.Y
		S2R R2, SR_NTID.X
		IMAD R3, R1, R2, R0       // tid linear = ty*bx + tx
		S2R R4, SR_CTAID.X
		S2R R5, SR_CTAID.Y
		S2R R6, SR_NCTAID.X
		IMAD R7, R5, R6, R4       // cta linear = cy*gx + cx
		S2R R8, SR_NTID.Y
		IMUL R9, R2, R8           // threads per block
		IMAD R10, R7, R9, R3      // global linear id
		LDC.W R12, c[1][0]
		MOVI R14, 4
		IMAD.W R12, R10, R14, R12
		STG [R12], R10
		EXIT
	`)
	launch(t, d, entry, grid, block, u64param(out), 0)
	buf := make([]byte, 4*total)
	if err := d.Read(out, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		if got := binary.LittleEndian.Uint32(buf[4*i:]); got != uint32(i) {
			t.Fatalf("slot %d = %d (2-D id decomposition broken)", i, got)
		}
	}
}

func TestShflUpDownIdx(t *testing.T) {
	d := newTestDevice(t, sass.Pascal)
	out, _ := d.Malloc(4 * 32 * 3)
	entry := loadSASS(t, d, `
		S2R R0, SR_LANEID
		SHFL.UP R1, R0, RZ, 1      // lane-1's value; lane 0 keeps own
		SHFL.DOWN R2, R0, RZ, 2    // lane+2's value; 30,31 keep own
		SHFL.IDX R3, R0, RZ, 5     // everyone reads lane 5
		LDC.W R4, c[1][0]
		MOVI R6, 4
		IMAD.W R4, R0, R6, R4
		STG [R4], R1
		STG [R4+128], R2
		STG [R4+256], R3
		EXIT
	`)
	launch(t, d, entry, D1(1), D1(32), u64param(out), 0)
	buf := make([]byte, 4*32*3)
	if err := d.Read(out, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		up := binary.LittleEndian.Uint32(buf[4*i:])
		wantUp := uint32(i - 1)
		if i == 0 {
			wantUp = 0
		}
		if up != wantUp {
			t.Fatalf("lane %d shfl.up = %d, want %d", i, up, wantUp)
		}
		down := binary.LittleEndian.Uint32(buf[128+4*i:])
		wantDown := uint32(i + 2)
		if i >= 30 {
			wantDown = uint32(i)
		}
		if down != wantDown {
			t.Fatalf("lane %d shfl.down = %d, want %d", i, down, wantDown)
		}
		if idx := binary.LittleEndian.Uint32(buf[256+4*i:]); idx != 5 {
			t.Fatalf("lane %d shfl.idx = %d, want 5", i, idx)
		}
	}
}

func TestVoteAllAndAny(t *testing.T) {
	d := newTestDevice(t, sass.Volta)
	out, _ := d.Malloc(4 * 32)
	entry := loadSASS(t, d, `
		S2R R0, SR_LANEID
		ISETP.LT P0, R0, RZ, 32    // true for all
		ISETP.LT P1, R0, RZ, 5     // true for a few
		VOTE.ALL P2, P0
		VOTE.ALL P3, P1
		VOTE.ANY P4, P1
		MOVI R1, 0
		@P2 IADD R1, R1, RZ, 1     // +1: all-true vote
		@P3 IADD R1, R1, RZ, 10    // +0: not all true
		@P4 IADD R1, R1, RZ, 100   // +100: some true
		LDC.W R4, c[1][0]
		MOVI R6, 4
		IMAD.W R4, R0, R6, R4
		STG [R4], R1
		EXIT
	`)
	launch(t, d, entry, D1(1), D1(32), u64param(out), 0)
	buf := make([]byte, 4*32)
	if err := d.Read(out, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if got := binary.LittleEndian.Uint32(buf[4*i:]); got != 101 {
			t.Fatalf("lane %d vote sum = %d, want 101", i, got)
		}
	}
}

func TestConstBankBoundsTrap(t *testing.T) {
	d := newTestDevice(t, sass.Pascal)
	entry := loadSASS(t, d, `
		LDC R0, c[1][0x7000]
		EXIT
	`)
	if _, err := d.Launch(LaunchSpec{Entry: entry, Grid: D1(1), Block: D1(1), Params: make([]byte, 16)}); err == nil {
		t.Fatal("constant bank overrun did not trap")
	}
}

func TestClockAdvances(t *testing.T) {
	d := newTestDevice(t, sass.Volta)
	out, _ := d.Malloc(8)
	entry := loadSASS(t, d, `
		S2R R0, SR_CLOCK
		MOVI R2, 50
	spin:
		IADD R2, R2, RZ, -1
		ISETP.GT P0, R2, RZ, 0
		@P0 BRA spin
		S2R R1, SR_CLOCK
		LDC.W R4, c[1][0]
		STG [R4], R0
		STG [R4+4], R1
		EXIT
	`)
	launch(t, d, entry, D1(1), D1(1), u64param(out), 0)
	buf := make([]byte, 8)
	if err := d.Read(out, buf); err != nil {
		t.Fatal(err)
	}
	t0 := binary.LittleEndian.Uint32(buf)
	t1 := binary.LittleEndian.Uint32(buf[4:])
	if t1 <= t0 {
		t.Fatalf("SR_CLOCK did not advance: %d -> %d", t0, t1)
	}
	if t1-t0 < 100 {
		t.Fatalf("50-iteration spin advanced the clock by only %d", t1-t0)
	}
}

func TestStatsDeltaPerLaunch(t *testing.T) {
	d := newTestDevice(t, sass.Pascal)
	entry := loadSASS(t, d, `
		MOVI R0, 1
		EXIT
	`)
	st1 := launch(t, d, entry, D1(1), D1(32), nil, 0)
	st2 := launch(t, d, entry, D1(2), D1(32), nil, 0)
	if st1.Launches != 1 || st2.Launches != 1 {
		t.Fatal("per-launch delta wrong")
	}
	if st2.WarpInstrs != 2*st1.WarpInstrs {
		t.Fatalf("delta warp instrs %d vs %d", st2.WarpInstrs, st1.WarpInstrs)
	}
	agg := d.Stats()
	if agg.WarpInstrs != st1.WarpInstrs+st2.WarpInstrs {
		t.Fatal("aggregate != sum of deltas")
	}
}

func TestStatsAdd(t *testing.T) {
	var a, b Stats
	a.WarpInstrs, a.OpCounts[sass.OpIADD], a.OpThreads[sass.OpIADD] = 5, 2, 64
	b.WarpInstrs, b.OpCounts[sass.OpIADD], b.OpThreads[sass.OpIADD] = 7, 3, 96
	a.Add(b)
	if a.WarpInstrs != 12 || a.OpCounts[sass.OpIADD] != 5 || a.OpThreads[sass.OpIADD] != 160 {
		t.Fatalf("Stats.Add: %+v", a)
	}
}

// refGlobalAccess is the coalescer as it was before it remembered anything:
// a page lookup per lane, and both ends of every access searched for in the
// list of lines. globalAccess must do and count exactly what it does.
func (c *execContext) refGlobalAccess(w *warp, in *sass.Inst, exec uint32, pc int32) error {
	width := uint64(accessWidth(in))
	d := c.dev
	var lines []uint64
	for m := exec; m != 0; m &= m - 1 {
		i := lane(m)
		addr := w.reg64(i, in.Src1) + uint64(in.Imm)
		if addr%width != 0 {
			f := c.trap(FaultMisalignedAddress, pc, in, i, "global access at %#x not %d-byte aligned", addr, width)
			f.Addr = addr
			return f
		}
		if !d.inHeap(addr, width) {
			f := c.trap(FaultIllegalAddress, pc, in, i, "global access [%#x,+%d) outside the device heap", addr, width)
			f.Addr = addr
			return f
		}
		mem := d.peek(addr)[addr&pageMask:]
		if in.Op == sass.OpSTG {
			mem = d.touch(addr)[addr&pageMask:]
		}
		switch wide := in.Mods.Wide(); {
		case in.Op == sass.OpLDG && wide:
			w.setReg64(i, in.Dst, binary.LittleEndian.Uint64(mem))
		case in.Op == sass.OpLDG:
			w.setReg(i, in.Dst, binary.LittleEndian.Uint32(mem))
		case wide:
			binary.LittleEndian.PutUint64(mem, w.reg64(i, in.Src2))
		default:
			binary.LittleEndian.PutUint32(mem, w.reg(i, in.Src2))
		}
	probe:
		for _, a := range [2]uint64{addr, addr + width - 1} {
			line := a >> d.lineShift
			for _, l := range lines {
				if l == line {
					continue probe
				}
			}
			lines = append(lines, line)
		}
	}
	if exec == 0 {
		return nil
	}
	c.stats.GlobalAccesses++
	c.stats.GlobalLines += uint64(len(lines))
	for _, l := range lines {
		w.cycles += c.lineCost(l)
	}
	return nil
}

// TestCoalescerEquivalence drives globalAccess and the reference with the
// same sequences of warp accesses on twin devices and compares everything
// either leaves behind: registers, memory, statistics, cycles, the state of
// both cache levels (which records the order lines were first seen in) and
// the fault, if any, with the lanes before it already transferred.
func TestCoalescerEquivalence(t *testing.T) {
	const bufBytes = 3 * pageSize
	patterns := []struct {
		name string
		addr func(buf uint64, i int) uint64 // lane i's address
		mask uint32
	}{
		{"unit stride", func(b uint64, i int) uint64 { return b + 8*uint64(i) }, fullMask},
		{"one address", func(b uint64, i int) uint64 { return b + 256 }, fullMask},
		{"stride of a line", func(b uint64, i int) uint64 { return b + 128*uint64(i) }, fullMask},
		{"descending", func(b uint64, i int) uint64 { return b + 4096 - 8*uint64(i) }, fullMask},
		{"alternating lines", func(b uint64, i int) uint64 { return b + 128*uint64(i%2) + 8*uint64(i/2) }, fullMask},
		{"across a page", func(b uint64, i int) uint64 { return b + pageSize - 64 + 8*uint64(i) }, fullMask},
		{"across into a written page", func(b uint64, i int) uint64 { return b + 2*pageSize - 64 + 8*uint64(i) }, fullMask},
		{"page to page and back", func(b uint64, i int) uint64 { return b + pageSize*uint64(i%3) + 8*uint64(i) }, fullMask},
		{"partial mask", func(b uint64, i int) uint64 { return b + 40*8*uint64(i) }, 0xa5a50ff1},
		{"one lane", func(b uint64, i int) uint64 { return b + 8*uint64(i) }, 1 << 19},
		{"misaligned lane 5", func(b uint64, i int) uint64 {
			if i == 5 {
				return b + 8*5 + 2
			}
			return b + 8*uint64(i)
		}, fullMask},
		{"lane 17 outside the heap", func(b uint64, i int) uint64 {
			if i == 17 {
				return 64<<20 + 8
			}
			return b + 8*uint64(i)
		}, fullMask},
		{"lane 3 on the null page", func(b uint64, i int) uint64 {
			if i == 3 {
				return 8
			}
			return b + 16*uint64(i)
		}, 0xfffffff8},
	}
	for _, lineBytes := range []int{128, 32, 4} {
		for _, inst := range []string{"LDG R8, [R2+8]", "LDG.W R8, [R2]", "LDG.W R2, [R2]", "STG [R2], R6", "STG.W [R2+16], R6"} {
			var devs [2]*Device
			var hs [2]*stepHarness
			var buf uint64
			for k := range devs {
				cfg := DefaultConfig(sass.Volta)
				cfg.L1LineBytes = lineBytes
				d, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if buf, err = d.Malloc(bufBytes); err != nil {
					t.Fatal(err)
				}
				// The first page holds data, the second is never written
				// by the host, the third holds data again.
				data := make([]byte, pageSize)
				rand.New(rand.NewSource(9)).Read(data)
				for _, off := range []uint64{0, 2 * pageSize} {
					if err := d.Write(buf+off, data); err != nil {
						t.Fatal(err)
					}
				}
				devs[k], hs[k] = d, newStepHarness(t, d, inst)
			}
			in, err := devs[0].fetch(hs[0].entry)
			if err != nil {
				t.Fatal(err)
			}
			// Every pattern twice over, so that later accesses meet the
			// cache state the earlier ones left.
			for round := 0; round < 2; round++ {
				for _, p := range patterns {
					var errs [2]error
					for _, h := range hs {
						for i := 0; i < WarpSize; i++ {
							h.w.setReg64(i, 2, p.addr(buf, i))
							h.w.setReg64(i, 6, uint64(i)<<32|uint64(round))
							h.w.setReg64(i, 8, 0xdead0000beef0000)
						}
					}
					errs[0] = hs[0].c.globalAccess(hs[0].w, in, p.mask, hs[0].entry)
					errs[1] = hs[1].c.refGlobalAccess(hs[1].w, in, p.mask, hs[1].entry)
					where := inst + ", " + p.name
					if !reflect.DeepEqual(errs[0], errs[1]) {
						t.Fatalf("%s (%d-byte lines): fault %v, reference %v", where, lineBytes, errs[0], errs[1])
					}
					if hs[0].w.regs != hs[1].w.regs {
						t.Fatalf("%s (%d-byte lines): registers differ from the reference", where, lineBytes)
					}
					if hs[0].c.stats != hs[1].c.stats || hs[0].w.cycles != hs[1].w.cycles {
						t.Fatalf("%s (%d-byte lines): stats %+v cycles %d, reference %+v cycles %d", where, lineBytes,
							hs[0].c.stats, hs[0].w.cycles, hs[1].c.stats, hs[1].w.cycles)
					}
					if !reflect.DeepEqual(devs[0].l1s[0], devs[1].l1s[0]) || !reflect.DeepEqual(devs[0].l2, devs[1].l2) {
						t.Fatalf("%s (%d-byte lines): cache state differs from the reference", where, lineBytes)
					}
				}
			}
			got, want := make([]byte, bufBytes), make([]byte, bufBytes)
			if err := devs[0].Read(buf, got); err != nil {
				t.Fatal(err)
			}
			if err := devs[1].Read(buf, want); err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("%s (%d-byte lines): memory differs from the reference", inst, lineBytes)
			}
			if lineBytes == 4 && in.Mods.Wide() && hs[0].c.stats.GlobalLines < 2*WarpSize {
				t.Fatalf("%s: %d lines counted, a wide access spans two 4-byte lines", inst, hs[0].c.stats.GlobalLines)
			}
		}
	}
}

// TestGuardGather compares the packed gather of guard with the loop over the
// lanes it replaced.
func TestGuardGather(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var w warp
	for p := sass.Pred(0); p <= sass.PT; p++ {
		for _, neg := range []bool{false, true} {
			for n := 0; n < 1000; n++ {
				for i := range w.preds {
					w.preds[i] = uint8(r.Intn(128))
				}
				act := r.Uint32() >> uint(r.Intn(3)*8)
				var want uint32
				for i := 0; i < WarpSize; i++ {
					if holds := p == sass.PT || w.preds[i]>>p&1 != 0; act>>uint(i)&1 != 0 && holds != neg {
						want |= 1 << uint(i)
					}
				}
				if got := w.guard(act, p, neg); got != want {
					t.Fatalf("guard(%#x, P%d, %v) = %#x, want %#x (preds %v)", act, p, neg, got, want, w.preds)
				}
			}
		}
	}
}

// BenchmarkGlobalAccess is the host cost of one coalesced warp load: lanes
// on consecutive words of one line, and lanes on 32 lines of 32 pages.
func BenchmarkGlobalAccess(b *testing.B) {
	for _, bc := range []struct {
		name   string
		stride uint64
	}{{"unit", 4}, {"scatter", pageSize + 128}} {
		b.Run(bc.name, func(b *testing.B) {
			d := newTestDevice(b, sass.Volta)
			buf, err := d.Malloc(WarpSize * bc.stride)
			if err != nil {
				b.Fatal(err)
			}
			h := newStepHarness(b, d, "LDG R8, [R2]")
			for i := 0; i < WarpSize; i++ {
				h.w.setReg64(i, 2, buf+uint64(i)*bc.stride)
			}
			h.step(b) // the first fetch decodes and allocates the chunk's cache
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				h.step(b)
			}
		})
	}
}
