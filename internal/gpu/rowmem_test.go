package gpu

import (
	"encoding/binary"
	"fmt"
	"testing"

	"nvbitgo/internal/sass"
)

// The memory and atomic fast paths of a converged warp must be invisible:
// every number below was recorded at the commit before they existed, where
// each access was walked lane by lane, and is what they must still report.

// TestUnitStrideEdges steps one global access per row on a fresh device, cold
// and then warm. Rows around the edges of the unit-stride path — a span that
// leaves its page, leaves the heap or starts misaligned, lines narrower than
// the access, addresses that are affine but not ascending by one element —
// are walked lane by lane and must cost, or fault, exactly as before.
func TestUnitStrideEdges(t *testing.T) {
	const heap = 1 << 20
	const buf = heapBase // a fresh device's first allocation
	unit := func(base, step uint64) func(int) uint64 {
		return func(i int) uint64 { return base + uint64(i)*step }
	}
	// but is f with one lane's address moved by off.
	but := func(f func(int) uint64, lane int, off uint64) func(int) uint64 {
		return func(i int) uint64 {
			if i == lane {
				return f(i) + off
			}
			return f(i)
		}
	}
	for _, row := range []struct {
		name      string
		lineBytes int
		inst      string
		addr      func(lane int) uint64
		// Statistics and cycles of the cold access and cycles of the warm
		// one (0: the load overwrote its addresses); or the fault.
		lines, l1Miss, l2Miss, cold, warm uint64
		faults                            bool
		fault                             FaultKind
		lane                              int
		faultAddr                         uint64
	}{
		{name: "unit", lineBytes: 128, inst: "LDG R8, [R2]", addr: unit(buf, 4), lines: 1, l1Miss: 1, l2Miss: 1, cold: 224, warm: 8},
		{name: "unit store", lineBytes: 128, inst: "STG [R2], R6", addr: unit(buf+128, 4), lines: 1, l1Miss: 1, l2Miss: 1, cold: 224, warm: 8},
		{name: "unit, offset in the instruction", lineBytes: 128, inst: "LDG R8, [R2+64]", addr: unit(buf, 4), lines: 2, l1Miss: 2, l2Miss: 2, cold: 444, warm: 12},
		{name: "unit 8-byte", lineBytes: 128, inst: "LDG.W R8, [R2]", addr: unit(buf, 8), lines: 2, l1Miss: 2, l2Miss: 2, cold: 444, warm: 12},
		{name: "unit 8-byte store", lineBytes: 128, inst: "STG.W [R2], R6", addr: unit(buf, 8), lines: 2, l1Miss: 2, l2Miss: 2, cold: 444, warm: 12},
		{name: "unit 8-byte into its own address", lineBytes: 128, inst: "LDG.W R2, [R2]", addr: unit(buf, 8), lines: 2, l1Miss: 2, l2Miss: 2, cold: 444},
		{name: "unit across a page", lineBytes: 128, inst: "LDG R8, [R2]", addr: unit(buf+pageSize-64, 4), lines: 2, l1Miss: 2, l2Miss: 2, cold: 444, warm: 12},
		{name: "unit to the last byte of a page", lineBytes: 128, inst: "STG [R2], R6", addr: unit(buf+pageSize-128, 4), lines: 1, l1Miss: 1, l2Miss: 1, cold: 224, warm: 8},
		{name: "unit to the last byte of the heap", lineBytes: 128, inst: "STG [R2], R6", addr: unit(heap-128, 4), lines: 1, l1Miss: 1, l2Miss: 1, cold: 224, warm: 8},
		{name: "unit, one element past the heap", lineBytes: 128, inst: "LDG R8, [R2]", addr: unit(heap-124, 4), faults: true, fault: FaultIllegalAddress, lane: 31, faultAddr: heap},
		{name: "unit 8-byte, one element past the heap", lineBytes: 128, inst: "STG.W [R2], R6", addr: unit(heap-248, 8), faults: true, fault: FaultIllegalAddress, lane: 31, faultAddr: heap},
		{name: "unit from the null page", lineBytes: 128, inst: "LDG R8, [R2]", addr: unit(heapBase-64, 4), faults: true, fault: FaultIllegalAddress, lane: 0, faultAddr: heapBase - 64},
		{name: "unit, misaligned start", lineBytes: 128, inst: "LDG R8, [R2]", addr: unit(buf+2, 4), faults: true, fault: FaultMisalignedAddress, lane: 0, faultAddr: buf + 2},
		{name: "unit 8-byte on 4-byte alignment", lineBytes: 128, inst: "LDG.W R8, [R2]", addr: unit(buf+4, 8), faults: true, fault: FaultMisalignedAddress, lane: 0, faultAddr: buf + 4},
		{name: "unit, 4-byte lines", lineBytes: 4, inst: "LDG R8, [R2]", addr: unit(buf, 4), lines: 32, l1Miss: 32, l2Miss: 32, cold: 7044, warm: 132},
		{name: "unit 8-byte, 4-byte lines", lineBytes: 4, inst: "LDG.W R8, [R2]", addr: unit(buf, 8), lines: 64, l1Miss: 64, l2Miss: 64, cold: 14084, warm: 260},
		{name: "unit 8-byte, 8-byte lines", lineBytes: 8, inst: "STG.W [R2], R6", addr: unit(buf, 8), lines: 32, l1Miss: 32, l2Miss: 32, cold: 7044, warm: 132},
		{name: "descending", lineBytes: 128, inst: "LDG R8, [R2]", addr: func(i int) uint64 { return buf + 256 - 4*uint64(i) }, lines: 2, l1Miss: 2, l2Miss: 2, cold: 444, warm: 12},
		{name: "stride 2", lineBytes: 128, inst: "LDG R8, [R2]", addr: unit(buf, 8), lines: 2, l1Miss: 2, l2Miss: 2, cold: 444, warm: 12},
		{name: "broadcast", lineBytes: 128, inst: "LDG R8, [R2]", addr: unit(buf+260, 0), lines: 1, l1Miss: 1, l2Miss: 1, cold: 224, warm: 8},
		{name: "unit but for the last lane", lineBytes: 128, inst: "LDG R8, [R2]", addr: but(unit(buf, 4), 31, 4), lines: 2, l1Miss: 2, l2Miss: 2, cold: 444, warm: 12},
		{name: "unit in the low words only", lineBytes: 128, inst: "LDG R8, [R2]", addr: but(unit(buf, 4), 17, 1<<32), faults: true, fault: FaultIllegalAddress, lane: 17, faultAddr: buf + 4*17 + 1<<32},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := DefaultConfig(sass.Volta)
			cfg.GlobalMemBytes, cfg.L1LineBytes = heap, row.lineBytes
			d, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := d.Malloc(heap - 2*heapBase); err != nil || got != buf {
				t.Fatalf("first allocation at %#x (%v), the rows assume %#x", got, err, uint64(buf))
			}
			h := newStepHarness(t, d, row.inst)
			var cycles [2]uint64
			for k := range cycles {
				for i := 0; i < WarpSize; i++ {
					h.w.setReg64(i, 2, row.addr(i))
					h.w.setReg64(i, 6, uint64(i)*0x100000001)
				}
				h.w.upc, h.c.wdLeft = h.entry, 1
				err := h.c.step(h.w)
				if row.faults {
					f, ok := AsFault(err)
					if !ok || f.Kind != row.fault || f.Lane != row.lane || f.Addr != row.faultAddr {
						t.Fatalf("got %v, want %v on lane %d at %#x", err, row.fault, row.lane, row.faultAddr)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				cycles[k], h.w.cycles = h.w.cycles, 0
				if row.warm == 0 {
					break
				}
			}
			st := h.c.stats
			if row.warm != 0 {
				// The warm access hits L1 on every line.
				st.GlobalAccesses, st.GlobalLines, st.L1Hits = st.GlobalAccesses-1, st.GlobalLines-row.lines, st.L1Hits-row.lines
			}
			got := fmt.Sprintf("lines: %d, l1Miss: %d, l2Miss: %d, cold: %d, warm: %d", st.GlobalLines, st.L1Misses, st.L2Misses, cycles[0], cycles[1])
			want := fmt.Sprintf("lines: %d, l1Miss: %d, l2Miss: %d, cold: %d, warm: %d", row.lines, row.l1Miss, row.l2Miss, row.cold, row.warm)
			if got != want || st.GlobalAccesses != 1 || st.L1Hits != 0 || st.L2Hits != 0 {
				t.Fatalf("got  %s\nwant %s\n(%+v)", got, want, st)
			}
		})
	}
}

// TestSameAddressRedAdd launches a warp whose first n lanes add their lane
// number to one counter, as a 32-bit and as a 64-bit reduction, once (cold
// L1) or twice (the second warm), under both schedulers. One read-modify-write
// of the lanes' sum must leave the counters, the cache statistics and the
// cycles that n lane-order probes of the line left.
func TestSameAddressRedAdd(t *testing.T) {
	const kernel = `
		LDC.W R4, c[1][0]
		S2R R2, SR_LANEID
		MOVI R3, 1                      // each lane adds 2³² + lane to the wide counter
		ISETP.LT P0, R2, RZ, %d
		@P0 RED.ADD [R4], R2
		@P0 RED.ADD.W [R4+256], R2
		%s
		EXIT
	`
	const again = `
		@P0 RED.ADD [R4], R2
		@P0 RED.ADD.W [R4+256], R2
	`
	for _, row := range []struct {
		lanes  int
		warm   bool
		cycles uint64
		st     Stats // the cache counters of the launch
	}{
		{lanes: 1, cycles: 470, st: Stats{L1Misses: 2, L2Misses: 2}},
		{lanes: 7, cycles: 518, st: Stats{L1Hits: 12, L1Misses: 2, L2Misses: 2}},
		{lanes: 32, cycles: 718, st: Stats{L1Hits: 62, L1Misses: 2, L2Misses: 2}},
		{lanes: 1, warm: true, cycles: 502, st: Stats{L1Hits: 2, L1Misses: 2, L2Misses: 2}},
		{lanes: 7, warm: true, cycles: 598, st: Stats{L1Hits: 26, L1Misses: 2, L2Misses: 2}},
		{lanes: 32, warm: true, cycles: 998, st: Stats{L1Hits: 126, L1Misses: 2, L2Misses: 2}},
	} {
		bothSchedulers(t, func(t *testing.T, kind SchedulerKind) {
			d := faultDevice(t, kind)
			ctr, err := d.Malloc(512)
			if err != nil {
				t.Fatal(err)
			}
			src, passes := fmt.Sprintf(kernel, row.lanes, ""), uint64(1)
			if row.warm {
				src, passes = fmt.Sprintf(kernel, row.lanes, again), 2
			}
			st := launch(t, d, loadSASS(t, d, src), D1(1), D1(WarpSize), u64param(ctr), 0)
			got := Stats{L1Hits: st.L1Hits, L1Misses: st.L1Misses, L2Hits: st.L2Hits, L2Misses: st.L2Misses}
			if got != row.st || st.Cycles != row.cycles || st.GlobalAccesses != 2*passes || st.GlobalLines != 0 {
				t.Errorf("%d lanes, warm %v: L1 %d/%d, L2 %d/%d, %d cycles, %d accesses, %d lines; want L1 %d/%d, L2 %d/%d, %d cycles",
					row.lanes, row.warm, st.L1Hits, st.L1Misses, st.L2Hits, st.L2Misses, st.Cycles, st.GlobalAccesses, st.GlobalLines,
					row.st.L1Hits, row.st.L1Misses, row.st.L2Hits, row.st.L2Misses, row.cycles)
			}
			var mem [264]byte
			if err := d.Read(ctr, mem[:]); err != nil {
				t.Fatal(err)
			}
			n := uint64(row.lanes)
			sum := passes * n * (n - 1) / 2
			if got := uint64(binary.LittleEndian.Uint32(mem[:])); got != sum {
				t.Errorf("%d lanes, warm %v: counter %d, want %d", row.lanes, row.warm, got, sum)
			}
			if got, want := binary.LittleEndian.Uint64(mem[256:]), sum+passes*n<<32; got != want {
				t.Errorf("%d lanes, warm %v: wide counter %#x, want %#x", row.lanes, row.warm, got, want)
			}
		})
	}
}

// TestSharedCounterParallel has every thread of a grid add to the same two
// counters under the parallel scheduler, where the workers' single
// read-modify-writes meet on the stripe locks (CI runs this package under the
// race detector).
func TestSharedCounterParallel(t *testing.T) {
	const ctas, threads = 48, 96
	d := faultDevice(t, SchedulerParallelSM)
	ctr, err := d.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	entry := loadSASS(t, d, `
		LDC.W R4, c[1][0]
		S2R R2, SR_TID.X
		MOVI R3, 1
		RED.ADD [R4], R2
		RED.ADD.W [R4+8], R2
		EXIT
	`)
	launch(t, d, entry, D1(ctas), D1(threads), u64param(ctr), 0)
	var mem [16]byte
	if err := d.Read(ctr, mem[:]); err != nil {
		t.Fatal(err)
	}
	const sum = ctas * threads * (threads - 1) / 2
	if got := binary.LittleEndian.Uint32(mem[:]); got != sum {
		t.Errorf("counter %d, want %d", got, sum)
	}
	if got, want := binary.LittleEndian.Uint64(mem[8:]), uint64(sum+ctas*threads<<32); got != want {
		t.Errorf("wide counter %#x, want %#x", got, want)
	}
}

// TestFastPathsCompareHighWords: above 4 GiB the high words of the addresses
// count. Lane 9's address has the first lane's low word but for one bit, and
// that bit is the first lane's whole high word: xor-ed and or-ed without care
// the difference cancels. The lane is misaligned and below 4 GiB, and both
// paths must leave it to the walk, which says so.
func TestFastPathsCompareHighWords(t *testing.T) {
	cfg := DefaultConfig(sass.Volta)
	cfg.GlobalMemBytes = 4<<30 + 1<<20
	for _, inst := range []string{"LDG R8, [R2]", "RED.ADD [R2], R6"} {
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := newStepHarness(t, d, inst)
		for i := 0; i < WarpSize; i++ {
			addr := uint64(1<<32 + 1<<16)
			if inst[0] == 'L' {
				addr += 4 * uint64(i)
			}
			if i == 9 {
				addr = addr&0xffffffff ^ 1
			}
			h.w.setReg64(i, 2, addr)
		}
		h.w.upc, h.c.wdLeft = h.entry, 1
		f, ok := AsFault(h.c.step(h.w))
		if !ok || f.Kind != FaultMisalignedAddress || f.Lane != 9 {
			t.Errorf("%s: got %v, want a misaligned-address fault on lane 9", inst, f)
		}
	}
}
