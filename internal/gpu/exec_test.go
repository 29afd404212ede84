package gpu

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"nvbitgo/internal/sass"
)

// loadSASS assembles a base-0 program, relocates its absolute JMP/CAL
// targets to the load address and writes it into device code space.
func loadSASS(t testing.TB, d *Device, src string) CodeAddr {
	t.Helper()
	insts, err := sass.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	base, err := d.AllocCode(len(insts))
	if err != nil {
		t.Fatal(err)
	}
	for i := range insts {
		if insts[i].Op == sass.OpJMP || insts[i].Op == sass.OpCAL {
			insts[i].Imm += int64(base)
		}
	}
	raw, err := d.Codec().EncodeAll(insts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteCode(base, raw); err != nil {
		t.Fatal(err)
	}
	return base
}

func launch(t *testing.T, d *Device, entry CodeAddr, grid, block Dim3, params []byte, shared int) Stats {
	t.Helper()
	st, err := d.Launch(LaunchSpec{Entry: entry, Grid: grid, Block: block, Params: params, SharedBytes: shared})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func u64param(vals ...uint64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	return b
}

// gidProlog computes the global thread id into R0 (1-D launches).
const gidProlog = `
	S2R R0, SR_TID.X
	S2R R2, SR_CTAID.X
	S2R R3, SR_NTID.X
	IMAD R0, R2, R3, R0
`

func TestSaxpyKernel(t *testing.T) {
	for _, f := range []sass.Family{sass.Kepler, sass.Volta} {
		t.Run(f.String(), func(t *testing.T) {
			d := newTestDevice(t, f)
			const n = 1000
			x, _ := d.Malloc(4 * n)
			y, _ := d.Malloc(4 * n)
			xs := make([]byte, 4*n)
			ys := make([]byte, 4*n)
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint32(xs[4*i:], math.Float32bits(float32(i)))
				binary.LittleEndian.PutUint32(ys[4*i:], math.Float32bits(float32(2*i)))
			}
			if err := d.Write(x, xs); err != nil {
				t.Fatal(err)
			}
			if err := d.Write(y, ys); err != nil {
				t.Fatal(err)
			}

			entry := loadSASS(t, d, gidProlog+`
				LDC R1, c[1][20]          // n
				ISETP.GE.U32 P0, R0, R1, 0
				@P0 EXIT
				LDC.W R4, c[1][0]         // x
				LDC.W R6, c[1][8]         // y
				MOVI R8, 4
				IMAD.W R4, R0, R8, R4
				IMAD.W R6, R0, R8, R6
				LDG R9, [R4]
				LDG R10, [R6]
				LDC R11, c[1][16]         // a
				FFMA R10, R11, R9, R10
				STG [R6], R10
				EXIT
			`)

			params := make([]byte, 24)
			binary.LittleEndian.PutUint64(params[0:], x)
			binary.LittleEndian.PutUint64(params[8:], y)
			binary.LittleEndian.PutUint32(params[16:], math.Float32bits(3))
			binary.LittleEndian.PutUint32(params[20:], n)
			st := launch(t, d, entry, D1(8), D1(128), params, 0)

			out := make([]byte, 4*n)
			if err := d.Read(y, out); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				got := math.Float32frombits(binary.LittleEndian.Uint32(out[4*i:]))
				want := 3*float32(i) + 2*float32(i)
				if got != want {
					t.Fatalf("y[%d] = %v, want %v", i, got, want)
				}
			}
			if st.WarpInstrs == 0 || st.Cycles == 0 || st.GlobalAccesses == 0 {
				t.Fatalf("stats not collected: %+v", st)
			}
		})
	}
}

func TestDivergenceAndReconvergence(t *testing.T) {
	d := newTestDevice(t, sass.Pascal)
	out, _ := d.Malloc(4 * 32)
	entry := loadSASS(t, d, `
		S2R R0, SR_LANEID
		LOP.AND R1, R0, RZ, 1
		ISETP.EQ P0, R1, RZ, 0
		@P0 BRA even
		MOVI R2, 100              // odd lanes
		BRA join
	even:
		MOVI R2, 200              // even lanes
	join:
		IADD R2, R2, RZ, 5        // all lanes reconverged
		LDC.W R4, c[1][0]
		MOVI R6, 4
		IMAD.W R4, R0, R6, R4
		STG [R4], R2
		EXIT
	`)
	launch(t, d, entry, D1(1), D1(32), u64param(out), 0)
	buf := make([]byte, 4*32)
	if err := d.Read(out, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		got := binary.LittleEndian.Uint32(buf[4*i:])
		want := uint32(205)
		if i%2 == 0 {
			want = 205
		} else {
			want = 105
		}
		if got != want {
			t.Fatalf("lane %d = %d, want %d", i, got, want)
		}
	}
}

func TestDataDependentLoopDivergence(t *testing.T) {
	// Each lane loops laneid+1 times; verifies per-lane PCs and min-PC
	// scheduling handle loop divergence.
	d := newTestDevice(t, sass.Volta)
	out, _ := d.Malloc(4 * 32)
	entry := loadSASS(t, d, `
		S2R R0, SR_LANEID
		IADD R1, R0, RZ, 1       // trips = lane+1
		MOVI R2, 0               // acc
	loop:
		IADD R2, R2, RZ, 3
		IADD R1, R1, RZ, -1
		ISETP.GT P0, R1, RZ, 0
		@P0 BRA loop
		LDC.W R4, c[1][0]
		MOVI R6, 4
		IMAD.W R4, R0, R6, R4
		STG [R4], R2
		EXIT
	`)
	launch(t, d, entry, D1(1), D1(32), u64param(out), 0)
	buf := make([]byte, 4*32)
	if err := d.Read(out, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if got := binary.LittleEndian.Uint32(buf[4*i:]); got != uint32(3*(i+1)) {
			t.Fatalf("lane %d = %d, want %d", i, got, 3*(i+1))
		}
	}
}

func TestSharedMemoryBarrierReduction(t *testing.T) {
	// Two warps cooperate: each thread writes tid to shared, barrier,
	// thread 0 sums all 64 entries.
	d := newTestDevice(t, sass.Pascal)
	out, _ := d.Malloc(4)
	entry := loadSASS(t, d, `
		S2R R0, SR_TID.X
		SHL R1, R0, RZ, 2
		STS [R1], R0
		BAR
		ISETP.NE P0, R0, RZ, 0
		@P0 EXIT
		MOVI R2, 0               // sum
		MOVI R3, 0               // i
		MOVI R5, 0               // addr
	loop:
		LDS R4, [R5]
		IADD R2, R2, R4, 0
		IADD R5, R5, RZ, 4
		IADD R3, R3, RZ, 1
		ISETP.LT P0, R3, RZ, 64
		@P0 BRA loop
		LDC.W R6, c[1][0]
		STG [R6], R2
		EXIT
	`)
	launch(t, d, entry, D1(1), D1(64), u64param(out), 256)
	buf := make([]byte, 4)
	if err := d.Read(out, buf); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(buf); got != 64*63/2 {
		t.Fatalf("reduction = %d, want %d", got, 64*63/2)
	}
}

func TestAtomicsIntFloatWide(t *testing.T) {
	d := newTestDevice(t, sass.Volta)
	ctr, _ := d.Malloc(32)
	entry := loadSASS(t, d, `
		LDC.W R4, c[1][0]
		MOVI R2, 1
		RED.ADD [R4], R2          // int32 count
		MOVI R3, 0x3f800000       // hmm: 20-bit imm limit does not apply on Volta
		RED.ADD.F [R4+8], R3      // float32 1.0 each
		MOVI R6, 1
		MOVI R7, 0
		RED.ADD.W [R4+16], R6     // u64 count
		S2R R8, SR_LANEID
		ATOM.MAX R9, [R4+24], R8
		EXIT
	`)
	launch(t, d, entry, D1(2), D1(64), u64param(ctr), 0)
	buf := make([]byte, 32)
	if err := d.Read(ctr, buf); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(buf); got != 128 {
		t.Fatalf("int atomic = %d", got)
	}
	if got := math.Float32frombits(binary.LittleEndian.Uint32(buf[8:])); got != 128 {
		t.Fatalf("float atomic = %v", got)
	}
	if got := binary.LittleEndian.Uint64(buf[16:]); got != 128 {
		t.Fatalf("wide atomic = %d", got)
	}
	if got := binary.LittleEndian.Uint32(buf[24:]); got != 31 {
		t.Fatalf("atomic max = %d", got)
	}
}

func TestWarpIntrinsics(t *testing.T) {
	d := newTestDevice(t, sass.Volta)
	out, _ := d.Malloc(4 * 32 * 3)
	entry := loadSASS(t, d, `
		S2R R0, SR_LANEID
		// ballot of odd lanes
		LOP.AND R1, R0, RZ, 1
		ISETP.NE P1, R1, RZ, 0
		VOTE.BALLOT R2, P1
		// butterfly shuffle with stride 1 swaps neighbours
		SHFL.BFLY R3, R0, RZ, 1
		// match on lane/8 groups
		SHR R4, R0, RZ, 3
		MATCH R5, R4
		LDC.W R8, c[1][0]
		MOVI R6, 4
		IMAD.W R8, R0, R6, R8
		STG [R8], R2
		STG [R8+128], R3
		STG [R8+256], R5
		EXIT
	`)
	launch(t, d, entry, D1(1), D1(32), u64param(out), 0)
	buf := make([]byte, 4*32*3)
	if err := d.Read(out, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		ballot := binary.LittleEndian.Uint32(buf[4*i:])
		if ballot != 0xAAAAAAAA {
			t.Fatalf("lane %d ballot = %#x", i, ballot)
		}
		shfl := binary.LittleEndian.Uint32(buf[128+4*i:])
		if shfl != uint32(i^1) {
			t.Fatalf("lane %d bfly = %d", i, shfl)
		}
		match := binary.LittleEndian.Uint32(buf[256+4*i:])
		want := uint32(0xFF) << uint(i/8*8)
		if match != want {
			t.Fatalf("lane %d match = %#x, want %#x", i, match, want)
		}
	}
}

func TestSaveRestoreAndDeviceAPI(t *testing.T) {
	// Mimics what an NVBit trampoline does: save, clobber, write through
	// the device API, restore — the WRREG write must survive the restore.
	d := newTestDevice(t, sass.Volta)
	out, _ := d.Malloc(8)
	entry := loadSASS(t, d, `
		MOVI R0, 111
		MOVI R1, 222
		SAVEPUSH 2
		STSA [0], R0
		STSA [1], R1
		STSP
		MOVI R0, 9      // clobber
		MOVI R1, 9
		MOVI R5, 1      // register index 1
		MOVI R6, 777
		WRREG R5+0, R6  // saved R1 := 777
		RDREG R7, R5+0
		LDSA R0, [0]
		LDSA R1, [1]
		LDSP
		SAVEPOP
		LDC.W R2, c[1][0]
		STG [R2], R0
		STG [R2+4], R1
		EXIT
	`)
	launch(t, d, entry, D1(1), D1(1), u64param(out), 0)
	buf := make([]byte, 8)
	if err := d.Read(out, buf); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(buf); got != 111 {
		t.Fatalf("restored R0 = %d", got)
	}
	if got := binary.LittleEndian.Uint32(buf[4:]); got != 777 {
		t.Fatalf("restored R1 = %d, want the WRREG-modified 777", got)
	}
}

func TestCallReturn(t *testing.T) {
	d := newTestDevice(t, sass.Kepler)
	out, _ := d.Malloc(4)
	entry := loadSASS(t, d, `
		MOVI R0, 5
		CAL double
		CAL double
		LDC.W R2, c[1][0]
		STG [R2], R0
		EXIT
	double:
		IADD R0, R0, R0, 0
		RET
	`)
	launch(t, d, entry, D1(1), D1(1), u64param(out), 0)
	buf := make([]byte, 4)
	if err := d.Read(out, buf); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(buf); got != 20 {
		t.Fatalf("after two calls R0 = %d, want 20", got)
	}
}

func TestWFFTNativeVsTrap(t *testing.T) {
	cfg := DefaultConfig(sass.Volta)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := `
		S2R R0, SR_LANEID
		ISETP.EQ P0, R0, RZ, 0
		MOVI R8, 0
		@P0 MOVI R8, 0x3f800000   // x = delta function: x[0]=1
		MOVI R9, 0
		WFFT32 R8, R9
		LDC.W R4, c[1][0]
		MOVI R6, 4
		IMAD.W R4, R0, R6, R4
		STG [R4], R8
		EXIT
	`
	entry := loadSASS(t, d, src)
	_, err = d.Launch(LaunchSpec{Entry: entry, Grid: D1(1), Block: D1(32), Params: u64param(heapBase + 4096)})
	if err == nil || !strings.Contains(err.Error(), "hypothetical") {
		t.Fatalf("WFFT32 should trap without EnableWFFT: %v", err)
	}

	cfg.EnableWFFT = true
	d2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := d2.Malloc(4 * 32)
	entry2 := loadSASS(t, d2, src)
	launch(t, d2, entry2, D1(1), D1(32), u64param(out), 0)
	buf := make([]byte, 4*32)
	if err := d2.Read(out, buf); err != nil {
		t.Fatal(err)
	}
	// DFT of a delta at n=0 is 1 everywhere.
	for i := 0; i < 32; i++ {
		got := math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		if math.Abs(float64(got-1)) > 1e-5 {
			t.Fatalf("lane %d FFT(delta) = %v, want 1", i, got)
		}
	}
}

func TestPredicatedExecution(t *testing.T) {
	d := newTestDevice(t, sass.Maxwell)
	out, _ := d.Malloc(4 * 32)
	entry := loadSASS(t, d, `
		S2R R0, SR_LANEID
		ISETP.LT P2, R0, RZ, 16
		MOVI R1, 7
		@P2 MOVI R1, 42
		@!P2 IADD R1, R1, RZ, 1
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
		want := uint32(8)
		if i < 16 {
			want = 42
		}
		if got := binary.LittleEndian.Uint32(buf[4*i:]); got != want {
			t.Fatalf("lane %d = %d, want %d", i, got, want)
		}
	}
}

func TestStatsGroundTruth(t *testing.T) {
	d := newTestDevice(t, sass.Pascal)
	entry := loadSASS(t, d, `
		MOVI R0, 0
		EXIT
	`)
	st := launch(t, d, entry, D1(4), D1(64), nil, 0)
	// 4 CTAs x 2 warps x 2 instructions.
	if st.WarpInstrs != 16 {
		t.Fatalf("WarpInstrs = %d, want 16", st.WarpInstrs)
	}
	if st.ThreadInstrs != 4*64*2 {
		t.Fatalf("ThreadInstrs = %d, want %d", st.ThreadInstrs, 4*64*2)
	}
	if st.OpCounts[sass.OpMOVI] != 8 || st.OpCounts[sass.OpEXIT] != 8 {
		t.Fatalf("op counts: MOVI=%d EXIT=%d", st.OpCounts[sass.OpMOVI], st.OpCounts[sass.OpEXIT])
	}
}

func TestLaunchValidation(t *testing.T) {
	d := newTestDevice(t, sass.Pascal)
	entry := loadSASS(t, d, "EXIT")
	if _, err := d.Launch(LaunchSpec{Entry: entry, Grid: D1(1), Block: D1(2048)}); err == nil {
		t.Fatal("oversized block accepted")
	}
	if _, err := d.Launch(LaunchSpec{Entry: entry, Grid: Dim3{}, Block: D1(32)}); err == nil {
		t.Fatal("empty grid accepted")
	}
	if _, err := d.Launch(LaunchSpec{Entry: entry, Grid: D1(1), Block: D1(32), SharedBytes: 1 << 20}); err == nil {
		t.Fatal("oversized shared memory accepted")
	}
}

func TestTrapsSurfaceErrors(t *testing.T) {
	d := newTestDevice(t, sass.Pascal)
	// Global store to the unmapped null page.
	entry := loadSASS(t, d, `
		MOVI R4, 0
		MOVI R5, 0
		STG [R4], R0
		EXIT
	`)
	if _, err := d.Launch(LaunchSpec{Entry: entry, Grid: D1(1), Block: D1(1)}); err == nil {
		t.Fatal("null store did not trap")
	}
	// RET with no call frame.
	entry2 := loadSASS(t, d, "RET")
	if _, err := d.Launch(LaunchSpec{Entry: entry2, Grid: D1(1), Block: D1(1)}); err == nil {
		t.Fatal("bare RET did not trap")
	}
}

func TestCacheStatsWarmup(t *testing.T) {
	d := newTestDevice(t, sass.Volta)
	buf, _ := d.Malloc(4096)
	entry := loadSASS(t, d, `
		LDC.W R4, c[1][0]
		LDG R0, [R4]
		LDG R1, [R4]
		EXIT
	`)
	st := launch(t, d, entry, D1(1), D1(1), u64param(buf), 0)
	if st.L1Misses != 1 || st.L1Hits != 1 {
		t.Fatalf("L1 hits=%d misses=%d, want 1/1", st.L1Hits, st.L1Misses)
	}
}
