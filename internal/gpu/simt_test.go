package gpu

import (
	"encoding/binary"
	"fmt"
	"testing"

	"nvbitgo/internal/sass"
)

// Reconvergence and save-frame edge cases against hand-written SASS. Every
// expectation here (values, instruction counts, fault kind/lane/PC/detail)
// was pinned on the per-lane interpreter this core replaced.

// storeR9 ends a kernel: out[R0] = R9, with R0 the thread's index.
const storeR9 = `
	LDC.W R20, c[1][0]
	MOVI R22, 4
	IMAD.W R20, R0, R22, R20
	STG [R20], R9
	EXIT
`

// runThreads launches src as one CTA of the given size and returns the
// launch statistics and the 64-word out array the kernel stored into.
func runThreads(t *testing.T, d *Device, src string, threads, shared int) (Stats, [64]uint32) {
	t.Helper()
	out, err := d.Malloc(4 * 64)
	if err != nil {
		t.Fatal(err)
	}
	st := launch(t, d, loadSASS(t, d, src), D1(1), D1(threads), u64param(out), shared)
	buf := make([]byte, 4*64)
	if err := d.Read(out, buf); err != nil {
		t.Fatal(err)
	}
	var vals [64]uint32
	for i := range vals {
		vals[i] = binary.LittleEndian.Uint32(buf[4*i:])
	}
	return st, vals
}

func wantInstrs(t *testing.T, st Stats, warp, thread uint64) {
	t.Helper()
	if st.WarpInstrs != warp || st.ThreadInstrs != thread {
		t.Errorf("executed %d warp / %d thread instructions, want %d / %d", st.WarpInstrs, st.ThreadInstrs, warp, thread)
	}
}

// TestTailWarp: a 40-thread block's second warp has 8 lanes; they diverge and
// reconverge like a full warp and the 24 absent lanes never execute.
func TestTailWarp(t *testing.T) {
	d := newTestDevice(t, sass.Volta)
	st, out := runThreads(t, d, `
		S2R R0, SR_TID.X
		LOP.AND R1, R0, RZ, 1
		ISETP.EQ P0, R1, RZ, 0
		@P0 BRA even
		MOVI R9, 100
		BRA join
	even:
		MOVI R9, 200
	join:
		IADD R9, R9, R0, 0
	`+storeR9, 40, 0)
	for i, got := range out {
		want := uint32(0)
		if i < 40 {
			want = uint32(200 - 100*(i%2) + i)
		}
		if got != want {
			t.Errorf("out[%d] = %d, want %d", i, got, want)
		}
	}
	wantInstrs(t, st, 2*13, 20*12+20*11)
}

// TestGuardedExitRetiresSubset: a guarded EXIT retires part of the active
// group while other lanes wait at a higher PC; the survivors of both groups
// reconverge.
func TestGuardedExitRetiresSubset(t *testing.T) {
	d := newTestDevice(t, sass.Volta)
	st, out := runThreads(t, d, `
		S2R R0, SR_LANEID
		LOP.AND R1, R0, RZ, 1
		ISETP.EQ P0, R1, RZ, 0
		ISETP.LT P1, R0, RZ, 8
		@P0 BRA even
		@P1 EXIT                  // odd lanes below 8 retire; even lanes wait
		MOVI R9, 100
		BRA join
	even:
		MOVI R9, 200
	join:
		IADD R9, R9, R0, 0
	`+storeR9, 32, 0)
	for i := 0; i < 32; i++ {
		want := uint32(200 + i)
		if i%2 == 1 {
			want = uint32(100 + i)
			if i < 8 {
				want = 0
			}
		}
		if out[i] != want {
			t.Errorf("lane %d stored %d, want %d", i, out[i], want)
		}
	}
	wantInstrs(t, st, 15, 32*5+16+12*2+16+28*6)
}

// TestDivergentCallReturn: two groups call one function from different
// sites, reconverge inside it, and its single RET sends them back to their
// own return addresses.
func TestDivergentCallReturn(t *testing.T) {
	d := newTestDevice(t, sass.Volta)
	st, out := runThreads(t, d, `
		S2R R0, SR_LANEID
		LOP.AND R1, R0, RZ, 1
		ISETP.EQ P0, R1, RZ, 0
		MOVI R9, 0
		@P0 BRA evens
		CAL f
		IADD R9, R9, RZ, 10
		BRA join
	evens:
		CAL f
		IADD R9, R9, RZ, 20
	join:
	`+storeR9+`
	f:
		IADD R9, R9, R0, 0
		RET
	`, 32, 0)
	for i := 0; i < 32; i++ {
		if want := uint32(i + 20 - 10*(i%2)); out[i] != want {
			t.Errorf("lane %d stored %d, want %d", i, out[i], want)
		}
	}
	// f's two instructions issue once for the whole warp.
	wantInstrs(t, st, 5+1+1+2+2+1+5, 32*5+16+16+32*2+16*2+16+32*5)
}

// TestBarrierWithExitedLanes: lanes, and in the second case a whole warp,
// exit before a CTA barrier the remaining threads still pass.
func TestBarrierWithExitedLanes(t *testing.T) {
	for _, cutoff := range []int{48, 32} {
		t.Run(fmt.Sprintf("exit-from-%d", cutoff), func(t *testing.T) {
			d := newTestDevice(t, sass.Volta)
			_, out := runThreads(t, d, fmt.Sprintf(`
				S2R R0, SR_TID.X
				SHL R4, R0, RZ, 2
				STS [R4], R0
				ISETP.GE P0, R0, RZ, %d
				@P0 EXIT
				ISETP.LT P1, R0, RZ, 4
				@P1 EXIT
				BAR
				LOP.XOR R5, R0, RZ, 32    // the other warp's slot
				SHL R5, R5, RZ, 2
				LDS R9, [R5]
			`, cutoff)+storeR9, 64, 256)
			for i, got := range out {
				want := uint32(0)
				if i >= 4 && i < cutoff {
					want = uint32(i ^ 32)
				}
				if got != want {
					t.Errorf("thread %d stored %d, want %d", i, got, want)
				}
			}
		})
	}
}

// TestSaveFramesPerLane: lanes hold frames of different sizes at different
// depths and address them from one reconverged instruction; a pushed frame
// is zero whatever the slab held before (second launch: the previous one's
// frames), so RDREG of a never-stored slot reads 0.
func TestSaveFramesPerLane(t *testing.T) {
	d := newTestDevice(t, sass.Volta)
	src := `
		S2R R0, SR_LANEID
		LOP.AND R1, R0, RZ, 1
		ISETP.EQ P0, R1, RZ, 0
		IADD R10, R0, RZ, 100
		IADD R11, R0, RZ, 200
		SAVEPUSH 3                // dirty two stack levels, whole warp
		STSA [0], R10
		STSA [1], R10
		STSA [2], R10
		SAVEPUSH 3
		STSA [0], R10
		STSA [1], R10
		STSA [2], R10
		SAVEPOP
		SAVEPOP
		@P0 BRA evens
		SAVEPUSH 1                // odd lanes: a 1-slot frame ...
		STSA [0], R10
		SAVEPUSH 3                // ... under a 3-slot one
		BRA both
	evens:
		SAVEPUSH 2                // even lanes: one 2-slot frame
	both:
		STSA [1], R11             // each lane's innermost frame
		@!P0 STSA [2], R10        // slot 2 exists only in the odd lanes' frame
		MOVI R12, 1
		RDREG R13, R12+0          // lane+200
		MOVI R12, 0
		RDREG R14, R12+0          // never stored: 0
		SAVEPOP
		MOVI R15, 0
		@!P0 LDSA R15, [0]        // odd lanes: the outer frame kept lane+100
		@!P0 SAVEPOP
		MOVI R16, 1000
		IMAD R9, R15, R16, R13
		MOVI R16, 1000000
		IMAD R9, R14, R16, R9
	` + storeR9
	for launchNo := 1; launchNo <= 2; launchNo++ {
		_, out := runThreads(t, d, src, 32, 0)
		for i := 0; i < 32; i++ {
			want := uint32(i + 200)
			if i%2 == 1 {
				want += uint32(i+100) * 1000
			}
			if out[i] != want {
				t.Errorf("launch %d: lane %d stored %d, want %d", launchNo, i, out[i], want)
			}
		}
	}
}

// TestSaveFrameFaults: frame-slot, overflow and underflow traps name the
// first lane that hits them and the instruction's PC.
func TestSaveFrameFaults(t *testing.T) {
	const from5 = `
		S2R R0, SR_LANEID
		ISETP.GE P0, R0, RZ, 5
	`
	cases := []struct {
		name, src string
		kind      FaultKind
		lane      int
		pcOff     int32
		detail    string
	}{
		{"slot beyond frame, whole warp", "SAVEPUSH 2\nSTSA [2], R0\nEXIT",
			FaultInvalidInstruction, 0, 1, "save slot 2 beyond frame of 2"},
		{"slot beyond frame, lanes from 5", from5 + "SAVEPUSH 2\n@P0 LDSA R1, [7]\nEXIT",
			FaultInvalidInstruction, 5, 3, "save slot 7 beyond frame of 2"},
		{"RDREG beyond saved set", from5 + "SAVEPUSH 2\nMOVI R1, 7\n@P0 RDREG R2, R1+0\nEXIT",
			FaultInvalidInstruction, 5, 4, "RDREG of register 7 beyond saved set of 2"},
		{"WRREG beyond saved set", "SAVEPUSH 2\nMOVI R1, 1\nWRREG R1+1, R0\nEXIT",
			FaultInvalidInstruction, 0, 2, "WRREG of register 2 beyond saved set of 2"},
		{"save stack overflow", from5 + "loop:\n@P0 SAVEPUSH 1\nBRA loop",
			FaultStackOverflow, 5, 2, "save stack exceeds 1024 frames"},
		{"pop of empty stack", from5 + "@P0 SAVEPOP\nEXIT",
			FaultStackUnderflow, 5, 2, "SAVEPOP with empty save stack"},
		{"pop after the frame is gone", "SAVEPUSH 1\nSAVEPOP\nSAVEPOP\nEXIT",
			FaultStackUnderflow, 0, 2, "SAVEPOP with empty save stack"},
		{"store with no frame", from5 + "@P0 STSA [0], R0\nEXIT",
			FaultStackUnderflow, 5, 2, "STSA with no save frame"},
		{"predicate save with no frame", "SAVEPUSH 1\nSAVEPOP\nSTSP\nEXIT",
			FaultStackUnderflow, 0, 2, "STSP with no save frame"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := faultDevice(t, SchedulerSequential)
			f := launchFault(t, d, c.src, D1(1), D1(32), nil)
			if f.Kind != c.kind || f.Lane != c.lane || f.PC != int32(f.Entry)+c.pcOff || f.Detail != c.detail {
				t.Fatalf("got %v lane %d PC entry+%d %q, want %v lane %d PC entry+%d %q",
					f.Kind, f.Lane, f.PC-int32(f.Entry), f.Detail, c.kind, c.lane, c.pcOff, c.detail)
			}
		})
	}
}
