package gpu

import (
	"fmt"
	"strings"
	"testing"

	"nvbitgo/internal/sass"
)

// faultDevice builds a device with the given scheduler and a small watchdog
// budget so timeout tests run in milliseconds.
func faultDevice(t *testing.T, kind SchedulerKind) *Device {
	t.Helper()
	cfg := DefaultConfig(sass.Volta)
	cfg.Scheduler = kind
	cfg.WatchdogInterval = 100_000
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// launchFault launches src and returns the *Fault it traps with.
func launchFault(t *testing.T, d *Device, src string, grid, block Dim3, params []byte) *Fault {
	t.Helper()
	entry := loadSASS(t, d, src)
	_, err := d.Launch(LaunchSpec{Entry: entry, Name: "victim", Grid: grid, Block: block, Params: params})
	if err == nil {
		t.Fatal("faulting kernel did not error")
	}
	f, ok := AsFault(err)
	if !ok {
		t.Fatalf("launch error is not a *Fault: %v", err)
	}
	if st := d.Stats(); st.Launches != 0 || st.WarpInstrs != 0 {
		t.Fatalf("failed launch leaked stats: %+v", st)
	}
	return f
}

func bothSchedulers(t *testing.T, fn func(t *testing.T, kind SchedulerKind)) {
	for _, kind := range []SchedulerKind{SchedulerSequential, SchedulerParallelSM} {
		t.Run(kind.String(), func(t *testing.T) { fn(t, kind) })
	}
}

// TestWatchdogTimeout: an infinite-loop kernel must trap with
// FaultWatchdogTimeout under both schedulers instead of hanging.
func TestWatchdogTimeout(t *testing.T) {
	const spin = `
	loop:
		IADD R1, R1, RZ, 1
		JMP loop
	`
	bothSchedulers(t, func(t *testing.T, kind SchedulerKind) {
		d := faultDevice(t, kind)
		f := launchFault(t, d, spin, D1(32), D1(64), nil)
		if f.Kind != FaultWatchdogTimeout {
			t.Fatalf("kind = %v, want watchdog timeout: %v", f.Kind, f)
		}
		if f.SM != 0 || f.CTA != 0 {
			t.Fatalf("watchdog fault not attributed to the lowest SM/CTA: %v", f)
		}
		if !strings.Contains(f.Error(), "100000 warp instructions") {
			t.Fatalf("budget missing from message: %v", f)
		}
	})
}

// TestWatchdogDisabled: a negative interval disables the watchdog; a bounded
// loop longer than the old budget must complete.
func TestWatchdogDisabled(t *testing.T) {
	cfg := DefaultConfig(sass.Volta)
	cfg.WatchdogInterval = -1
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entry := loadSASS(t, d, `
		MOVI R1, 0
	loop:
		IADD R1, R1, RZ, 1
		ISETP.LT P0, R1, RZ, 200000
		@P0 BRA loop
		EXIT
	`)
	if _, err := d.Launch(LaunchSpec{Entry: entry, Grid: D1(1), Block: D1(32)}); err != nil {
		t.Fatal(err)
	}
}

// TestFaultProvenance pins every provenance field of a global-store fault.
func TestFaultProvenance(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, kind SchedulerKind) {
		d := faultDevice(t, kind)
		// Only warp 1 (threads 32..63) stores to the unmapped null page.
		f := launchFault(t, d, `
			S2R R0, SR_TID.X
			ISETP.LT P0, R0, RZ, 32
			@P0 EXIT
			MOVI R4, 0
			MOVI R5, 0
			MOVI R6, 7
			STG [R4], R6
			EXIT
		`, D1(32), D1(64), nil)
		if f.Kind != FaultIllegalAddress {
			t.Fatalf("kind = %v: %v", f.Kind, f)
		}
		if f.Kernel != "victim" || f.SM != 0 || f.CTA != 0 || f.Warp != 1 || f.Lane != 0 {
			t.Fatalf("provenance wrong: %+v", f)
		}
		if f.Addr != 0 {
			t.Fatalf("fault address = %#x, want 0", f.Addr)
		}
		if !strings.Contains(f.SASS, "STG") {
			t.Fatalf("SASS = %q, want the faulting STG", f.SASS)
		}
		if f.PC <= int32(f.Entry) {
			t.Fatalf("PC %#x not past entry %#x", f.PC, f.Entry)
		}
	})
}

// TestFaultDeterminismAcrossSchedulers: when many warps in many CTAs fault,
// the reported fault (lowest SM, then lowest CTA, then warp stepping order)
// must be byte-identical between schedulers and across repeated runs.
func TestFaultDeterminismAcrossSchedulers(t *testing.T) {
	kernels := map[string]string{
		// Every warp of every CTA faults: winner is SM 0 / CTA 0 / warp 0.
		"all-warps": `
			MOVI R4, 0
			MOVI R5, 0
			STG [R4], R5
			EXIT
		`,
		// Only CTAs with ctaid % 8 == 3 fault (SM 3 under the fixed
		// cta % NumSMs mapping): winner is SM 3 / CTA 3.
		"one-sm": `
			S2R R2, SR_CTAID.X
			LOP.AND R3, R2, RZ, 7
			ISETP.NE P0, R3, RZ, 3
			@P0 EXIT
			MOVI R4, 0
			MOVI R5, 0
			STG [R4], R5
			EXIT
		`,
		// Warp 1 faults earlier in program order than warp 0; warp 0 still
		// wins (warp stepping order within the CTA is warp 0 first).
		"two-warps": `
			S2R R0, SR_TID.X
			MOVI R4, 0
			MOVI R5, 0
			ISETP.LT P0, R0, RZ, 32
			@P0 BRA w0
			STG [R4], R5
		w0:
			IADD R1, R1, RZ, 1
			STG [R4], R5
			EXIT
		`,
	}
	for name, src := range kernels {
		t.Run(name, func(t *testing.T) {
			ref := ""
			run := func(kind SchedulerKind) string {
				d := faultDevice(t, kind)
				return launchFault(t, d, src, D1(32), D1(64), nil).Error()
			}
			ref = run(SchedulerSequential)
			for i := 0; i < 3; i++ {
				if got := run(SchedulerParallelSM); got != ref {
					t.Fatalf("fault not deterministic:\nparallel   %q\nsequential %q", got, ref)
				}
			}
			switch name {
			case "all-warps":
				if !strings.Contains(ref, "SM 0, CTA 0, warp 0") {
					t.Fatalf("winner not SM 0/CTA 0/warp 0: %q", ref)
				}
			case "one-sm":
				if !strings.Contains(ref, "SM 3, CTA 3") {
					t.Fatalf("winner not SM 3/CTA 3: %q", ref)
				}
			case "two-warps":
				if !strings.Contains(ref, "warp 0") {
					t.Fatalf("winner not warp 0: %q", ref)
				}
			}
		})
	}
}

// TestMisalignedGlobalAccess: a 4-byte store at a 2-mod-4 address traps with
// FaultMisalignedAddress, not a range error.
func TestMisalignedGlobalAccess(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, kind SchedulerKind) {
		d := faultDevice(t, kind)
		buf, err := d.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		f := launchFault(t, d, `
			LDC.W R4, c[1][0]
			MOVI R6, 1
			STG [R4], R6
			EXIT
		`, D1(1), D1(32), u64param(buf+2))
		if f.Kind != FaultMisalignedAddress {
			t.Fatalf("kind = %v: %v", f.Kind, f)
		}
		if f.Addr != buf+2 {
			t.Fatalf("fault address = %#x, want %#x", f.Addr, buf+2)
		}
	})
}

// TestMisalignedSharedAccess: same for shared memory.
func TestMisalignedSharedAccess(t *testing.T) {
	d := faultDevice(t, SchedulerSequential)
	entry := loadSASS(t, d, `
		MOVI R4, 2
		MOVI R6, 1
		STS [R4], R6
		EXIT
	`)
	_, err := d.Launch(LaunchSpec{Entry: entry, Grid: D1(1), Block: D1(32), SharedBytes: 64})
	f, ok := AsFault(err)
	if !ok || f.Kind != FaultMisalignedAddress {
		t.Fatalf("want misaligned-address fault, got %v", err)
	}
	if f.Addr != 2 {
		t.Fatalf("fault address = %#x, want 2", f.Addr)
	}
}

// TestStackOverflow: unbounded recursion traps instead of growing host
// memory without limit.
func TestStackOverflow(t *testing.T) {
	d := faultDevice(t, SchedulerSequential)
	f := launchFault(t, d, `
	rec:
		CAL rec
		EXIT
	`, D1(1), D1(1), nil)
	if f.Kind != FaultStackOverflow {
		t.Fatalf("kind = %v: %v", f.Kind, f)
	}
}

// TestStackUnderflow: a bare RET is a stack underflow with lane provenance.
func TestStackUnderflow(t *testing.T) {
	d := faultDevice(t, SchedulerSequential)
	f := launchFault(t, d, "RET\nEXIT", D1(1), D1(32), nil)
	if f.Kind != FaultStackUnderflow || f.Lane != 0 {
		t.Fatalf("want lane-0 stack underflow, got %v", f)
	}
}

// TestInvalidInstructionFault: jumping outside loaded code is an
// invalid-instruction fault carrying the wild PC.
func TestInvalidInstructionFault(t *testing.T) {
	d := faultDevice(t, SchedulerSequential)
	f := launchFault(t, d, `
		MOVI R1, 99999
		BRX R1, 0
	`, D1(1), D1(32), nil)
	if f.Kind != FaultInvalidInstruction {
		t.Fatalf("kind = %v: %v", f.Kind, f)
	}
	if f.PC != 99999 {
		t.Fatalf("PC = %d, want the wild target", f.PC)
	}
}

// TestUnnamedModifierFaults: a word whose modifiers its opcode's row does not
// name (here LOP sub-op 4, which the executor has no meaning for) does not
// decode, so fetching it faults.
func TestUnnamedModifierFaults(t *testing.T) {
	d := faultDevice(t, SchedulerSequential)
	entry := loadSASS(t, d, "NOP\nLOP.NOT R1, R2, RZ, 0\nEXIT")
	word, err := d.ReadCode(entry+1, 1)
	if err != nil {
		t.Fatal(err)
	}
	word[1]++ // the Mods byte in both layouts: sub-op LopNot+1
	if err := d.WriteCode(entry+1, word); err != nil {
		t.Fatal(err)
	}
	_, err = d.Launch(LaunchSpec{Entry: entry, Name: "victim", Grid: D1(1), Block: D1(32)})
	f, ok := AsFault(err)
	if !ok || f.Kind != FaultInvalidInstruction || f.PC != int32(entry+1) || !strings.Contains(f.Detail, "LOP takes no mods 0xe4") {
		t.Fatalf("want an invalid-instruction fault at the LOP, got %v", err)
	}
}

// TestUnsupportedFloatAtomics: the ISA has no FP64 unit and no float AND, OR
// or XOR. A float atomic on a register pair used to run as a 64-bit integer
// one; both trap on the first executing lane and leave memory alone, whether
// or not the lanes share an address.
func TestUnsupportedFloatAtomics(t *testing.T) {
	for _, inst := range []string{
		"RED.ADD.F.W [R4], R2", "ATOM.ADD.F.W R6, [R4], R2", "RED.MIN.F.W [R4], R2", "ATOM.EXCH.F.W R6, [R4], R2",
		"RED.AND.F [R4], R2", "ATOM.XOR.F R6, [R4], R2",
	} {
		for _, stride := range []int{0, 8} {
			bothSchedulers(t, func(t *testing.T, kind SchedulerKind) {
				d := faultDevice(t, kind)
				buf, _ := d.Malloc(8 * WarpSize)
				f := launchFault(t, d, fmt.Sprintf(`
					LDC.W R4, c[1][0]
					S2R R2, SR_LANEID
					MOVI R3, 0x3ff00000           // R2:R3 is 1.0 and a bit as a double
					MOVI R8, %d
					IMAD.W R4, R2, R8, R4
					ISETP.GE P0, R2, RZ, 3
					@P0 %s
					EXIT
				`, stride, inst), D1(1), D1(32), u64param(buf))
				if f.Kind != FaultInvalidInstruction || f.Lane != 3 || !strings.Contains(f.Detail, "float atomic") {
					t.Fatalf("%s: want an invalid-instruction fault on lane 3, got %v", inst, f)
				}
				mem := make([]byte, 8*WarpSize)
				if err := d.Read(buf, mem); err != nil {
					t.Fatal(err)
				}
				if strings.Trim(string(mem), "\x00") != "" {
					t.Fatalf("%s: the trapped atomic wrote memory", inst)
				}
			})
		}
	}
}

// TestAllocationQuery exercises the allocation-query API memcheck builds on.
func TestAllocationQuery(t *testing.T) {
	d := faultDevice(t, SchedulerSequential)
	a, _ := d.Malloc(100) // rounds to 256
	b, _ := d.Malloc(300) // rounds to 512

	allocs := d.Allocations()
	if len(allocs) != 2 || allocs[0].Base != a || allocs[0].Size != 256 || allocs[1].Base != b || allocs[1].Size != 512 {
		t.Fatalf("allocations: %+v", allocs)
	}
	if err := d.Free(a); err != nil {
		t.Fatal(err)
	}
	freed := d.FreedSpans()
	if len(freed) != 1 || freed[0].Base != a || freed[0].Size != 256 {
		t.Fatalf("freed spans: %+v", freed)
	}
	if allocs := d.Allocations(); len(allocs) != 1 || allocs[0].Base != b {
		t.Fatalf("allocations after free: %+v", allocs)
	}

	// Recycling the span makes it live again; the freed history keeps it.
	c, _ := d.Malloc(64)
	if c != a {
		t.Fatalf("first-fit did not recycle %#x (got %#x)", a, c)
	}
	if allocs := d.Allocations(); len(allocs) != 2 || allocs[0].Base != c || allocs[0].Size != 256 {
		t.Fatalf("allocations after recycling: %+v", allocs)
	}

	if !(AllocSpan{Base: 0x1000, Size: 16}).Contains(0x100c, 4) {
		t.Fatal("Contains(end-inclusive) failed")
	}
	if (AllocSpan{Base: 0x1000, Size: 16}).Contains(0x100d, 4) {
		t.Fatal("Contains allowed a straddling access")
	}
}
