package gpu

import (
	"testing"

	"nvbitgo/internal/profile"
	"nvbitgo/internal/sass"
)

// profKernel does enough real work (divergence, shared memory, global
// stores) that its trace records carry non-trivial counters on every SM.
const profKernel = `
	S2R R0, SR_TID.X
	S2R R2, SR_CTAID.X
	S2R R3, SR_NTID.X
	IMAD R1, R2, R3, R0
	SHL R4, R0, RZ, 2
	STS [R4], R0
	BAR
	LDC.W R6, c[1][0]
	MOVI R8, 4
	IMAD.W R6, R1, R8, R6
	STG [R6], R1
	EXIT
`

func setupProfKernel(t *testing.T, kind SchedulerKind) (*Device, CodeAddr, []byte) {
	t.Helper()
	cfg := DefaultConfig(sass.Volta)
	cfg.Scheduler = kind
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := d.Malloc(4 * 32 * 32)
	entry := loadSASS(t, d, profKernel)
	return d, entry, u64param(out)
}

// TestLaunchNoTracingZeroAlloc pins the contract the profile package
// documents: with no collector attached, the sequential launch path
// allocates nothing once the warp/context pools are warm.
func TestLaunchNoTracingZeroAlloc(t *testing.T) {
	d, entry, params := setupProfKernel(t, SchedulerSequential)
	spec := LaunchSpec{Entry: entry, Name: "k", Grid: D1(32), Block: D1(32), Params: params, SharedBytes: 128}
	if _, err := d.Launch(spec); err != nil {
		t.Fatal(err) // warm the pools and the decode cache
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := d.Launch(spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("tracing-off launch allocates %v objects per run, want 0", allocs)
	}
}

// TestInstrumentedLaunchAllocs pins the same for instrumented code: a steady
// launch whose every thread goes through a trampoline (CAL, SAVEPUSH, STSA,
// LDSA, SAVEPOP, RET — schedKernel's, entered by divergent groups) allocates
// nothing either, because save frames live in the pooled warps.
func TestInstrumentedLaunchAllocs(t *testing.T) {
	d := newTestDevice(t, sass.Volta)
	counter, _ := d.Malloc(8)
	out, _ := d.Malloc(4 * (schedCTAs*schedThreads + schedCTAs))
	spec := LaunchSpec{Entry: loadSASS(t, d, schedKernel), Name: "k", Grid: D1(schedCTAs), Block: D1(schedThreads),
		Params: u64param(counter, out), SharedBytes: 4 * schedThreads}
	if _, err := d.Launch(spec); err != nil {
		t.Fatal(err) // warm the pools, the save slabs and the decode cache
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := d.Launch(spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("instrumented launch allocates %v objects per run, want 0", allocs)
	}
}

func BenchmarkLaunchNoTracing(b *testing.B) {
	cfg := DefaultConfig(sass.Volta)
	d, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	out, _ := d.Malloc(4 * 32 * 32)
	insts, err := sass.ParseProgram(profKernel)
	if err != nil {
		b.Fatal(err)
	}
	entry, err := d.AllocCode(len(insts))
	if err != nil {
		b.Fatal(err)
	}
	raw, err := d.Codec().EncodeAll(insts)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.WriteCode(entry, raw); err != nil {
		b.Fatal(err)
	}
	spec := LaunchSpec{Entry: entry, Name: "k", Grid: D1(32), Block: D1(32), Params: u64param(out), SharedBytes: 128}
	if _, err := d.Launch(spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Launch(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// traceFingerprints runs the kernel under the given scheduler with tracing
// on and returns the record fingerprints (timing fields zeroed).
func traceFingerprints(t *testing.T, kind SchedulerKind) []profile.Record {
	t.Helper()
	d, entry, params := setupProfKernel(t, kind)
	prof := profile.NewCollector(0)
	spec := LaunchSpec{Entry: entry, Name: "k", Grid: D1(32), Block: D1(32), Params: params, SharedBytes: 128, Prof: prof}
	for i := 0; i < 3; i++ {
		if _, err := d.Launch(spec); err != nil {
			t.Fatal(err)
		}
	}
	recs := prof.Records()
	out := make([]profile.Record, len(recs))
	for i, r := range recs {
		out[i] = r.Fingerprint()
	}
	return out
}

// TestTraceRecordsSchedulerInvariant pins the determinism contract: the
// record sequence — IDs, parents, kinds, per-SM span contents — is identical
// under the sequential and parallel schedulers; only Start/Dur/Cycles (the
// Fingerprint-zeroed fields) may differ.
func TestTraceRecordsSchedulerInvariant(t *testing.T) {
	seq := traceFingerprints(t, SchedulerSequential)
	par := traceFingerprints(t, SchedulerParallelSM)
	if len(seq) != len(par) {
		t.Fatalf("record counts differ: sequential %d, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("record %d differs across schedulers:\nsequential %+v\nparallel   %+v", i, seq[i], par[i])
		}
	}
	// Parallel runs must also be bit-identical to each other.
	again := traceFingerprints(t, SchedulerParallelSM)
	for i := range par {
		if par[i] != again[i] {
			t.Fatalf("parallel record %d differs run to run:\n%+v\nvs\n%+v", i, par[i], again[i])
		}
	}
}

// TestKernelRecordShape checks the kernel record carries the launch metrics
// and that its SM spans are parented to it in ascending SM order.
func TestKernelRecordShape(t *testing.T) {
	d, entry, params := setupProfKernel(t, SchedulerParallelSM)
	prof := profile.NewCollector(0)
	st, err := d.Launch(LaunchSpec{Entry: entry, Name: "k", Grid: D1(32), Block: D1(32), Params: params, SharedBytes: 128, Prof: prof})
	if err != nil {
		t.Fatal(err)
	}
	recs := prof.Records()
	var kernel *profile.Record
	var spans []profile.Record
	for i := range recs {
		switch recs[i].Kind {
		case profile.KindKernel:
			kernel = &recs[i]
		case profile.KindSMSpan:
			spans = append(spans, recs[i])
		}
	}
	if kernel == nil {
		t.Fatal("no kernel record emitted")
	}
	if kernel.WarpInstrs != st.WarpInstrs || kernel.ThreadInstrs != st.ThreadInstrs || kernel.Cycles != st.Cycles {
		t.Fatalf("kernel record metrics %d/%d/%d do not match launch stats %d/%d/%d",
			kernel.WarpInstrs, kernel.ThreadInstrs, kernel.Cycles, st.WarpInstrs, st.ThreadInstrs, st.Cycles)
	}
	if kernel.CTAs != 32 || kernel.Grid != [3]int{32, 1, 1} || kernel.Block != [3]int{32, 1, 1} {
		t.Fatalf("kernel record geometry wrong: %+v", kernel)
	}
	if len(spans) != d.Config().NumSMs {
		t.Fatalf("got %d SM spans, want %d", len(spans), d.Config().NumSMs)
	}
	var warps, ctas uint64
	for i, s := range spans {
		if s.SM != i {
			t.Fatalf("span %d is for SM %d: merge order not ascending", i, s.SM)
		}
		if s.Parent != kernel.ID {
			t.Fatalf("span for SM %d parented to %d, want kernel %d", s.SM, s.Parent, kernel.ID)
		}
		warps += s.WarpsRetired
		ctas += uint64(s.CTAs)
	}
	if warps != kernel.WarpsRetired {
		t.Fatalf("SM span warps sum to %d, kernel record says %d", warps, kernel.WarpsRetired)
	}
	if ctas != uint64(kernel.CTAs) {
		t.Fatalf("SM span CTAs sum to %d, kernel record says %d", ctas, kernel.CTAs)
	}
}

// TestFaultedLaunchRecord checks a faulting launch emits exactly one kernel
// record carrying the fault kind and no SM spans.
func TestFaultedLaunchRecord(t *testing.T) {
	cfg := DefaultConfig(sass.Volta)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof := profile.NewCollector(0)
	entry := loadSASS(t, d, `
	MOVI R0, 0
	MOVI R1, 0
	STG [R0], R1
	EXIT
`)
	if _, err := d.Launch(LaunchSpec{Entry: entry, Name: "bad", Grid: D1(1), Block: D1(32), Prof: prof}); err == nil {
		t.Fatal("expected a fault")
	}
	recs := prof.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1: %+v", len(recs), recs)
	}
	r := recs[0]
	if r.Kind != profile.KindKernel || r.Fault != FaultIllegalAddress.String() {
		t.Fatalf("faulted kernel record = %+v", r)
	}
}
