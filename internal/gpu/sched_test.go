package gpu

import (
	"encoding/binary"
	"fmt"
	"testing"

	"nvbitgo/internal/sass"
)

// schedKernel exercises everything the parallel scheduler must keep
// deterministic at once: a multi-warp shared-memory reduction behind a CTA
// barrier, lane-divergent control flow, an instrumentation-style trampoline
// (CAL into a SAVEPUSH/restore sequence, as the NVBit code generator
// splices in), a RED atomic hammering one global counter from every CTA,
// and disjoint per-thread and per-CTA global stores.
//
// Layout: c[1][0] = counter address, c[1][8] = out address.
// out[gid]          = 2*tid + (tid odd ? 24 : 0)
// out[total+ctaid]  = sum of tids in the CTA (64 threads -> 2016)
// counter           = total threads
const schedKernel = `
	S2R R0, SR_TID.X
	S2R R2, SR_CTAID.X
	S2R R3, SR_NTID.X
	IMAD R1, R2, R3, R0       // gid

	// Multi-warp shared reduction data + barrier.
	SHL R4, R0, RZ, 2
	STS [R4], R0
	BAR

	// Divergent: odd lanes run an extra 8-iteration loop.
	MOVI R6, 0
	LOP.AND R5, R0, RZ, 1
	ISETP.EQ P1, R5, RZ, 0
	@P1 BRA even
	MOVI R7, 0
odd:
	IADD R6, R6, RZ, 3
	IADD R7, R7, RZ, 1
	ISETP.LT P1, R7, RZ, 8
	@P1 BRA odd
even:
	// Instrumentation-style trampoline call.
	CAL tramp

	// One RED.ADD per thread on a single shared counter (striped-lock path).
	MOVI R8, 1
	LDC.W R10, c[1][0]
	RED.ADD [R10], R8

	// Thread 0 sums the CTA's shared array into out[total+ctaid].
	ISETP.NE P0, R0, RZ, 0
	@P0 BRA store
	MOVI R12, 0
	MOVI R13, 0
	MOVI R14, 0
sum:
	LDS R15, [R14]
	IADD R12, R12, R15, 0
	IADD R14, R14, RZ, 4
	IADD R13, R13, RZ, 1
	ISETP.LT P0, R13, RZ, 64
	@P0 BRA sum
	LDC.W R16, c[1][8]
	S2R R18, SR_NTID.X
	S2R R19, SR_NCTAID.X
	IMUL R20, R18, R19
	IADD R20, R20, R2, 0
	MOVI R21, 4
	IMAD.W R16, R20, R21, R16
	STG [R16], R12
store:
	// Disjoint per-thread result: out[gid] = 2*tid + divergent work.
	SHL R22, R0, RZ, 1
	IADD R22, R22, R6, 0
	LDC.W R24, c[1][8]
	MOVI R26, 4
	IMAD.W R24, R1, R26, R24
	STG [R24], R22
	EXIT
tramp:
	SAVEPUSH 2
	STSA [0], R0
	STSA [1], R1
	STSP
	MOVI R0, 9999             // clobber what the kernel needs
	MOVI R1, 9999
	LDSA R0, [0]
	LDSA R1, [1]
	LDSP
	SAVEPOP
	RET
`

const (
	schedCTAs    = 64
	schedThreads = 64
)

// runSchedKernel executes schedKernel on a fresh device with the given
// scheduler and returns the launch stats and the out-array contents.
func runSchedKernel(t *testing.T, kind SchedulerKind) (Stats, []byte) {
	t.Helper()
	cfg := DefaultConfig(sass.Volta)
	cfg.Scheduler = kind
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counter, _ := d.Malloc(8)
	total := schedCTAs * schedThreads
	out, _ := d.Malloc(uint64(4 * (total + schedCTAs)))
	entry := loadSASS(t, d, schedKernel)
	st := launch(t, d, entry, D1(schedCTAs), D1(schedThreads), u64param(counter, out), 4*schedThreads)

	cbuf := make([]byte, 4)
	if err := d.Read(counter, cbuf); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(cbuf); got != uint32(total) {
		t.Fatalf("%v: atomic counter = %d, want %d", kind, got, total)
	}
	buf := make([]byte, 4*(total+schedCTAs))
	if err := d.Read(out, buf); err != nil {
		t.Fatal(err)
	}
	for cta := 0; cta < schedCTAs; cta++ {
		if got := binary.LittleEndian.Uint32(buf[4*(total+cta):]); got != schedThreads*(schedThreads-1)/2 {
			t.Fatalf("%v: CTA %d reduction = %d", kind, cta, got)
		}
	}
	for tid := 0; tid < schedThreads; tid++ {
		want := uint32(2 * tid)
		if tid%2 == 1 {
			want += 24
		}
		if got := binary.LittleEndian.Uint32(buf[4*tid:]); got != want {
			t.Fatalf("%v: out[%d] = %d, want %d", kind, tid, got, want)
		}
	}
	return st, buf
}

// maskL2 zeroes the counters that are documented as scheduler-variant: the
// L2 hit/miss split (per-SM L2 shards under the parallel scheduler) and the
// cycle counts derived from it. Everything else must match exactly across
// schedulers (docs/scheduler.md).
func maskL2(s Stats) Stats {
	s.L2Hits, s.L2Misses, s.Cycles = 0, 0, 0
	return s
}

func TestParallelSchedulerDeterminism(t *testing.T) {
	seqStats, seqMem := runSchedKernel(t, SchedulerSequential)

	parStats, parMem := runSchedKernel(t, SchedulerParallelSM)
	for run := 1; run < 4; run++ {
		st, mem := runSchedKernel(t, SchedulerParallelSM)
		if st != parStats {
			t.Fatalf("parallel run %d stats differ:\n%+v\nvs\n%+v", run, st, parStats)
		}
		if string(mem) != string(parMem) {
			t.Fatalf("parallel run %d global memory differs", run)
		}
	}

	if string(parMem) != string(seqMem) {
		t.Fatal("parallel scheduler global memory differs from sequential")
	}
	if got, want := maskL2(parStats), maskL2(seqStats); got != want {
		t.Fatalf("scheduler-invariant stats differ:\nparallel  %+v\nsequential %+v", got, want)
	}
	// The L2 split is sharded but conserves its total: every L1 miss goes
	// to exactly one L2 (shard).
	if parStats.L2Hits+parStats.L2Misses != seqStats.L2Hits+seqStats.L2Misses {
		t.Fatalf("L2 lookups not conserved: parallel %d+%d, sequential %d+%d",
			parStats.L2Hits, parStats.L2Misses, seqStats.L2Hits, seqStats.L2Misses)
	}
	if parStats.Cycles == 0 {
		t.Fatal("parallel scheduler reported zero cycles")
	}
}

// TestParallelSchedulerErrorDeterminism: a faulting kernel must report the
// same (lowest-SM) error under both schedulers, run after run.
func TestParallelSchedulerErrorDeterminism(t *testing.T) {
	fault := `
		MOVI R0, 0
		MOVI R1, 0
		STG [R0], R1              // address 0 is unmapped: traps
		EXIT
	`
	run := func(kind SchedulerKind) string {
		cfg := DefaultConfig(sass.Volta)
		cfg.Scheduler = kind
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		entry := loadSASS(t, d, fault)
		_, err = d.Launch(LaunchSpec{Entry: entry, Grid: D1(32), Block: D1(32)})
		if err == nil {
			t.Fatalf("%v: faulting kernel did not error", kind)
		}
		// A failed launch must not pollute device statistics.
		if st := d.Stats(); st.Launches != 0 || st.WarpInstrs != 0 {
			t.Fatalf("%v: failed launch leaked stats: %+v", kind, st)
		}
		return err.Error()
	}
	seqErr := run(SchedulerSequential)
	for i := 0; i < 3; i++ {
		if parErr := run(SchedulerParallelSM); parErr != seqErr {
			t.Fatalf("error not deterministic:\nparallel  %q\nsequential %q", parErr, seqErr)
		}
	}
}

// TestParallelSchedulerSmallGrid covers nCTA < NumSMs (idle trailing SMs).
func TestParallelSchedulerSmallGrid(t *testing.T) {
	cfg := DefaultConfig(sass.Volta)
	cfg.Scheduler = SchedulerParallelSM
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := d.Malloc(4 * 32)
	entry := loadSASS(t, d, gidProlog+`
		LDC.W R4, c[1][0]
		MOVI R6, 4
		IMAD.W R4, R0, R6, R4
		STG [R4], R0
		EXIT
	`)
	st := launch(t, d, entry, D1(1), D1(32), u64param(out), 0)
	if st.Launches != 1 || st.WarpInstrs == 0 {
		t.Fatalf("stats: %+v", st)
	}
	buf := make([]byte, 4*32)
	if err := d.Read(out, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if got := binary.LittleEndian.Uint32(buf[4*i:]); got != uint32(i) {
			t.Fatalf("out[%d] = %d", i, got)
		}
	}
}

// TestParallelFirstDecodeInFreshChunks: a decode page is made by the first
// decode in it, and on a fresh device under the parallel scheduler that first
// decode is a race between SM workers — in every page the kernel enters. The
// kernel sits at the start of a chunk, and the three routines it calls each
// on a page of their own: two in the kernel's chunk, the third at the start
// of the next one. A fourth routine, on the page after the third's, is
// written and never run. Run with -race: a worker that sees a word valid must
// see the page the word is in.
func TestParallelFirstDecodeInFreshChunks(t *testing.T) {
	cfg := DefaultConfig(sass.Volta)
	cfg.Scheduler = SchedulerParallelSM
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// align pads code space up to the next multiple of words.
	align := func(words int) {
		t.Helper()
		if r := max(d.codeTop/d.Codec().InstBytes(), 1) % words; r != 0 {
			if _, err := d.AllocCode(words - r); err != nil {
				t.Fatal(err)
			}
		}
	}
	place := func(src string) (CodeAddr, []sass.Inst) {
		t.Helper()
		insts, err := sass.ParseProgram(src)
		if err != nil {
			t.Fatal(err)
		}
		// Every placement fills a decode page of its own.
		base, err := d.AllocCode(decodeWords)
		if err != nil {
			t.Fatal(err)
		}
		return base, insts
	}
	write := func(base CodeAddr, insts []sass.Inst) {
		t.Helper()
		raw, err := d.Codec().EncodeAll(insts)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WriteCode(base, raw); err != nil {
			t.Fatal(err)
		}
	}
	decoded := func(base CodeAddr) bool {
		ch := d.chunks[int(base)/chunkWords].Load()
		return ch != nil && ch.dec[int(base)%chunkWords/decodeWords].Load() != nil
	}
	align(chunkWords)
	entry, kernel := place(gidProlog + `
	MOVI R6, 0
	CAL 0
	CAL 0
	CAL 0
	LDC.W R8, c[1][0]
	MOVI R10, 4
	IMAD.W R8, R0, R10, R8
	STG [R8], R6
	EXIT`)
	var routines [4]CodeAddr
	var bodies [4][]sass.Inst
	for k := range routines {
		if k == 2 {
			align(chunkWords)
		}
		routines[k], bodies[k] = place(fmt.Sprintf("IADD R6, R6, RZ, %d\nRET", 1<<k))
		write(routines[k], bodies[k])
	}
	if int(entry)/chunkWords != int(routines[1])/chunkWords || int(routines[2])/chunkWords != int(routines[3])/chunkWords || int(routines[1])/chunkWords == int(routines[2])/chunkWords {
		t.Fatalf("layout: kernel at %d, routines at %v", entry, routines)
	}
	next := 0
	for i := range kernel {
		if kernel[i].Op == sass.OpCAL {
			kernel[i].Imm = int64(routines[next])
			next++
		}
	}
	write(entry, kernel)
	for _, base := range append(routines[:], entry) {
		if decoded(base) {
			t.Fatalf("the page of word %d is decoded before anything ran", base)
		}
	}

	const ctas, threads = 64, 64
	out, _ := d.Malloc(4 * ctas * threads)
	run := func(want uint32) {
		t.Helper()
		launch(t, d, entry, D1(ctas), D1(threads), u64param(out), 0)
		buf := make([]byte, 4*ctas*threads)
		if err := d.Read(out, buf); err != nil {
			t.Fatal(err)
		}
		for gid := 0; gid < ctas*threads; gid++ {
			if got := binary.LittleEndian.Uint32(buf[4*gid:]); got != want {
				t.Fatalf("out[%d] = %d, want %d", gid, got, want)
			}
		}
	}
	run(1 + 2 + 4)
	for k, base := range routines {
		if got, want := decoded(base), k < 3; got != want {
			t.Errorf("routine %d's page is decoded: %v, want %v", k, got, want)
		}
	}

	// A write over a decoded word shows at the next launch; one over words
	// nothing decoded, on a page with and without a decode page, leaves no
	// decode page behind and is what runs when the kernel gets there.
	bodies[1][0].Imm = 32
	write(routines[1], bodies[1])
	write(routines[2]+8, bodies[3])
	write(routines[3], bodies[3])
	if decoded(routines[3]) {
		t.Error("writing to a page decoded it")
	}
	kernel[len(kernel)-6].Imm = int64(routines[2] + 8) // the third CAL
	if kernel[len(kernel)-6].Op != sass.OpCAL {
		t.Fatal("kernel layout changed; the third CAL is not where the test patches")
	}
	write(entry, kernel)
	run(1 + 32 + 8)
}
