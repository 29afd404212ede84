package profile

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

func TestEmitAssignsOrderedIDs(t *testing.T) {
	c := NewCollector(0)
	for i := 0; i < 5; i++ {
		id := c.Emit(Record{Kind: KindMemAlloc, SM: -1})
		if id != uint64(i+1) {
			t.Fatalf("emit %d got ID %d", i, id)
		}
	}
	recs := c.Records()
	if len(recs) != 5 {
		t.Fatalf("got %d records", len(recs))
	}
	for i, r := range recs {
		if r.ID != uint64(i+1) {
			t.Fatalf("record %d has ID %d", i, r.ID)
		}
	}
}

func TestRingDropsNewestAndCounts(t *testing.T) {
	c := NewCollector(3)
	for i := 0; i < 10; i++ {
		c.Emit(Record{Kind: KindMemAlloc, SM: -1})
	}
	if got := len(c.Records()); got != 3 {
		t.Fatalf("ring holds %d records, want 3", got)
	}
	if got := c.Dropped(); got != 7 {
		t.Fatalf("dropped = %d, want 7", got)
	}
	// Aggregates stay exact even when the timeline truncates.
	for i := 0; i < 4; i++ {
		c.Emit(Record{Kind: KindKernel, Name: "k", SM: -1, WarpInstrs: 10})
	}
	ms := c.Metrics()
	if len(ms) != 1 || ms[0].Launches != 4 || ms[0].WarpInstrs != 40 {
		t.Fatalf("metrics = %+v", ms)
	}
}

func TestDrainEmptiesRing(t *testing.T) {
	c := NewCollector(0)
	c.Emit(Record{Kind: KindMemFree, SM: -1})
	if got := len(c.Drain()); got != 1 {
		t.Fatalf("drained %d", got)
	}
	if got := len(c.Records()); got != 0 {
		t.Fatalf("ring still holds %d records after drain", got)
	}
	// IDs keep advancing across drains.
	if id := c.Emit(Record{Kind: KindMemFree, SM: -1}); id != 2 {
		t.Fatalf("post-drain ID = %d, want 2", id)
	}
}

func TestMergeShardParentsOrphans(t *testing.T) {
	c := NewCollector(0)
	kid := c.Emit(Record{Kind: KindKernel, Name: "k", SM: -1})
	s := NewShard(0)
	s.Append(Record{Kind: KindSMSpan, SM: 0})
	s.Append(Record{Kind: KindSMSpan, SM: 1, Parent: 42}) // pre-set parents survive
	c.MergeShard(s, kid)
	recs := c.Records()
	if recs[1].Parent != kid || recs[2].Parent != 42 {
		t.Fatalf("parents = %d, %d; want %d, 42", recs[1].Parent, recs[2].Parent, kid)
	}
	if s.Len() != 0 {
		t.Fatalf("shard not drained: %d", s.Len())
	}
}

func TestShardBounded(t *testing.T) {
	s := NewShard(2)
	for i := 0; i < 5; i++ {
		s.Append(Record{Kind: KindSMSpan, SM: i})
	}
	if s.Len() != 2 {
		t.Fatalf("shard holds %d, want 2", s.Len())
	}
	c := NewCollector(0)
	c.MergeShard(s, 0)
	if got := c.Dropped(); got != 3 {
		t.Fatalf("shard drops not carried over: %d, want 3", got)
	}
}

func TestFingerprintZeroesTimingOnly(t *testing.T) {
	r := Record{
		Kind: KindKernel, ID: 7, Parent: 3, Name: "k", Kernel: "k",
		Start: time.Second, Dur: time.Millisecond, SM: -1,
		Addr: 0x100, Bytes: 64, Grid: [3]int{2, 1, 1}, Block: [3]int{32, 1, 1},
		CTAs: 2, WarpsRetired: 2, WarpInstrs: 10, ThreadInstrs: 320,
		Cycles: 99, Instrumented: true, Fault: "f",
	}
	f := r.Fingerprint()
	if f.Start != 0 || f.Dur != 0 || f.Cycles != 0 {
		t.Fatalf("timing fields survive: %+v", f)
	}
	r.Start, r.Dur, r.Cycles = 0, 0, 0
	if f != r {
		t.Fatalf("non-timing field changed:\n%+v\nvs\n%+v", f, r)
	}
}

func TestSlowdown(t *testing.T) {
	m := KernelMetrics{
		Launches: 3, InstrumentedLaunches: 2,
		WallNative: 10 * time.Millisecond, WallInstrumented: 60 * time.Millisecond,
	}
	if got := m.slowdown(); got != 3 {
		t.Fatalf("slowdown = %v, want 3", got)
	}
	if got := (KernelMetrics{Launches: 2, InstrumentedLaunches: 2}).slowdown(); got != 0 {
		t.Fatalf("all-instrumented slowdown = %v, want 0", got)
	}
}

// TestChromeTraceRoundTrip pins the acceptance criterion: the exporter's
// output parses back through encoding/json into the same document.
func TestChromeTraceRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: KindModuleLoad, ID: 1, Name: "mod", Start: time.Millisecond, Dur: time.Millisecond, SM: -1, Bytes: 400},
		{Kind: KindJITPhase, ID: 2, Parent: 1, Name: "disassemble", Kernel: "k", Start: 2 * time.Millisecond, Dur: time.Microsecond, SM: -1},
		{Kind: KindKernel, ID: 3, Name: "k", Kernel: "k", Start: 3 * time.Millisecond, Dur: time.Millisecond, SM: -1,
			Grid: [3]int{4, 1, 1}, Block: [3]int{32, 1, 1}, CTAs: 4, WarpsRetired: 4, WarpInstrs: 40, ThreadInstrs: 1280, Cycles: 100, Instrumented: true},
		{Kind: KindSMSpan, ID: 4, Parent: 3, Name: "k", Kernel: "k", SM: 2, Cycles: 25, WarpsRetired: 1, CTAs: 1},
		{Kind: KindToolCallback, ID: 5, Name: "cuLaunchKernel:exit", SM: -1},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	var doc ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter output does not parse: %v", err)
	}
	if !reflect.DeepEqual(doc, ToChromeTrace(recs)) {
		t.Fatalf("round trip changed the document:\n%+v\nvs\n%+v", doc, ToChromeTrace(recs))
	}
	if len(doc.TraceEvents) != len(recs) {
		t.Fatalf("got %d events", len(doc.TraceEvents))
	}
	// Spot-check the track mapping and microsecond timestamps.
	if doc.TraceEvents[1].TID != "jit" || doc.TraceEvents[3].TID != "gpu-sm2" {
		t.Fatalf("track mapping wrong: %s, %s", doc.TraceEvents[1].TID, doc.TraceEvents[3].TID)
	}
	if doc.TraceEvents[0].TS != 1000 {
		t.Fatalf("timestamp not in microseconds: %v", doc.TraceEvents[0].TS)
	}
	if doc.TraceEvents[2].Args.Instrumented != true || doc.TraceEvents[2].Args.Kernel != "k" {
		t.Fatalf("kernel args lost: %+v", doc.TraceEvents[2].Args)
	}
}
