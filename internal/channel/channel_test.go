package channel

import (
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"nvbitgo/internal/gpu"
	"nvbitgo/internal/sass"
)

func testDevice(t *testing.T) *gpu.Device {
	t.Helper()
	dev, err := gpu.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func TestOpenValidatesConfig(t *testing.T) {
	dev := testDevice(t)
	for _, bad := range []Config{
		{RecordBytes: 0},
		{RecordBytes: -8},
		{RecordBytes: 12}, // not a multiple of 8
	} {
		if _, err := Open(dev, bad); err == nil {
			t.Fatalf("config %+v accepted", bad)
		}
	}
}

func TestCapacitySizing(t *testing.T) {
	dev := testDevice(t)
	nSMs := dev.Config().NumSMs

	// TotalRecords splits across shards; tiny totals clamp to MinBufRecords.
	for total, want := range map[int]uint64{64 * nSMs: 64, 1: MinBufRecords, 0: MinBufRecords} {
		c, err := Open(dev, Config{RecordBytes: 8, TotalRecords: total})
		if err != nil {
			t.Fatal(err)
		}
		if c.slots != want {
			t.Fatalf("TotalRecords %d: %d slots per shard, want %d", total, c.slots, want)
		}
		c.Close()
	}
}

// TestDeviceMemoryFormula pins the layout docs/channels.md states: one
// 64-byte control block and one buffer of slots × RecordBytes per SM, in two
// allocations that Close returns. With memtrace's sizes (280-byte records,
// 64K slots) that is 17.5 MiB of buffers.
func TestDeviceMemoryFormula(t *testing.T) {
	dev := testDevice(t)
	nSMs := uint64(dev.Config().NumSMs)
	before := dev.Allocations()
	c, err := Open(dev, Config{RecordBytes: 280, TotalRecords: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	var added []uint64
	for _, span := range dev.Allocations() {
		if !slices.Contains(before, span) {
			added = append(added, span.Size)
		}
	}
	slices.Sort(added)
	want := []uint64{nSMs * ctrlBytes, nSMs * c.slots * 280}
	if !slices.Equal(added, want) {
		t.Fatalf("Open allocated %v bytes, want %v (NumSMs × 64 and NumSMs × slots × RecordBytes)", added, want)
	}
	c.Close()
	if got := dev.Allocations(); !slices.Equal(got, before) {
		t.Fatalf("after Close the device holds %v, want %v", got, before)
	}
	c.Close() // idempotent
}

// TestDrainAfterCloseTouchesNothing: a closed channel's device memory may
// already belong to a new allocation, so Drain must not read or reset the
// control blocks it had there.
func TestDrainAfterCloseTouchesNothing(t *testing.T) {
	dev := testDevice(t)
	c, err := Open(dev, Config{RecordBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, size := c.CtrlAddr(), uint64(dev.Config().NumSMs)*ctrlBytes
	c.Close()
	addr, err := dev.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	if addr != ctrl {
		t.Fatalf("the allocator placed the new owner at %#x, not at the freed control blocks %#x", addr, ctrl)
	}
	// Every word 1: to a shard's control block that reads as a claim that
	// failed, which a drain would ship and reset.
	owned := make([]byte, size)
	for off := 0; off < len(owned); off += 8 {
		binary.LittleEndian.PutUint64(owned[off:], 1)
	}
	if err := dev.Write(addr, owned); err != nil {
		t.Fatal(err)
	}
	c.Drain()
	c.OnSweep(0)
	got := make([]byte, size)
	if err := dev.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, owned) {
		t.Fatal("a closed channel wrote into memory it had freed")
	}
}

// TestDrainDeliversAscendingSM fills several shards by writing the device
// memory directly (the host-side protocol doesn't care who the producer is)
// and checks Drain hands OnBatch the shards in ascending-SM order with exact
// record accounting.
func TestDrainDeliversAscendingSM(t *testing.T) {
	dev := testDevice(t)
	var got []uint64
	c, err := Open(dev, Config{
		RecordBytes: 8,
		OnBatch: func(data []byte) {
			for off := 0; off+8 <= len(data); off += 8 {
				got = append(got, binary.LittleEndian.Uint64(data[off:]))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Populate shards 5, 2 and 0 (deliberately out of order) with two
	// records each, tagged by SM, and mark them claimed+committed.
	var scratch [8]byte
	for _, sm := range []int{5, 2, 0} {
		ctrl := c.CtrlAddr() + uint64(sm)*ctrlBytes
		buf := make([]byte, ctrlBytes)
		if err := dev.Read(ctrl, buf); err != nil {
			t.Fatal(err)
		}
		bufAddr := binary.LittleEndian.Uint64(buf[offBuf:])
		for i := 0; i < 2; i++ {
			binary.LittleEndian.PutUint64(scratch[:], uint64(sm)*100+uint64(i))
			if err := dev.Write(bufAddr+uint64(i)*8, scratch[:]); err != nil {
				t.Fatal(err)
			}
		}
		binary.LittleEndian.PutUint64(buf[offHead:], 2)
		binary.LittleEndian.PutUint64(buf[offCommit:], 2)
		if err := dev.Write(ctrl, buf); err != nil {
			t.Fatal(err)
		}
	}

	c.Drain()
	want := []uint64{0, 1, 200, 201, 500, 501}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want ascending-SM order %v", got, want)
		}
	}
	st := c.Stats()
	if st.Delivered != 6 || st.DrainFlushes != 3 || st.Dropped != 0 {
		t.Fatalf("stats %+v, want 6 delivered over 3 drain flushes", st)
	}
	if st.BytesShipped != 48 {
		t.Fatalf("bytes shipped %d, want 48", st.BytesShipped)
	}

	// A second drain with nothing new delivers nothing.
	got = got[:0]
	c.Drain()
	if len(got) != 0 {
		t.Fatalf("idle drain delivered %v", got)
	}
}

// TestSteadyStateFlushesAllocateNothing runs one launch's worth of host-side
// flushing twice — tick flushes on several shards, a Drop-policy overflow and
// a launch-exit Drain of partial buffers — with the shards filled by writing
// device memory directly. Once the free list holds the largest drain, the
// second run makes no heap allocation and hands OnBatch the same batches,
// byte for byte and boundary for boundary, as the first.
func TestSteadyStateFlushesAllocateNothing(t *testing.T) {
	dev := testDevice(t)
	const batches = 9 // flushes per epoch, below
	var got []byte
	var bounds []int
	c, err := Open(dev, Config{
		RecordBytes: 8,
		Policy:      Drop,
		OnBatch: func(data []byte) {
			got = append(got, data...)
			bounds = append(bounds, len(got))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	slots := int(c.slots)
	got, bounds = make([]byte, 0, batches*slots*8), make([]int, 0, batches)

	recs, ctrl := make([]byte, slots*8), make([]byte, ctrlBytes)
	// fill writes n records tagged (sm, round, i) into shard sm's buffer and
	// sets its control block as if n claims landed and then a claim of lost
	// records failed: head n+lost, failed lost, commit n.
	fill := func(sm, round, n int, lost uint64) {
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(recs[i*8:], uint64(sm)<<32|uint64(round)<<16|uint64(i))
		}
		s := &c.sms[sm]
		if err := dev.Write(s.buf, recs[:n*8]); err != nil {
			t.Fatal(err)
		}
		if err := dev.Read(s.ctrl, ctrl); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(ctrl[offHead:], uint64(n)+lost)
		binary.LittleEndian.PutUint64(ctrl[offFailed:], lost)
		binary.LittleEndian.PutUint64(ctrl[offCommit:], uint64(n))
		if err := dev.Write(s.ctrl, ctrl); err != nil {
			t.Fatal(err)
		}
	}
	epoch := func() {
		got, bounds = got[:0], bounds[:0]
		for round := 0; round < 3; round++ {
			for _, sm := range []int{4, 1} {
				fill(sm, round, slots, 0)
				c.OnSweep(sm)
			}
		}
		// A full warp's claim fails after 20 records: the wedged buffer
		// ships mid-kernel and its 32 records count as dropped.
		fill(2, 0, 20, 32)
		c.OnSweep(2)
		// Partial buffers only the launch-exit Drain ships.
		fill(0, 0, 5, 0)
		fill(4, 3, 7, 0)
		c.Drain()
	}

	epoch()
	st := c.Stats()
	if st.Flushes != batches || st.TickFlushes != 7 || st.Dropped != 32 || len(bounds) != batches {
		t.Fatalf("first epoch: stats %+v and %d batches, want %d flushes (7 mid-kernel) and 32 dropped",
			st, len(bounds), batches)
	}
	// Drain gives shard 0's buffer back before shard 4's drain flush takes
	// one, so the free list holds the 7 mid-kernel buffers plus one.
	const pooled = 8
	if len(c.free) != pooled {
		t.Fatalf("after Drain the free list holds %d buffers, want %d", len(c.free), pooled)
	}
	wantGot, wantBounds := slices.Clone(got), slices.Clone(bounds)

	if allocs := testing.AllocsPerRun(5, epoch); allocs != 0 {
		t.Fatalf("a steady-state epoch made %v allocations, want 0", allocs)
	}
	if !slices.Equal(got, wantGot) || !slices.Equal(bounds, wantBounds) {
		t.Fatalf("a reused buffer changed delivery: batch ends %v, want %v", bounds, wantBounds)
	}

	// The overflow's buffer leaves the free list when it ships and is back
	// once Drain has delivered it.
	fill(2, 0, 20, 32)
	c.OnSweep(2)
	if len(c.free) != pooled-1 || len(c.sms[2].pending) != 1 {
		t.Fatalf("a Drop overflow shipped %d buffers from a free list now %d long",
			len(c.sms[2].pending), len(c.free))
	}
	c.Drain()
	if len(c.free) != pooled {
		t.Fatalf("after the overflow's Drain the free list holds %d buffers, want %d", len(c.free), pooled)
	}

	c.Close()
	if c.free != nil {
		t.Fatalf("Close kept %d host buffers", len(c.free))
	}
}

// TestMidKernelGateRequiresQuiescence drives the flush decision table
// directly: a partially committed buffer must not ship mid-kernel, a full
// quiescent one must.
func TestMidKernelGateRequiresQuiescence(t *testing.T) {
	dev := testDevice(t)
	batches := 0
	c, err := Open(dev, Config{
		RecordBytes: 8,
		OnBatch:     func([]byte) { batches++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctrl := c.CtrlAddr()
	set := func(head, failed, commit uint64) {
		buf := make([]byte, ctrlBytes)
		if err := dev.Read(ctrl, buf); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(buf[offHead:], head)
		binary.LittleEndian.PutUint64(buf[offFailed:], failed)
		binary.LittleEndian.PutUint64(buf[offCommit:], commit)
		if err := dev.Write(ctrl, buf); err != nil {
			t.Fatal(err)
		}
	}
	flushes := func() uint64 { return c.Stats().Flushes }
	ctrlWord := func(off int) uint64 {
		buf := make([]byte, ctrlBytes)
		if err := dev.Read(ctrl, buf); err != nil {
			t.Fatal(err)
		}
		return binary.LittleEndian.Uint64(buf[off:])
	}
	buf := ctrlWord(offBuf)

	// Not full: no mid-kernel ship even though quiescent.
	set(2, 0, 2)
	c.flushShard(0, false)
	if flushes() != 0 {
		t.Fatal("partially full buffer shipped mid-kernel")
	}
	// Full but a claim is uncommitted (a warp is mid-push): must skip.
	set(MinBufRecords, 0, MinBufRecords-1)
	c.flushShard(0, false)
	if flushes() != 0 {
		t.Fatal("non-quiescent buffer shipped mid-kernel")
	}
	// Full and committed, but a warp's claim has failed and it has not
	// published the failure yet: must skip.
	set(MinBufRecords+1, 0, MinBufRecords)
	c.flushShard(0, false)
	if flushes() != 0 {
		t.Fatal("buffer shipped with a failed claim unpublished")
	}
	// Full and quiescent: ships.
	set(MinBufRecords, 0, MinBufRecords)
	c.flushShard(0, false)
	if flushes() != 1 {
		t.Fatal("full quiescent buffer did not ship")
	}
	// The flush hands the shard its one buffer back, empty.
	if ctrlWord(offBuf) != buf || ctrlWord(offHead) != 0 || ctrlWord(offCommit) != 0 {
		t.Fatalf("after a flush the shard fills %#x from head %d, want %#x from 0",
			ctrlWord(offBuf), ctrlWord(offHead), buf)
	}
	// Wedged (failed claim) and quiescent: ships the successful prefix and
	// counts the loss under Drop.
	set(MinBufRecords+4, 4, MinBufRecords)
	c.flushShard(0, false)
	st := c.Stats()
	if st.Flushes != 2 || st.Dropped != 4 {
		t.Fatalf("stats %+v, want a second flush with 4 dropped", st)
	}
}

func TestReservePTXValidation(t *testing.T) {
	const fn = ".toolfunc f(.param .u64 ctrl)\n{\n@RESERVE@\n@COMMIT@\n\tret;\n}\n"
	base := Config{Name: "t", RecordBytes: 16, ToolPTX: fn, PushPred: "%p1"}
	src, err := base.ExpandToolPTX()
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if strings.Contains(src, "@RESERVE@") || strings.Contains(src, "@COMMIT@") {
		t.Fatalf("markers survive expansion:\n%s", src)
	}
	if !strings.Contains(src, "bra nvch_skip;") || !strings.Contains(src, "nvch_skip:\n") {
		t.Fatal("Drop fragment lacks the skip path")
	}
	for name, mutate := range map[string]func(*Config){
		"no pred":     func(c *Config) { c.PushPred = "" },
		"bad stride":  func(c *Config) { c.RecordBytes = 10 },
		"no template": func(c *Config) { c.ToolPTX = "" },
		"no reserve":  func(c *Config) { c.ToolPTX = strings.Replace(fn, "@RESERVE@", "", 1) },
		"two commits": func(c *Config) { c.ToolPTX = fn + "@COMMIT@\n" },
		"no ctrl":     func(c *Config) { c.ToolPTX = strings.Replace(fn, "ctrl", "ring", 1) },
	} {
		c := base
		mutate(&c)
		if _, err := c.ExpandToolPTX(); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	// Block never skips but must emit the load-only wait loop.
	base.Policy = Block
	frag, err := base.ExpandToolPTX()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(frag, "bra nvch_skip;") || !strings.Contains(frag, "nvch_wait") {
		t.Fatal("Block fragment lacks the wait loop")
	}
	if strings.Contains(strings.SplitN(frag, "nvch_wait", 2)[1], "atom.") {
		t.Fatal("Block wait path must stay load-only (quiescence)")
	}
}
