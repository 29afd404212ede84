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
	c.flushShard(0, gpu.FlushTick, false)
	if flushes() != 0 {
		t.Fatal("partially full buffer shipped mid-kernel")
	}
	// Full but a claim is uncommitted (a warp is mid-push): must skip.
	set(MinBufRecords, 0, MinBufRecords-1)
	c.flushShard(0, gpu.FlushTick, false)
	if flushes() != 0 {
		t.Fatal("non-quiescent buffer shipped mid-kernel")
	}
	// Full and committed, but a warp's claim has failed and it has not
	// published the failure yet: must skip.
	set(MinBufRecords+1, 0, MinBufRecords)
	c.flushShard(0, gpu.FlushTick, false)
	if flushes() != 0 {
		t.Fatal("buffer shipped with a failed claim unpublished")
	}
	// Full and quiescent: ships.
	set(MinBufRecords, 0, MinBufRecords)
	c.flushShard(0, gpu.FlushTick, false)
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
	c.flushShard(0, gpu.FlushTick, false)
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
