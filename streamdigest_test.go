package main_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	"nvbitgo/gpusim"
	"nvbitgo/internal/tools/cachesim"
	"nvbitgo/internal/tools/itrace"
	"nvbitgo/internal/tools/memtrace"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

// Stream-digest golden: what the three channel tools deliver on
// specaccel:cg Small under Block backpressure is pinned by SHA-256 per tool
// and scheduler, so a change to the channel protocol, to a tool's device
// function or to a flush point must reproduce the stream bit for bit. The
// digest covers every delivered record in delivery order (itrace and
// memtrace re-encode them as they sit in the channel buffer, inactive
// memtrace lane slots as zero; cachesim exposes no records, so its digest is
// the order-sensitive LRU replay result) followed by the channel counters,
// which pin the number of flushes at each kind of flush point.

const streamGoldenPath = "testdata/stream_golden.txt"

func hashWords(h hash.Hash, words ...uint64) {
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
}

func hashChannelStats(h hash.Hash, st nvbit.ChannelStats) {
	hashWords(h, st.Delivered, st.Dropped, st.Flushes, st.TickFlushes, st.CTAFlushes, st.DrainFlushes, st.BytesShipped)
}

// streamTools builds each tool with a consumer hashing into h and returns it
// with the function that finishes the digest after the run.
var streamTools = map[string]func(h hash.Hash) (nvbit.Tool, func()){
	"itrace": func(h hash.Hash) (nvbit.Tool, func()) {
		t := itrace.New(1 << 20)
		t.Policy, t.Keep = nvbit.ChannelBlock, false
		t.OnRecord = func(r itrace.Record) {
			hashWords(h, uint64(r.KernelID)|uint64(r.InstIdx)<<32, uint64(r.WarpID)|uint64(r.ExecMask)<<32)
		}
		return t, func() { hashChannelStats(h, t.Stats()) }
	},
	"memtrace": func(h hash.Hash) (nvbit.Tool, func()) {
		t := memtrace.New(1 << 16)
		t.Policy, t.Keep = nvbit.ChannelBlock, false
		t.OnRecord = func(r memtrace.Record) {
			hashWords(h, uint64(r.KernelID)|uint64(r.InstIdx)<<32, uint64(r.Opcode)|uint64(r.WarpID)<<32,
				uint64(r.ExecMask)|uint64(r.Flags)<<32)
			hashWords(h, r.Addrs[:]...)
		}
		return t, func() { hashChannelStats(h, t.Stats()) }
	},
	"cachesim": func(h hash.Hash) (nvbit.Tool, func()) {
		cfg := cachesim.DefaultConfig()
		cfg.Policy = nvbit.ChannelBlock
		t := cachesim.New(cfg)
		return t, func() {
			st := t.Stats()
			hashWords(h, st.Accesses, st.Stores, st.L1Hits, st.L1Misses, st.L2Hits, st.L2Misses, st.Dropped)
			hashChannelStats(h, t.ChannelStats())
		}
	},
}

func streamDigest(t *testing.T, toolName string, sched gpusim.SchedulerKind) string {
	t.Helper()
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	tool, finish := streamTools[toolName](h)
	if _, err := nvbit.Attach(api, tool, nvbit.WithScheduler(sched)); err != nil {
		t.Fatal(err)
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	if err := diffBenchmark(t).Run(ctx, specaccel.Small); err != nil {
		t.Fatal(err)
	}
	api.Close()
	finish()
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestStreamDigestGolden compares every digest with
// testdata/stream_golden.txt. Delete the file to record a new golden; the
// recording run fails so it is never mistaken for a comparison.
func TestStreamDigestGolden(t *testing.T) {
	var got []string
	for _, toolName := range []string{"itrace", "memtrace", "cachesim"} {
		for _, s := range []struct {
			name string
			kind gpusim.SchedulerKind
		}{{"sequential", gpusim.SchedulerSequential}, {"parallel", gpusim.SchedulerParallelSM}} {
			got = append(got, fmt.Sprintf("%s/block/%s %s", toolName, s.name, streamDigest(t, toolName, s.kind)))
		}
	}
	text := strings.Join(got, "\n") + "\n"
	want, err := os.ReadFile(streamGoldenPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamGoldenPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %d digests in %s; run again to compare", len(got), streamGoldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if text != string(want) {
		t.Errorf("delivered stream changed:\n got:\n%swant:\n%s", text, want)
	}
}
