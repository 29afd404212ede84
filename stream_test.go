package main_test

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"nvbitgo/gpusim"
	"nvbitgo/internal/tools/cachesim"
	"nvbitgo/internal/tools/itrace"
	"nvbitgo/internal/tools/memtrace"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

// Stream oracle: what the channel tools deliver on specaccel:cg Small under
// Block backpressure, pinned by what a trace means rather than by where the
// buffers land or how warps interleave. For itrace and memtrace that is each
// (launch, warp)'s record sequence, every field included, with memtrace's
// lane addresses relative to the application allocation they fall in, plus
// exact per-launch channel counters. Cross-warp order is whatever the
// instrumentation's timing makes it and is not pinned; the sequential and
// parallel schedulers must still deliver identical streams, which the test
// checks run against run. cachesim's answer depends on the global order, so
// its row is its replay result, also checked across schedulers.

const streamGoldenPath = "testdata/stream_golden.txt"

// streamRec is one delivered record.
type streamRec struct {
	launch int      // ordinal of the launch whose Drain delivered it
	warp   uint32   // WarpID; (launch, warp) keys the record
	mask   uint32   // ExecMask: the lanes whose address is meaningful
	words  []uint64 // every field but the lane addresses, in record order
	addrs  []uint64 // memtrace's raw lane addresses; nil for itrace
}

// stream is one run of a channel tool.
type stream struct {
	recs []streamRec
	// allocs holds, per launch, the live application allocations at its
	// entry: those made after Attach returned, by base address.
	allocs [][]nvbit.AllocSpan
	// counts holds, per launch, the channel counters' change over it.
	counts []nvbit.ChannelStats
	// replay is cachesim's result; empty for the other tools.
	replay string
}

// launchKeyed wraps a channel tool: it snapshots the application's
// allocations at each launch entry and the channel counters after each
// launch's exit, whose Drain is the only place records reach OnRecord.
type launchKeyed struct {
	nvbit.Tool
	s         *stream
	stats     func() nvbit.ChannelStats
	framework []nvbit.AllocSpan // allocations live when Attach returned
	last      nvbit.ChannelStats
}

func (w *launchKeyed) AtCUDACall(n *nvbit.NVBit, exit bool, cbid nvbit.CBID, name string, p *nvbit.CallParams) {
	if cbid == nvbit.CBLaunchKernel && !exit {
		app := slices.DeleteFunc(n.Device().Allocations(), func(a nvbit.AllocSpan) bool {
			return slices.Contains(w.framework, a)
		})
		w.s.allocs = append(w.s.allocs, app)
	}
	w.Tool.AtCUDACall(n, exit, cbid, name, p)
	if cbid == nvbit.CBLaunchKernel && exit {
		st := w.stats()
		w.s.counts = append(w.s.counts, nvbit.ChannelStats{
			Delivered:    st.Delivered - w.last.Delivered,
			Dropped:      st.Dropped - w.last.Dropped,
			Flushes:      st.Flushes - w.last.Flushes,
			TickFlushes:  st.TickFlushes - w.last.TickFlushes,
			CTAFlushes:   st.CTAFlushes - w.last.CTAFlushes,
			DrainFlushes: st.DrainFlushes - w.last.DrainFlushes,
			BytesShipped: st.BytesShipped - w.last.BytesShipped,
		})
		w.last = st
	}
}

// streamTool builds the named tool under Block, recording into s, with its
// channel-counter snapshot.
func streamTool(name string, capacity int, s *stream) (nvbit.Tool, func() nvbit.ChannelStats) {
	launch := func() int { return len(s.allocs) - 1 }
	switch name {
	case "itrace":
		t := itrace.New(capacity)
		t.Policy, t.Keep = nvbit.ChannelBlock, false
		t.OnRecord = func(r itrace.Record) {
			s.recs = append(s.recs, streamRec{launch: launch(), warp: r.WarpID, mask: r.ExecMask,
				words: []uint64{uint64(r.KernelID), uint64(r.InstIdx), uint64(r.WarpID), uint64(r.ExecMask)}})
		}
		return t, t.Stats
	case "memtrace":
		t := memtrace.New(capacity)
		t.Policy, t.Keep = nvbit.ChannelBlock, false
		t.OnRecord = func(r memtrace.Record) {
			s.recs = append(s.recs, streamRec{launch: launch(), warp: r.WarpID, mask: r.ExecMask,
				words: []uint64{uint64(r.KernelID), uint64(r.InstIdx), uint64(r.Opcode), uint64(r.WarpID),
					uint64(r.ExecMask), uint64(r.Flags)},
				addrs: slices.Clone(r.Addrs[:])})
		}
		return t, t.Stats
	case "cachesim":
		cfg := cachesim.DefaultConfig()
		cfg.Policy = nvbit.ChannelBlock
		t := cachesim.New(cfg)
		return t, t.ChannelStats
	}
	panic("unknown stream tool " + name)
}

// recordStream runs cg Small under the named tool and scheduler.
func recordStream(t *testing.T, name string, capacity int, sched gpusim.SchedulerKind) *stream {
	t.Helper()
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		t.Fatal(err)
	}
	s := &stream{}
	tool, stats := streamTool(name, capacity, s)
	w := &launchKeyed{Tool: tool, s: s, stats: stats}
	if _, err := nvbit.Attach(api, w, nvbit.WithScheduler(sched)); err != nil {
		t.Fatal(err)
	}
	w.framework = api.Device().Allocations()
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	if err := diffBenchmark(t).Run(ctx, specaccel.Small); err != nil {
		t.Fatal(err)
	}
	api.Close()
	if cs, ok := tool.(*cachesim.Tool); ok {
		st := cs.Stats()
		s.replay = fmt.Sprintf("accesses,stores,l1hits,l1misses,l2hits,l2misses,dropped: %d,%d,%d,%d,%d,%d,%d",
			st.Accesses, st.Stores, st.L1Hits, st.L1Misses, st.L2Hits, st.L2Misses, st.Dropped)
	}
	return s
}

func hashWords(h hash.Hash, words ...uint64) {
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
}

type warpKey struct {
	launch int
	warp   uint32
}

// foldStream is the oracle's digest: one SHA-256 per (launch, warp) over its
// records in delivery order, each active lane's address hashed as (size of
// its allocation, rank of the allocation among the launch's application
// allocations of that size by base address, offset within it), then one
// SHA-256 over the keys in order with their digests. An address outside
// every application allocation is an error.
func foldStream(s *stream) (string, error) {
	warps := map[warpKey]hash.Hash{}
	for _, r := range s.recs {
		k := warpKey{r.launch, r.warp}
		h := warps[k]
		if h == nil {
			h = sha256.New()
			warps[k] = h
		}
		hashWords(h, r.words...)
		for lane, a := range r.addrs {
			if r.mask&(1<<lane) == 0 {
				hashWords(h, 0, 0, 0)
				continue
			}
			allocs := s.allocs[r.launch]
			i := locate(allocs, a)
			if i < 0 {
				return "", fmt.Errorf("launch %d warp %d lane %d: address %#x outside every application allocation", r.launch, r.warp, lane, a)
			}
			size, rank := allocs[i].Size, uint64(0)
			for _, b := range allocs[:i] {
				if b.Size == size {
					rank++
				}
			}
			hashWords(h, size, rank, a-allocs[i].Base)
		}
	}
	keys := make([]warpKey, 0, len(warps))
	for k := range warps {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i].launch < keys[j].launch || keys[i].launch == keys[j].launch && keys[i].warp < keys[j].warp
	})
	h := sha256.New()
	for _, k := range keys {
		hashWords(h, uint64(k.launch), uint64(k.warp))
		h.Write(warps[k].Sum(nil))
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// locate returns the index of the allocation holding addr in allocs, which
// are sorted by base address, or -1.
func locate(allocs []nvbit.AllocSpan, addr uint64) int {
	i := sort.Search(len(allocs), func(i int) bool { return allocs[i].Base > addr }) - 1
	if i < 0 || addr-allocs[i].Base >= allocs[i].Size {
		return -1
	}
	return i
}

func formatCounts(counts []nvbit.ChannelStats) string {
	var b strings.Builder
	b.WriteString("delivered,dropped,flushes,sweep,cta,drain,bytes:")
	for _, c := range counts {
		fmt.Fprintf(&b, " %d,%d,%d,%d,%d,%d,%d",
			c.Delivered, c.Dropped, c.Flushes, c.TickFlushes, c.CTAFlushes, c.DrainFlushes, c.BytesShipped)
	}
	return b.String()
}

// bothSchedulers records the tool under each scheduler and requires the two
// runs to agree record for record, raw addresses included.
func bothSchedulers(t *testing.T, name string, capacity int) *stream {
	t.Helper()
	seq := recordStream(t, name, capacity, gpusim.SchedulerSequential)
	par := recordStream(t, name, capacity, gpusim.SchedulerParallelSM)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("%s at capacity %d: the schedulers deliver different streams", name, capacity)
	}
	return seq
}

// TestStreamOracle compares each tool's digest and counts with
// testdata/stream_golden.txt. Delete the file to record a new golden; the
// recording run fails so it is never mistaken for a comparison.
func TestStreamOracle(t *testing.T) {
	var rows []string
	digests := map[string]string{}
	var mem *stream
	for _, name := range []string{"itrace", "memtrace"} {
		s := bothSchedulers(t, name, 1<<16)
		d, err := foldStream(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		digests[name] = d
		rows = append(rows, name+" digest "+d, name+" counts "+formatCounts(s.counts))
		if name == "memtrace" {
			mem = s
		}
	}

	// At the smallest buffers (clamped up to the per-SM minimum) itrace
	// flushes at sweep boundaries mid-kernel; Block loses nothing, so every
	// warp's records are those of the large-buffer run. A CTA exit always
	// follows a sweep boundary with no instruction between them, so it finds
	// nothing to ship and the golden pins its count at zero.
	small := bothSchedulers(t, "itrace", 1)
	if d, err := foldStream(small); err != nil || d != digests["itrace"] {
		t.Errorf("itrace with small buffers: digest %s (%v), want the large-buffer run's %s", d, err, digests["itrace"])
	}
	var sweeps uint64
	for _, c := range small.counts {
		sweeps += c.TickFlushes
	}
	if sweeps == 0 {
		t.Error("itrace with small buffers never flushed mid-kernel")
	}
	rows = append(rows, "itrace-small counts "+formatCounts(small.counts))

	cs := bothSchedulers(t, "cachesim", 1<<16)
	rows = append(rows, "cachesim replay "+cs.replay, "cachesim counts "+formatCounts(cs.counts))

	t.Run("mutations", func(t *testing.T) { streamMutations(t, mem, digests["memtrace"]) })

	text := strings.Join(rows, "\n") + "\n"
	want, err := os.ReadFile(streamGoldenPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamGoldenPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %d rows in %s; run again to compare", len(rows), streamGoldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if text != string(want) {
		t.Errorf("delivered stream changed:\n got:\n%swant:\n%s", text, want)
	}
}

// streamMutations edits a copy of one recorded memtrace stream per case and
// checks that the fold tells apart what changes a trace's meaning from what
// does not.
func streamMutations(t *testing.T, s *stream, want string) {
	cases := []struct {
		name   string
		mutate func(c *stream) error
		same   bool
	}{
		{"swap two records of one warp", func(c *stream) error {
			for i := range c.recs {
				for j := i + 1; j < len(c.recs); j++ {
					a, b := c.recs[i], c.recs[j]
					if a.launch == b.launch && a.warp == b.warp && !reflect.DeepEqual(a, b) {
						c.recs[i], c.recs[j] = b, a
						return nil
					}
				}
			}
			return errors.New("no warp with two distinct records")
		}, false},
		{"interleave two warps differently", func(c *stream) error {
			for i := 0; i+1 < len(c.recs); i++ {
				if a, b := c.recs[i], c.recs[i+1]; a.launch == b.launch && a.warp != b.warp {
					c.recs[i], c.recs[i+1] = b, a
					return nil
				}
			}
			return errors.New("no two adjacent records of different warps")
		}, true},
		{"move one allocation", func(c *stream) error {
			// An allocation that is the last of its size keeps its rank when
			// it moves above every other one.
			launch := c.recs[0].launch
			allocs := c.allocs[launch]
			used := make([]bool, len(allocs))
			for _, r := range c.recs {
				for lane, a := range r.addrs {
					if r.launch == launch && r.mask&(1<<lane) != 0 {
						used[locate(allocs, a)] = true
					}
				}
			}
			i := len(allocs) - 1
			for ; i >= 0 && !used[i]; i-- {
			}
			if i < 0 {
				return errors.New("no record addresses an application allocation")
			}
			moved := allocs[i]
			if slices.ContainsFunc(allocs[i+1:], func(a nvbit.AllocSpan) bool { return a.Size == moved.Size }) {
				return errors.New("the last allocation addressed is not the last of its size")
			}
			last := allocs[len(allocs)-1]
			delta := last.Base + last.Size - moved.Base + 1<<20
			c.allocs[launch] = append(slices.Delete(slices.Clone(allocs), i, i+1),
				nvbit.AllocSpan{Base: moved.Base + delta, Size: moved.Size})
			for _, r := range c.recs {
				for lane, a := range r.addrs {
					if r.launch == launch && r.mask&(1<<lane) != 0 && a-moved.Base < moved.Size {
						r.addrs[lane] += delta
					}
				}
			}
			return nil
		}, true},
		{"change one offset", func(c *stream) error {
			for i := range c.recs {
				r := &c.recs[i]
				for lane := range r.addrs {
					if r.mask&(1<<lane) != 0 {
						r.addrs[lane] ^= 4 // stays in its 8-byte word, so in its allocation
						return nil
					}
				}
			}
			return errors.New("no active lane")
		}, false},
		{"move a record to another warp", func(c *stream) error {
			for i := 1; i < len(c.recs); i++ {
				if a, b := c.recs[i-1], &c.recs[i]; a.launch == b.launch && a.warp != b.warp {
					b.warp = a.warp
					return nil
				}
			}
			return errors.New("no launch with two warps")
		}, false},
	}
	for _, tc := range cases {
		c := &stream{recs: slices.Clone(s.recs), allocs: slices.Clone(s.allocs), counts: s.counts}
		for i := range c.recs {
			c.recs[i].addrs = slices.Clone(c.recs[i].addrs)
		}
		if err := tc.mutate(c); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := foldStream(c)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (got == want) != tc.same {
			t.Errorf("%s: digest equal to the recorded stream's is %v, want %v", tc.name, got == want, tc.same)
		}
	}
}
