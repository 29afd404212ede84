package specaccel_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"nvbitgo/gpusim"
	"nvbitgo/internal/tools/instrcount"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

// Whole-suite statistics golden: every field of gpu.Stats (all of OpCounts
// and OpThreads, L1/L2 hits and misses, GlobalLines, Cycles, …) after each
// benchmark at Small, native and under instrcount, under both schedulers, is
// pinned by SHA-256. The simulator's host-side fast paths (docs/scheduler.md,
// "Warp state and the step loop") are licensed by this file: a change that is
// only meant to make the simulator faster must leave it byte-identical.
// bench/golden.json pins cycles and warp instructions of native runs only.

const statsGoldenPath = "testdata/stats_golden.txt"

// statsDigest hashes every field of st in declaration order, walking the
// struct by reflection so a field added to gpu.Stats is covered without an
// edit here.
func statsDigest(t *testing.T, st gpusim.Stats) string {
	h := sha256.New()
	var word func(v reflect.Value)
	word = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Uint64:
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v.Uint())
			h.Write(b[:])
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				word(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				word(v.Field(i))
			}
		default:
			t.Fatalf("gpu.Stats holds a %v; statsDigest hashes uint64 fields and arrays of them", v.Kind())
		}
	}
	word(reflect.ValueOf(st))
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

func suiteStats(t *testing.T, b *specaccel.Benchmark, instr bool, sched gpusim.SchedulerKind) gpusim.Stats {
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	if instr {
		if _, err := nvbit.Attach(api, instrcount.New(), nvbit.WithScheduler(sched)); err != nil {
			t.Fatal(err)
		}
	} else {
		api.Device().SetScheduler(sched)
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(ctx, specaccel.Small); err != nil {
		t.Fatal(err)
	}
	return api.Device().Stats()
}

// TestSuiteStatsGolden compares every digest with testdata/stats_golden.txt.
// Delete the file to record a new golden (a change to the cycle model, the
// cache model or generated code moves it on purpose); the recording run
// fails so it is never mistaken for a comparison.
func TestSuiteStatsGolden(t *testing.T) {
	var got []string
	for _, b := range specaccel.Benchmarks() {
		for _, mode := range []string{"native", "instrcount"} {
			for _, s := range []struct {
				name string
				kind gpusim.SchedulerKind
			}{{"sequential", gpusim.SchedulerSequential}, {"parallel", gpusim.SchedulerParallelSM}} {
				st := suiteStats(t, b, mode == "instrcount", s.kind)
				got = append(got, fmt.Sprintf("%s/%s/%s %s cycles=%d warp_instrs=%d lines=%d l1=%d/%d l2=%d/%d",
					b.Name, mode, s.name, statsDigest(t, st), st.Cycles, st.WarpInstrs, st.GlobalLines,
					st.L1Hits, st.L1Misses, st.L2Hits, st.L2Misses))
			}
		}
	}
	text := strings.Join(got, "\n") + "\n"
	want, err := os.ReadFile(statsGoldenPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(statsGoldenPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %d rows in %s; run again to compare", len(got), statsGoldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if text != string(want) {
		gl, wl := strings.Split(text, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("simulated statistics changed:\n got  %s\n want %s", gl[i], wl[i])
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("%d rows, golden has %d", len(gl)-1, len(wl)-1)
		}
	}
}
