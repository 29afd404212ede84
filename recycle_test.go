package main_test

import (
	"bytes"
	"runtime"
	"testing"

	"nvbitgo/gpusim"
	"nvbitgo/internal/tools/faultinject"
	"nvbitgo/internal/tools/instrcount"
	"nvbitgo/internal/tools/memtrace"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

// recycleRun runs specaccel:cg Small under tool on a new device with the
// given scheduler, closes the device, and returns the output, its Stats and
// the run's error.
func recycleRun(t *testing.T, sched gpusim.SchedulerKind, tool nvbit.Tool) ([]byte, gpusim.Stats, error) {
	t.Helper()
	bench, err := specaccel.Find("cg")
	if err != nil {
		t.Fatal(err)
	}
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nvbit.Attach(api, tool, nvbit.WithScheduler(sched)); err != nil {
		t.Fatal(err)
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	out, err := bench.RunCapture(ctx, specaccel.Small)
	api.Close()
	return out, api.Device().Stats(), err
}

// TestRecycledDeviceMatchesFirst: a device whose warps, contexts and caches
// come from closed devices runs exactly as the first device of a process,
// which allocates them all: the same output and bit-identical Stats, under
// both schedulers. The devices closed before it ran memtrace (channels, and
// the parallel scheduler's L2 shards) and an armed faultinject (save frames
// and a corrupted register).
func TestRecycledDeviceMatchesFirst(t *testing.T) {
	for _, sched := range []gpusim.SchedulerKind{gpusim.SchedulerSequential, gpusim.SchedulerParallelSM} {
		t.Run(sched.String(), func(t *testing.T) {
			// Two collections empty every sync.Pool, so the next device
			// allocates its execution state as a process's first does.
			runtime.GC()
			runtime.GC()
			wantOut, want, err := recycleRun(t, sched, instrcount.New())
			if err != nil {
				t.Fatal(err)
			}

			trace := memtrace.New(1 << 16)
			trace.Policy, trace.Keep = nvbit.ChannelBlock, false
			if _, _, err := recycleRun(t, sched, trace); err != nil {
				t.Fatal(err)
			}
			// The fault may crash the victim; only the state it leaves matters.
			recycleRun(t, sched, faultinject.New(faultinject.Injection{Group: faultinject.GroupAll, Target: 1000, Model: faultinject.ModelRand, Value: 0xdeadbeef}))

			gotOut, got, err := recycleRun(t, sched, instrcount.New())
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("Stats on a recycled device differ from the first device's:\n got %+v\nwant %+v", got, want)
			}
			if !bytes.Equal(gotOut, wantOut) {
				t.Errorf("output on a recycled device differs from the first device's")
			}
		})
	}
}
