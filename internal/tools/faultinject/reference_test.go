package faultinject

import (
	"fmt"
	"math/bits"
	"testing"

	"nvbitgo/gpusim"
	"nvbitgo/internal/tools/itrace"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

// launchTable is a disarmed Tool that reads its counter at the exit of every
// launch, as a campaign's golden pass does: each launch's population of the
// group.
type launchTable struct {
	*Tool
	counts  []uint64
	counted uint64
}

func (r *launchTable) AtCUDACall(n *nvbit.NVBit, exit bool, cbid nvbit.CBID, name string, p *nvbit.CallParams) {
	r.Tool.AtCUDACall(n, exit, cbid, name, p)
	if !exit || cbid != nvbit.CBLaunchKernel {
		return
	}
	res, err := r.Result()
	if err != nil {
		panic(err)
	}
	r.counts = append(r.counts, res.Executed-r.counted)
	r.counted = res.Executed
}

// traceGroups is itrace under ChannelBlock that folds every record into its
// launch's per-group populations: Σ popcount(ExecMask) over the records
// whose site classifies into the group.
type traceGroups struct {
	*itrace.Tool
	insts  map[string][]*nvbit.Instr // kernel name -> lifted instructions
	counts [][NumGroups]uint64       // per launch
}

func newTraceGroups() *traceGroups {
	r := &traceGroups{Tool: itrace.New(1 << 16), insts: map[string][]*nvbit.Instr{}}
	r.Policy, r.Keep = nvbit.ChannelBlock, false
	r.OnRecord = func(rec itrace.Record) {
		i := r.insts[r.KernelName(rec.KernelID)][rec.InstIdx]
		if _, groups, ok := classify(i.Raw()); ok {
			row := &r.counts[len(r.counts)-1]
			for g := Group(0); g < NumGroups; g++ {
				if groups[g] {
					row[g] += uint64(bits.OnesCount32(rec.ExecMask))
				}
			}
		}
	}
	return r
}

func (r *traceGroups) AtCUDACall(n *nvbit.NVBit, exit bool, cbid nvbit.CBID, name string, p *nvbit.CallParams) {
	r.Tool.AtCUDACall(n, exit, cbid, name, p)
	if exit || cbid != nvbit.CBLaunchKernel {
		return
	}
	f := p.Launch.Func
	insts, err := n.GetInstrs(f)
	if err != nil {
		panic(err)
	}
	r.insts[f.Name] = insts
	r.counts = append(r.counts, [NumGroups]uint64{})
}

// runBenchmark runs bench at Small under tool on the sequential scheduler,
// as every campaign execution does.
func runBenchmark(t *testing.T, bench *specaccel.Benchmark, tool nvbit.Tool) {
	t.Helper()
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nvbit.Attach(api, tool, nvbit.WithScheduler(nvbit.SchedulerSequential)); err != nil {
		t.Fatal(err)
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.Run(ctx, specaccel.Small); err != nil {
		t.Fatal(err)
	}
}

// TestLaunchTableMatchesITrace checks the disarmed tool's per-launch counts,
// the launch table a campaign's golden pass records and draws its targets
// from, against an independent reference: the warp-level trace itrace
// streams, each record weighted by its executing lanes. The SpecAccel
// victims guard no eligible instruction, so launchSeq's predhalf carries the
// predicated-off lanes.
func TestLaunchTableMatchesITrace(t *testing.T) {
	victims := map[string]func(*testing.T, nvbit.Tool){
		"launchSeq": func(t *testing.T, tool nvbit.Tool) { runSeq(t, tool) },
	}
	for _, b := range specaccel.Benchmarks() {
		victims[b.Name] = func(t *testing.T, tool nvbit.Tool) { runBenchmark(t, b, tool) }
	}
	for _, name := range []string{"ostencil", "olbm", "cg", "launchSeq"} {
		run := victims[name]
		t.Run(name, func(t *testing.T) {
			ref := newTraceGroups()
			run(t, ref)
			if ref.Dropped() != 0 {
				t.Fatalf("itrace dropped %d records under ChannelBlock", ref.Dropped())
			}
			for g := Group(0); g < NumGroups; g++ {
				table := &launchTable{Tool: New(Injection{Group: g, Target: NoTarget})}
				run(t, table)
				want := make([]uint64, len(ref.counts))
				for k, row := range ref.counts {
					want[k] = row[g]
				}
				if fmt.Sprint(table.counts) != fmt.Sprint(want) {
					t.Errorf("group %s: launch table %v, itrace %v", g, table.counts, want)
				}
			}
		})
	}
}
