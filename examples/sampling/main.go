// Kernel sampling (paper Section 6.2): builds an instruction histogram of a
// SpecAccel benchmark twice — with full instrumentation and with
// grid-dimension kernel sampling (instrumented code runs once per unique
// (kernel, grid) pair; nvbit_enable_instrumented switches versions) — and
// reports the slowdown each approach costs and the sampling error.
//
//	go run ./examples/sampling
package main

import (
	"fmt"
	"log"
	"math"

	"nvbitgo/gpusim"
	"nvbitgo/internal/tools/ophisto"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

func run(b *specaccel.Benchmark, mode string) (map[string]uint64, uint64) {
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		log.Fatal(err)
	}
	var tool *ophisto.Tool
	var nv *nvbit.NVBit
	if mode != "native" {
		tool = ophisto.New(mode == "sampled")
		if nv, err = nvbit.Attach(api, tool); err != nil {
			log.Fatal(err)
		}
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		log.Fatal(err)
	}
	if err := b.Run(ctx, specaccel.Medium); err != nil {
		log.Fatal(err)
	}
	var counts map[string]uint64
	if tool != nil {
		counts = tool.Counts(nv)
	}
	return counts, api.Device().Stats().Cycles
}

func main() {
	bench, err := specaccel.Find("clvrleaf")
	if err != nil {
		log.Fatal(err)
	}

	_, nativeCycles := run(bench, "native")
	exact, fullCycles := run(bench, "full")
	est, sampledCycles := run(bench, "sampled")

	fmt.Printf("benchmark %s (medium): native %d cycles\n", bench.Name, nativeCycles)
	fmt.Printf("full instrumentation: %5.1fx slowdown\n", float64(fullCycles)/float64(nativeCycles))
	fmt.Printf("kernel sampling:      %5.1fx slowdown\n", float64(sampledCycles)/float64(nativeCycles))

	fmt.Println("\ntop-5 executed instructions (exact vs sampled estimate):")
	var total uint64
	for _, v := range exact {
		total += v
	}
	shown := 0
	for _, e := range topOf(exact) {
		if shown == 5 {
			break
		}
		shown++
		err := 100 * math.Abs(float64(est[e.op])-float64(e.count)) / float64(e.count)
		fmt.Printf("  %-8s %5.1f%% of instructions, sampling error %.3f%%\n",
			e.op, 100*float64(e.count)/float64(total), err)
	}
}

type entry struct {
	op    string
	count uint64
}

func topOf(m map[string]uint64) []entry {
	out := make([]entry, 0, len(m))
	for k, v := range m {
		out = append(out, entry{k, v})
	}
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j].count > out[i].count {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}
