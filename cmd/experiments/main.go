// Command experiments regenerates the paper's evaluation figures on the
// simulated stack. Each figure prints the same rows/series the paper
// reports; see EXPERIMENTS.md for paper-vs-measured commentary.
//
// Usage:
//
//	experiments -fig all            # everything at the default sizes
//	experiments -fig 5 -size medium # Figure 5 (paper uses medium)
//	experiments -fig 8 -size large  # Figures 7/8/9 (paper uses large)
//	experiments -fig 8 -cpuprofile cpu.prof   # where the host time went
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"nvbitgo/internal/experiments"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/workloads/specaccel"
)

// all is the -fig key that runs every figure in table order.
const all = "all"

// figure is one section of the output: the name its timing line carries, the
// -fig keys that select it (its name when it lists none) and what renders it.
type figure struct {
	name string
	keys []string
	run  func() (string, error)
}

func (f figure) selectors() []string {
	if f.keys == nil {
		return []string{f.name}
	}
	return f.keys
}

func main() {
	fiRuns := flag.Int("fi-runs", 250, "faultinject: injection runs per victim")
	fiSeed := flag.Uint64("fi-seed", 1, "faultinject: campaign manifest seed")
	sizeName := flag.String("size", "", "problem size: small, medium, large (default: per-figure paper size)")
	schedName := flag.String("scheduler", "sequential", "CTA scheduler: sequential (reference, used for published figures) or parallel")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")

	// os.Exit runs no deferred calls and a CPU profile is only complete once
	// stopped, so every exit below goes through exit.
	stopProfile := func() {}
	exit := func(code int) {
		stopProfile()
		os.Exit(code)
	}
	size := func(def specaccel.Size) specaccel.Size {
		if *sizeName == "" {
			return def
		}
		s, err := specaccel.ParseSize(*sizeName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			exit(2)
		}
		return s
	}

	figures := []figure{
		{"fig5", []string{"5"}, func() (string, error) {
			rows, err := experiments.Fig5(size(specaccel.Medium))
			return experiments.RenderFig5(rows), err
		}},
		{"lib", nil, func() (string, error) {
			rows, err := experiments.LibFraction()
			return experiments.RenderLibFraction(rows), err
		}},
		{"fig6", []string{"6"}, func() (string, error) {
			rows, err := experiments.Fig6()
			return experiments.RenderFig6(rows), err
		}},
		{"fig789", []string{"7", "8", "9"}, func() (string, error) {
			f7, f8, f9, err := experiments.Fig789(size(specaccel.Large))
			return experiments.RenderFig7(f7) + "\n" + experiments.RenderFig8(f8) + "\n" + experiments.RenderFig9(f9), err
		}},
		{"wfft", nil, func() (string, error) {
			r, err := experiments.WFFT()
			return experiments.RenderWFFT(r), err
		}},
		{"saveset", nil, func() (string, error) {
			rows, err := experiments.SaveSet(size(specaccel.Small))
			return experiments.RenderSaveSet(rows), err
		}},
		{"jitcache", nil, func() (string, error) {
			dir, err := os.MkdirTemp("", "nvbit-jitcache-*")
			if err != nil {
				return "", err
			}
			defer os.RemoveAll(dir)
			rows, err := experiments.JITCache(dir, size(specaccel.Medium))
			return experiments.RenderJITCache(rows), err
		}},
		{"faultinject", nil, func() (string, error) {
			rows, err := experiments.FaultInject(*fiRuns, *fiSeed)
			return experiments.RenderFaultInject(rows), err
		}},
	}
	var keys []string
	for _, f := range figures {
		keys = append(keys, f.selectors()...)
	}
	fig := flag.String("fig", all, "figure to regenerate: "+strings.Join(append(keys, all), ", "))
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}
	}

	sched, err := gpu.ParseScheduler(*schedName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		exit(2)
	}
	experiments.SetScheduler(sched)

	ran := false
	for _, f := range figures {
		if *fig != all && !slices.Contains(f.selectors(), *fig) {
			continue
		}
		start := time.Now()
		out, err := f.run()
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			exit(1)
		}
		fmt.Print(out)
		fmt.Printf("[%s took %.1fs]\n\n", f.name, time.Since(start).Seconds())
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		exit(2)
	}
	stopProfile()
}
