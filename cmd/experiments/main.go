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
	"time"

	"nvbitgo/internal/experiments"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/workloads/specaccel"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 5, 6, 7, 8, 9, lib, wfft, saveset, jitcache, faultinject, all")
	fiRuns := flag.Int("fi-runs", 250, "faultinject: injection runs per victim")
	fiSeed := flag.Uint64("fi-seed", 1, "faultinject: campaign manifest seed")
	sizeName := flag.String("size", "", "problem size: small, medium, large (default: per-figure paper size)")
	schedName := flag.String("scheduler", "sequential", "CTA scheduler: sequential (reference, used for published figures) or parallel")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	flag.Parse()

	// os.Exit runs no deferred calls and a CPU profile is only complete once
	// stopped, so every exit below goes through exit.
	stopProfile := func() {}
	exit := func(code int) {
		stopProfile()
		os.Exit(code)
	}
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

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		exit(1)
	}
	section := func(name string, fn func() error) {
		start := time.Now()
		if err := fn(); err != nil {
			fail(err)
		}
		fmt.Printf("[%s took %.1fs]\n\n", name, time.Since(start).Seconds())
	}

	runFig5 := func() error {
		rows, err := experiments.Fig5(size(specaccel.Medium))
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig5(rows))
		return nil
	}
	runLib := func() error {
		rows, err := experiments.LibFraction()
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderLibFraction(rows))
		return nil
	}
	runFig6 := func() error {
		rows, err := experiments.Fig6()
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig6(rows))
		return nil
	}
	runFig789 := func() error {
		f7, f8, f9, err := experiments.Fig789(size(specaccel.Large))
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig7(f7))
		fmt.Println()
		fmt.Print(experiments.RenderFig8(f8))
		fmt.Println()
		fmt.Print(experiments.RenderFig9(f9))
		return nil
	}
	runSaveSet := func() error {
		rows, err := experiments.SaveSet(size(specaccel.Small))
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderSaveSet(rows))
		return nil
	}
	runWFFT := func() error {
		r, err := experiments.WFFT()
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderWFFT(r))
		return nil
	}
	runJITCache := func() error {
		dir, err := os.MkdirTemp("", "nvbit-jitcache-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		rows, err := experiments.JITCache(dir, size(specaccel.Medium))
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderJITCache(rows))
		return nil
	}

	runFaultInject := func() error {
		rows, err := experiments.FaultInject(*fiRuns, *fiSeed)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFaultInject(rows))
		return nil
	}

	switch *fig {
	case "5":
		section("fig5", runFig5)
	case "lib":
		section("lib", runLib)
	case "6":
		section("fig6", runFig6)
	case "7", "8", "9":
		section("fig789", runFig789)
	case "wfft":
		section("wfft", runWFFT)
	case "saveset":
		section("saveset", runSaveSet)
	case "jitcache":
		section("jitcache", runJITCache)
	case "faultinject":
		section("faultinject", runFaultInject)
	case "all":
		section("fig5", runFig5)
		section("lib", runLib)
		section("fig6", runFig6)
		section("fig789", runFig789)
		section("wfft", runWFFT)
		section("saveset", runSaveSet)
		section("jitcache", runJITCache)
		section("faultinject", runFaultInject)
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		exit(2)
	}
	stopProfile()
}
