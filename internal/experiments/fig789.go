package experiments

import (
	"fmt"
	"math"
	"strings"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/tools/ophisto"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

// Fig7Row is one benchmark's Top-5 executed-instruction histogram
// (paper Figure 7).
type Fig7Row struct {
	Benchmark string
	Top       []ophisto.Entry
	Total     uint64
}

// Fig8Row is one benchmark's execution slowdown relative to native for full
// instrumentation (trampoline codegen), full instrumentation with inline
// injection (InjectInline: tool bodies spliced into dead registers, no
// save/restore or CAL/RET at eligible sites), and grid-dimension kernel
// sampling (paper Figure 8; paper averages: full 36.4x, up to 112x;
// sampling 2.3x).
type Fig8Row struct {
	Benchmark string
	Full      float64
	Inline    float64
	Sampled   float64
}

// Fig9Row is one benchmark's kernel-sampling error versus exact counts,
// averaged across instruction categories (paper Figure 9; average < 0.6%,
// exactly 0 for kernels whose control flow depends only on grid dimensions).
type Fig9Row struct {
	Benchmark      string
	ErrPct         float64
	ValueDependent bool
}

type histoRun struct {
	counts map[string]uint64
	cycles uint64
	top    []ophisto.Entry
}

// runHisto executes one benchmark under the opcode-histogram tool (or
// natively when mode == "native") and returns counts and device cycles.
func runHisto(b *specaccel.Benchmark, size specaccel.Size, mode string) (*histoRun, error) {
	var tool *ophisto.Tool
	var opts []nvbit.Option
	switch mode {
	case "native":
	case "full":
		tool = ophisto.New(false)
	case "inline":
		tool = ophisto.New(false)
		opts = append(opts, nvbit.WithInjectionMode(nvbit.InjectInline))
	case "sampled":
		tool = ophisto.New(true)
	default:
		return nil, fmt.Errorf("bad mode %q", mode)
	}
	var attach nvbit.Tool // stays nil, not a nil *ophisto.Tool, for the native run
	if tool != nil {
		attach = tool
	}
	api, nv, err := run(attach, func(ctx *driver.Context) error { return b.Run(ctx, size) }, opts...)
	if err != nil {
		return nil, fmt.Errorf("%s (%s): %w", b.Name, mode, err)
	}
	out := &histoRun{cycles: api.Device().Stats().Cycles}
	if tool != nil {
		out.counts = tool.Counts(nv)
		out.top = tool.Top(nv, 5)
	}
	return out, nil
}

// Fig789 runs the SpecAccel suite natively, fully instrumented, and with
// kernel sampling, and derives Figures 7 (Top-5 histogram), 8 (slowdowns)
// and 9 (sampling error) from the same three passes.
func Fig789(size specaccel.Size) ([]Fig7Row, []Fig8Row, []Fig9Row, error) {
	var f7 []Fig7Row
	var f8 []Fig8Row
	var f9 []Fig9Row
	for _, b := range specaccel.Benchmarks() {
		native, err := runHisto(b, size, "native")
		if err != nil {
			return nil, nil, nil, err
		}
		full, err := runHisto(b, size, "full")
		if err != nil {
			return nil, nil, nil, err
		}
		inline, err := runHisto(b, size, "inline")
		if err != nil {
			return nil, nil, nil, err
		}
		sampled, err := runHisto(b, size, "sampled")
		if err != nil {
			return nil, nil, nil, err
		}

		var total uint64
		for _, v := range full.counts {
			total += v
		}
		f7 = append(f7, Fig7Row{Benchmark: b.Name, Top: full.top, Total: total})

		f8 = append(f8, Fig8Row{
			Benchmark: b.Name,
			Full:      float64(full.cycles) / float64(native.cycles),
			Inline:    float64(inline.cycles) / float64(native.cycles),
			Sampled:   float64(sampled.cycles) / float64(native.cycles),
		})

		// Figure 9: per-category relative error of the sampled estimate
		// against the exact (full) counts, averaged over categories.
		var errSum float64
		var cats int
		for op, exact := range full.counts {
			if exact == 0 {
				continue
			}
			est := sampled.counts[op]
			errSum += math.Abs(float64(est)-float64(exact)) / float64(exact)
			cats++
		}
		errPct := 0.0
		if cats > 0 {
			errPct = 100 * errSum / float64(cats)
		}
		f9 = append(f9, Fig9Row{Benchmark: b.Name, ErrPct: errPct, ValueDependent: b.ValueDependent})
	}
	return f7, f8, f9, nil
}

// RenderFig7 formats the Top-5 histogram table.
func RenderFig7(rows []Fig7Row) string {
	var b strings.Builder
	b.WriteString("Figure 7: Top-5 executed instructions per benchmark (thread-level)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s", r.Benchmark)
		for _, e := range r.Top {
			fmt.Fprintf(&b, "  %s %4.1f%%", e.Opcode, 100*float64(e.Count)/float64(r.Total))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderFig8 formats the slowdown table.
func RenderFig8(rows []Fig8Row) string {
	var b strings.Builder
	b.WriteString("Figure 8: execution slowdown vs native (device cycles)\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %10s\n", "benchmark", "full", "inline", "sampled")
	var fullAvg, inlAvg, sampAvg float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %9.1fx %9.1fx %9.1fx\n", r.Benchmark, r.Full, r.Inline, r.Sampled)
		fullAvg += r.Full
		inlAvg += r.Inline
		sampAvg += r.Sampled
	}
	n := float64(len(rows))
	fmt.Fprintf(&b, "%-10s %9.1fx %9.1fx %9.1fx\n", "average", fullAvg/n, inlAvg/n, sampAvg/n)
	return b.String()
}

// RenderFig9 formats the sampling-error table.
func RenderFig9(rows []Fig9Row) string {
	var b strings.Builder
	b.WriteString("Figure 9: kernel-sampling error vs exact counts\n")
	fmt.Fprintf(&b, "%-10s %9s  %s\n", "benchmark", "error", "control flow")
	var avg float64
	for _, r := range rows {
		kind := "grid-dim"
		if r.ValueDependent {
			kind = "value-dependent"
		}
		fmt.Fprintf(&b, "%-10s %8.3f%%  %s\n", r.Benchmark, r.ErrPct, kind)
		avg += r.ErrPct
	}
	fmt.Fprintf(&b, "%-10s %8.3f%%\n", "average", avg/float64(len(rows)))
	return b.String()
}
