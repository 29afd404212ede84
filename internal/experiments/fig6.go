package experiments

import (
	"fmt"
	"strings"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/tools/instrcount"
	"nvbitgo/internal/tools/memdiv"
	"nvbitgo/internal/workloads/mlsuite"
)

// LibFracRow is one ML workload's fraction of executed instructions inside
// precompiled libraries (the Section 6.1 statistic: 74–96%, average ≈ 88%).
type LibFracRow struct {
	Network  string
	Fraction float64
}

// LibFraction measures, with the instruction-count tool, the share of
// thread-level instructions executed inside the binary-only accelerated
// library for each ML workload.
func LibFraction() ([]LibFracRow, error) {
	var rows []LibFracRow
	for _, net := range mlsuite.Networks() {
		tool := instrcount.New()
		_, nv, err := run(tool, func(ctx *driver.Context) error {
			_, err := mlsuite.Run(ctx, nil, net)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("libfraction: %s: %w", net.Name, err)
		}
		rows = append(rows, LibFracRow{Network: net.Name, Fraction: tool.LibraryFraction(nv)})
	}
	return rows, nil
}

// RenderLibFraction formats the Section 6.1 statistic.
func RenderLibFraction(rows []LibFracRow) string {
	var b strings.Builder
	b.WriteString("Section 6.1: executed instructions inside precompiled libraries\n")
	var avg float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %6.1f%%\n", r.Network, 100*r.Fraction)
		avg += r.Fraction
	}
	fmt.Fprintf(&b, "%-10s %6.1f%%\n", "average", 100*avg/float64(len(rows)))
	return b.String()
}

// Fig6Row is one ML workload's memory address divergence measured with and
// without instrumenting the precompiled libraries (paper Figure 6).
type Fig6Row struct {
	Network     string
	WithLibs    float64 // NVBit: full visibility
	WithoutLibs float64 // compiler-based tool: application kernels only
}

// Fig6 reproduces Figure 6: average unique cache lines requested per
// warp-level global memory instruction, with library instrumentation enabled
// and disabled. Disabling library instrumentation reproduces a compile-time
// tool's view and overestimates divergence, because only the unoptimized
// application-side kernels remain visible.
func Fig6() ([]Fig6Row, error) {
	measure := func(net mlsuite.Network, skipLibs bool) (float64, error) {
		tool := memdiv.New()
		tool.SkipLibraries = skipLibs
		_, nv, err := run(tool, func(ctx *driver.Context) error {
			_, err := mlsuite.Run(ctx, nil, net)
			return err
		})
		if err != nil {
			return 0, err
		}
		return tool.AvgLinesPerMemInstr(nv), nil
	}
	var rows []Fig6Row
	for _, net := range mlsuite.Networks() {
		with, err := measure(net, false)
		if err != nil {
			return nil, fmt.Errorf("fig6: %s: %w", net.Name, err)
		}
		without, err := measure(net, true)
		if err != nil {
			return nil, fmt.Errorf("fig6: %s: %w", net.Name, err)
		}
		rows = append(rows, Fig6Row{Network: net.Name, WithLibs: with, WithoutLibs: without})
	}
	return rows, nil
}

// RenderFig6 formats the Figure 6 table.
func RenderFig6(rows []Fig6Row) string {
	var b strings.Builder
	b.WriteString("Figure 6: avg unique cache lines per warp-level global memory instruction\n")
	fmt.Fprintf(&b, "%-10s %12s %16s %14s\n", "network", "with libs", "without libs", "overestimate")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12.2f %16.2f %13.1fx\n",
			r.Network, r.WithLibs, r.WithoutLibs, r.WithoutLibs/r.WithLibs)
	}
	return b.String()
}
