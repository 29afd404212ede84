package profile

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// KernelMetrics aggregates every launch of one kernel into the per-kernel
// overhead shape of the paper's Figures 7–8: how often it ran, how much work
// it did, and how instrumented wall time compares to uninstrumented.
type KernelMetrics struct {
	Name string

	Launches             uint64
	InstrumentedLaunches uint64
	Faults               uint64

	WarpInstrs   uint64
	ThreadInstrs uint64
	Cycles       uint64

	// Wall time split by resident code version, so slowdown can mirror
	// Figure 8's instrumented-vs-native ratio when both versions ran.
	WallNative       time.Duration
	WallInstrumented time.Duration

	// Code-generator shape, from the JIT codegen phase records: how many
	// sites of this kernel trampolines serve, how many trampolines that took
	// (Visits) and the summed size of their register save sets. InlinedSites
	// counts sites spliced inline instead (no trampoline, no saved
	// registers).
	Trampolines  uint64
	Visits       uint64
	SavedRegs    uint64
	InlinedSites uint64
}

// AvgSavedRegs returns the save-set registers emitted per site a trampoline
// serves — what liveness sizing and visit coalescing lower — or 0 when the
// kernel was never instrumented. Inline sites are excluded from the
// denominator: a fully inlined kernel reports 0 rather than attributing save
// traffic it never paid.
func (m KernelMetrics) AvgSavedRegs() float64 {
	if m.Trampolines == 0 {
		return 0
	}
	return float64(m.SavedRegs) / float64(m.Trampolines)
}

// SitesPerVisit returns the mean number of sites one trampoline serves, or 0
// when the kernel has none.
func (m KernelMetrics) SitesPerVisit() float64 {
	if m.Visits == 0 {
		return 0
	}
	return float64(m.Trampolines) / float64(m.Visits)
}

// slowdown returns the ratio of mean instrumented to mean native launch
// wall time, or 0 when either version never ran.
func (m KernelMetrics) slowdown() float64 {
	nNat := m.Launches - m.InstrumentedLaunches
	if nNat == 0 || m.InstrumentedLaunches == 0 || m.WallNative == 0 {
		return 0
	}
	meanNat := float64(m.WallNative) / float64(nNat)
	meanIns := float64(m.WallInstrumented) / float64(m.InstrumentedLaunches)
	return meanIns / meanNat
}

// aggregate folds one kernel record into the per-kernel table. Caller holds
// c.mu.
func (c *Collector) aggregate(r Record) {
	m := c.agg[r.Name]
	if m == nil {
		m = &KernelMetrics{Name: r.Name}
		c.agg[r.Name] = m
	}
	m.Launches++
	if r.Instrumented {
		m.InstrumentedLaunches++
		m.WallInstrumented += r.Dur
	} else {
		m.WallNative += r.Dur
	}
	if r.Fault != "" {
		m.Faults++
	}
	m.WarpInstrs += r.WarpInstrs
	m.ThreadInstrs += r.ThreadInstrs
	m.Cycles += r.Cycles
}

// aggregateCodegen folds one JIT codegen-phase record into the owning
// kernel's row, so the metrics table can report the mean save-set size the
// Code Generator chose per trampoline. Caller holds c.mu.
func (c *Collector) aggregateCodegen(r Record) {
	name := r.Kernel
	if name == "" {
		name = r.Name
	}
	m := c.agg[name]
	if m == nil {
		m = &KernelMetrics{Name: name}
		c.agg[name] = m
	}
	m.Trampolines += r.Trampolines
	m.Visits += r.Visits
	m.SavedRegs += r.SavedRegs
	m.InlinedSites += r.InlinedSites
}

// Metrics returns the per-kernel aggregate table, sorted by descending warp
// instructions (busiest kernels first), name-ordered among ties.
func (c *Collector) Metrics() []KernelMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]KernelMetrics, 0, len(c.agg))
	for _, m := range c.agg {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WarpInstrs != out[j].WarpInstrs {
			return out[i].WarpInstrs > out[j].WarpInstrs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// FormatMetrics renders the per-kernel metrics table as aligned text.
func FormatMetrics(ms []KernelMetrics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %8s %6s %6s %14s %14s %12s %9s %9s %11s %8s\n",
		"kernel", "launches", "instr", "faults", "warp-instrs", "thread-instrs", "cycles", "slowdown", "avg-save", "sites/visit", "inlined")
	for _, m := range ms {
		slow := "-"
		if s := m.slowdown(); s > 0 {
			slow = fmt.Sprintf("%.2fx", s)
		}
		save := "-"
		if s := m.AvgSavedRegs(); s > 0 {
			save = fmt.Sprintf("%.1f", s)
		}
		perVisit := "-"
		if s := m.SitesPerVisit(); s > 0 {
			perVisit = fmt.Sprintf("%.1f", s)
		}
		fmt.Fprintf(&b, "%-28s %8d %6d %6d %14d %14d %12d %9s %9s %11s %8d\n",
			m.Name, m.Launches, m.InstrumentedLaunches, m.Faults,
			m.WarpInstrs, m.ThreadInstrs, m.Cycles, slow, save, perVisit, m.InlinedSites)
	}
	return b.String()
}
