package experiments

import (
	"fmt"
	"strings"
	"time"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/tools/instrcount"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

// JITCacheRow is one run's JIT-phase breakdown from the cold/warm
// instrumentation-cache experiment: the paper's Figure 5 worst case (ilbdc,
// whose many unique once-launched kernels maximize first-launch JIT cost)
// executed twice against the same disk-backed cache.
type JITCacheRow struct {
	Run string // "cold" or "warm"
	// Pct holds the eight JIT components as percentages of the run's total
	// JIT time (execution order: retrieve, disassemble, convert,
	// user-code, codegen, swap, cache_lookup, cache_hit).
	Pct      [8]float64
	Total    time.Duration
	Lookups  int
	Hits     int
	Misses   int
	HitRatio float64
}

// JITCacheBenchmark is the workload the cold/warm experiment instruments —
// the paper's measured worst case for JIT overhead.
const JITCacheBenchmark = "ilbdc"

// JITCache runs the cold→warm experiment: two full instrumented runs of
// ilbdc sharing one disk-backed cache directory, each through a *fresh*
// in-memory cache instance so the warm run's hits come from disk, exactly
// like a second process would see them. The warm run must show a 100% hit
// ratio and zero codegen time — the amortization a persistent code cache
// buys (CPU DBI precedent: Pin/DynamoRIO persistent code caches).
func JITCache(dir string, size specaccel.Size) ([]JITCacheRow, error) {
	b, err := specaccel.Find(JITCacheBenchmark)
	if err != nil {
		return nil, fmt.Errorf("jitcache experiment: %w", err)
	}
	var rows []JITCacheRow
	for _, pass := range []string{"cold", "warm"} {
		cache, err := nvbit.NewJITCache(dir, 0)
		if err != nil {
			return nil, err
		}
		_, nv, err := run(instrcount.New(), func(ctx *driver.Context) error { return b.Run(ctx, size) }, nvbit.WithJITCache(cache))
		if err != nil {
			return nil, fmt.Errorf("jitcache experiment: %s run: %w", pass, err)
		}
		st := nv.JITStats()
		comps, _ := st.Components()
		row := JITCacheRow{
			Run:      pass,
			Total:    st.Total(),
			Lookups:  st.CacheLookups,
			Hits:     st.CacheHits,
			Misses:   st.CacheMisses,
			HitRatio: st.CacheHitRatio(),
		}
		for i, c := range comps {
			if st.Total() > 0 {
				row.Pct[i] = 100 * float64(c) / float64(st.Total())
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderJITCache formats the cold/warm table.
func RenderJITCache(rows []JITCacheRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Instrumentation cache: cold vs warm %s JIT-phase breakdown (%% of JIT time)\n", JITCacheBenchmark)
	fmt.Fprintf(&b, "%-5s %9s %9s %9s %9s %9s %9s %9s %9s %10s %6s/%s %7s\n",
		"run", "retrieve", "disasm", "convert", "usercode", "codegen", "swap", "lookup", "hit", "jit-total", "hits", "lookups", "ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %10v %6d/%-6d %6.1f%%\n",
			r.Run, r.Pct[0], r.Pct[1], r.Pct[2], r.Pct[3], r.Pct[4], r.Pct[5], r.Pct[6], r.Pct[7],
			r.Total.Round(time.Microsecond), r.Hits, r.Lookups, 100*r.HitRatio)
	}
	return b.String()
}
