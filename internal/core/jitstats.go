package core

import "time"

// JITStats is the breakdown of JIT-compilation overhead. Components 1–6 are
// the paper's Section 5.2 phases:
//
//  1. retrieving the original GPU code,
//  2. disassembling the GPU program,
//  3. converting the binary into the format presented via the NVBit API,
//  4. executing the user's C/C++ (here: Go) tool code that injects
//     instrumentation,
//  5. running the Code Generator to produce the final instrumented code,
//  6. swapping the original code with the instrumented code.
//
// Components 1–3 and 6 depend on the application's code size; 4 and 5 on how
// much of it is instrumented. With an instrumentation cache attached
// (WithJITCache) two more components appear:
//
//  7. cache_lookup — deriving content fingerprints and probing the cache
//     (paid on every launch-time JIT, hit or miss),
//  8. cache_hit — decoding cached artifacts and materializing them on the
//     device; on a fully warm run this replaces phases 2, 3 and 5, which
//     drop to (near) zero.
type JITStats struct {
	Retrieve    time.Duration // (1)
	Disassemble time.Duration // (2)
	Convert     time.Duration // (3)
	UserCode    time.Duration // (4)
	CodeGen     time.Duration // (5)
	Swap        time.Duration // (6)
	CacheLookup time.Duration // (7) zero without a cache
	CacheHit    time.Duration // (8) zero without a cache

	FunctionsLifted int
	InstrsLifted    int
	// TrampolinesEmitted counts instrumented sites served by a trampoline;
	// Visits counts the trampolines themselves (the jumps patched into the
	// function). One visit serves a straight-line run of sites, so Visits ≤
	// TrampolinesEmitted, with equality when no call could move.
	TrampolinesEmitted int
	Visits             int
	TrampolineWords    int // total instruction words across emitted trampolines
	// SavedRegs totals the save-set registers of every save/restore bracket
	// emitted: a visit has one bracket, or two when calls stay both before
	// and after its first instruction.
	SavedRegs int
	// InlinedSites / InlineWords count the sites of the visits materialized
	// through the inline-injection strategy (InjectInline) and those visits'
	// total instruction words. Inline sites save no registers and are
	// deliberately kept out of TrampolinesEmitted / Visits / TrampolineWords
	// / SavedRegs, so AvgSavedRegs keeps meaning "registers saved per
	// trampoline-served site" when both kinds coexist.
	InlinedSites int
	InlineWords  int
	SwapBytes    int

	// Instrumentation-cache counters (all zero without WithJITCache). There
	// is one lookup per instrumented function, for its code artifact.
	CacheLookups      int
	CacheHits         int
	CacheMisses       int
	CacheBytesRead    int // artifact bytes served from the cache
	CacheBytesWritten int // artifact bytes stored into the cache

	// Compiled-module counters (all zero without WithJITCache), kept apart
	// from the instrumentation counters above: with a cache the scope's PTX
	// loads and the tool's functions compile through it (compileModule).
	// Every PTX compile is a lookup, and is served from the cache
	// (ModuleHits) or compiled (ModuleCompiles).
	ModuleLookups  int
	ModuleHits     int
	ModuleCompiles int
}

// AvgSavedRegs returns the save-set registers emitted per site a trampoline
// serves — the static per-site cost that liveness sizing (paper Section 5.1)
// and visit coalescing both lower: a bracket's registers are charged once and
// shared by every site of its visit — or 0 when no trampolines were emitted.
// Inline sites save nothing and are excluded from the denominator: an
// all-inline run reports 0, not a division artifact.
func (s JITStats) AvgSavedRegs() float64 {
	if s.TrampolinesEmitted == 0 {
		return 0
	}
	return float64(s.SavedRegs) / float64(s.TrampolinesEmitted)
}

// SitesPerVisit returns the mean number of instrumented sites one trampoline
// serves, or 0 when no trampolines were emitted.
func (s JITStats) SitesPerVisit() float64 {
	if s.Visits == 0 {
		return 0
	}
	return float64(s.TrampolinesEmitted) / float64(s.Visits)
}

// CacheHitRatio returns CacheHits/CacheLookups, or 0 before the first
// lookup.
func (s JITStats) CacheHitRatio() float64 {
	if s.CacheLookups == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.CacheLookups)
}

// Total returns the summed JIT-compilation overhead.
func (s JITStats) Total() time.Duration {
	return s.Retrieve + s.Disassemble + s.Convert + s.UserCode + s.CodeGen + s.Swap +
		s.CacheLookup + s.CacheHit
}

// Components returns the eight durations in execution order with their
// labels.
func (s JITStats) Components() ([8]time.Duration, [8]string) {
	return [8]time.Duration{s.Retrieve, s.Disassemble, s.Convert, s.UserCode, s.CodeGen, s.Swap, s.CacheLookup, s.CacheHit},
		[8]string{"retrieve", "disassemble", "convert", "user-code", "codegen", "swap", "cache_lookup", "cache_hit"}
}

// JITStats returns the accumulated JIT-compilation overhead breakdown.
func (n *NVBit) JITStats() JITStats { return n.stats }
