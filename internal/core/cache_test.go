package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/jitcache"
	"nvbitgo/internal/sass"
)

// cacheRun is one full attach→instrument→launch cycle against the given
// cache: a fresh device and framework instance every time, so a second call
// with a fresh cache instance over the same directory models a second
// process reusing the persistent tier.
type cacheRunResult struct {
	env     *testEnv
	count   uint64
	results []uint32
}

func cacheRun(t *testing.T, cache *jitcache.Cache, fullSave bool, sites func(idx int) bool) cacheRunResult {
	t.Helper()
	var ctr uint64
	tool := &testTool{}
	mode := InjectTrampoline
	if fullSave {
		mode = InjectFullSave
	}
	env := setup(t, sass.Volta, tool, WithJITCache(cache), WithInjectionMode(mode))
	ctr, err := env.nv.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	tool.onLaunch = func(n *NVBit, p *driver.CallParams) {
		f := p.Launch.Func
		if n.IsInstrumented(f) {
			return
		}
		insts, err := n.GetInstrs(f)
		if err != nil {
			t.Error(err)
			return
		}
		for _, i := range insts {
			if sites != nil && !sites(i.Idx()) {
				continue
			}
			n.InsertCallArgs(i, "tally", IPointBefore, ArgConst64(ctr))
		}
	}
	env.launch(t)
	count, err := env.nv.ReadU64(ctr)
	if err != nil {
		t.Fatal(err)
	}
	return cacheRunResult{env: env, count: count, results: env.results(t)}
}

func newDiskCache(t *testing.T, dir string) *jitcache.Cache {
	t.Helper()
	c, err := jitcache.New(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func sameResults(t *testing.T, what string, a, b []uint32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: result lengths diverge: %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: result[%d] = %d, want %d", what, i, b[i], a[i])
		}
	}
}

// TestCacheWarmAttachSkipsCodegen is the headline contract: a second attach
// through a fresh cache instance over the same directory (a second process,
// effectively) misses nothing, spends zero time in codegen, materializes all
// trampolines from cached artifacts, and produces identical tool output and
// kernel results.
func TestCacheWarmAttachSkipsCodegen(t *testing.T) {
	dir := t.TempDir()

	cold := cacheRun(t, newDiskCache(t, dir), false, nil)
	coldStats := cold.env.nv.JITStats()
	if coldStats.CacheMisses == 0 {
		t.Fatal("cold run reported no cache misses")
	}
	if coldStats.CacheBytesWritten == 0 {
		t.Fatal("cold run wrote no bytes to the disk tier")
	}

	warmCache := newDiskCache(t, dir)
	warm := cacheRun(t, warmCache, false, nil)
	warmStats := warm.env.nv.JITStats()

	if warmStats.CacheMisses != 0 {
		t.Fatalf("warm run missed %d times, want 0", warmStats.CacheMisses)
	}
	if warmStats.CacheLookups == 0 || warmStats.CacheHits != warmStats.CacheLookups {
		t.Fatalf("warm run hits/lookups = %d/%d, want all lookups to hit",
			warmStats.CacheHits, warmStats.CacheLookups)
	}
	comps, labels := warmStats.Components()
	if labels[4] != "codegen" {
		t.Fatalf("component 4 is %q, want codegen", labels[4])
	}
	if comps[4] != 0 {
		t.Fatalf("warm run spent %v in codegen, want exactly 0", comps[4])
	}
	if warmStats.TrampolinesEmitted == 0 {
		t.Fatal("warm run materialized no trampolines from cache")
	}
	if st := warmCache.Stats(); st.DiskHits == 0 {
		t.Fatalf("warm cache instance served no disk hits: %+v", st)
	}
	if cold.count != warm.count {
		t.Fatalf("instruction counts diverge: cold %d, warm %d", cold.count, warm.count)
	}
	sameResults(t, "warm vs cold", cold.results, warm.results)
}

// TestCacheCorruptDiskEntriesFallBack flips one byte in every persisted
// object between a cold and a warm run. The warm run must detect the
// corruption (checksum), evict the damaged entries, regenerate, and still
// produce identical results — corruption can cost time, never correctness.
func TestCacheCorruptDiskEntriesFallBack(t *testing.T) {
	dir := t.TempDir()

	cold := cacheRun(t, newDiskCache(t, dir), false, nil)

	objects, err := filepath.Glob(filepath.Join(dir, "objects", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(objects) == 0 {
		t.Fatal("cold run persisted no objects")
	}
	for _, path := range objects {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Flip a payload bit when the entry has one, a header bit otherwise.
		idx := len(raw) - 1
		if len(raw) > 50 {
			idx = 50
		}
		raw[idx] ^= 0x20
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	warmCache := newDiskCache(t, dir)
	warm := cacheRun(t, warmCache, false, nil)
	warmStats := warm.env.nv.JITStats()

	st := warmCache.Stats()
	if st.CorruptEvicted == 0 {
		t.Fatalf("no corrupt entries evicted: %+v", st)
	}
	if warmStats.CacheMisses == 0 {
		t.Fatal("corrupted entries were served as hits")
	}
	if cold.count != warm.count {
		t.Fatalf("instruction counts diverge after corruption: cold %d, warm %d", cold.count, warm.count)
	}
	sameResults(t, "corrupt-fallback", cold.results, warm.results)

	// The regenerated objects must be valid again: a third run hits cleanly.
	third := cacheRun(t, newDiskCache(t, dir), false, nil)
	if s := third.env.nv.JITStats(); s.CacheMisses != 0 {
		t.Fatalf("post-repair run missed %d times, want 0", s.CacheMisses)
	}
	if cold.count != third.count {
		t.Fatalf("post-repair count %d, want %d", third.count, cold.count)
	}
}

// TestCacheFullSaveNeverServedLivenessArtifact pins the key invariant for
// the full-save mode: artifacts generated with liveness-minimal save sets are
// unreachable from a full-save attach (and vice versa) because the flag is
// part of the code-object fingerprint. A stale liveness artifact served to a
// full-save run would silently under-save — this test makes that a miss by
// construction.
func TestCacheFullSaveNeverServedLivenessArtifact(t *testing.T) {
	dir := t.TempDir()

	minimal := cacheRun(t, newDiskCache(t, dir), false, nil)
	minStats := minimal.env.nv.JITStats()
	regsPerThread := minimal.env.nv.hal.RegsPerThread
	if minStats.AvgSavedRegs() >= float64(regsPerThread) {
		t.Fatalf("liveness run saved %.1f regs/site, want below the full file (%d)",
			minStats.AvgSavedRegs(), regsPerThread)
	}

	// Full-save attach against the liveness-populated directory: every
	// trampoline must be freshly generated.
	full := cacheRun(t, newDiskCache(t, dir), true, nil)
	fullStats := full.env.nv.JITStats()
	if fullStats.CodeGen == 0 {
		t.Fatal("full-save run was served from the liveness cache, want fresh code generation")
	}
	// One bracket per visit here (before-calls only), each saving the file.
	if got := float64(fullStats.SavedRegs) / float64(fullStats.Visits); got != float64(regsPerThread) {
		t.Fatalf("full-save run saved %.1f regs/visit, want the full file (%d)", got, regsPerThread)
	}
	if minimal.count != full.count {
		t.Fatalf("instruction counts diverge: minimal %d, full %d", minimal.count, full.count)
	}
	sameResults(t, "full vs minimal", minimal.results, full.results)

	// A second full-save run now hits its own artifact — and still reports
	// full-file save sets, proving the cached artifact preserved them.
	fullWarm := cacheRun(t, newDiskCache(t, dir), true, nil)
	fwStats := fullWarm.env.nv.JITStats()
	if fwStats.CodeGen != 0 {
		t.Fatal("second full-save run did not hit the full-save artifact")
	}
	if got := float64(fwStats.SavedRegs) / float64(fwStats.Visits); got != float64(regsPerThread) {
		t.Fatalf("cached full-save artifact saved %.1f regs/visit, want %d", got, regsPerThread)
	}
	if full.count != fullWarm.count {
		t.Fatalf("counts diverge between full-save runs: %d vs %d", full.count, fullWarm.count)
	}
}

// TestCacheVersionSkewRegenerates is the mixed-version regression test for
// the artifactVersion bump: an artifact serialized under an older codec
// version but reachable under the current key (a version-skewed writer) must
// decode-fail into a miss at BOTH cache tiers — memory LRU and disk — and
// regenerate, never hard-error the attach. Ordinary skew is unreachable by
// key rotation (artifactVersion is hashed into every key); this test plants
// the blob under the live key to exercise the decode-mismatch safety net
// behind it.
func TestCacheVersionSkewRegenerates(t *testing.T) {
	dir := t.TempDir()

	// Baseline: populate the cache and record ground-truth output.
	cold := cacheRun(t, newDiskCache(t, dir), false, nil)
	fs := cold.env.nv.funcs[cold.env.fn]
	if fs == nil {
		t.Fatal("cold run left no funcState for the kernel")
	}
	key := cold.env.nv.codeKey(fs)

	// A minimal well-formed blob of the previous codec: version 2, zero tool
	// names, zero sites. It passes the store's integrity checksum (Put
	// recomputes it) but must fail the artifact codec's version check.
	v1 := func() []byte {
		b := binary.LittleEndian.AppendUint32(nil, artifactVersion-1)
		return append(b, 0, 0, 0, 0, 0, 0, 0, 0)
	}

	// Memory tier: Put seeds both the seeding instance's LRU and the disk;
	// reusing the same instance makes the lookup hit in memory first.
	memCache := newDiskCache(t, dir)
	if err := memCache.Put(key, v1()); err != nil {
		t.Fatal(err)
	}
	mem := cacheRun(t, memCache, false, nil)
	memStats := mem.env.nv.JITStats()
	if memStats.CacheMisses == 0 {
		t.Fatal("v1 artifact in the memory tier was served as a usable hit")
	}
	if memStats.CodeGen == 0 {
		t.Fatal("trampolines materialized from a version-skewed artifact, want fresh code generation")
	}
	if cold.count != mem.count {
		t.Fatalf("counts diverge after memory-tier skew: cold %d, skewed %d", cold.count, mem.count)
	}
	sameResults(t, "memory-tier skew", cold.results, mem.results)

	// Disk tier: seed through one instance, read through a fresh one whose
	// memory LRU is empty, so the skewed blob is served from disk.
	if err := newDiskCache(t, dir).Put(key, v1()); err != nil {
		t.Fatal(err)
	}
	disk := cacheRun(t, newDiskCache(t, dir), false, nil)
	diskStats := disk.env.nv.JITStats()
	if diskStats.CacheMisses == 0 {
		t.Fatal("v1 artifact in the disk tier was served as a usable hit")
	}
	if diskStats.CodeGen == 0 {
		t.Fatal("trampolines materialized from a version-skewed disk artifact, want fresh code generation")
	}
	if cold.count != disk.count {
		t.Fatalf("counts diverge after disk-tier skew: cold %d, skewed %d", cold.count, disk.count)
	}
	sameResults(t, "disk-tier skew", cold.results, disk.results)

	// The skewed entry was evicted on first decode failure; it must not have
	// been rewritten in the old format. A final fresh-instance run can miss
	// (the fallback regeneration does not re-populate) but must never see a
	// version error — and still matches.
	final := cacheRun(t, newDiskCache(t, dir), false, nil)
	if cold.count != final.count {
		t.Fatalf("counts diverge on post-skew run: cold %d, final %d", cold.count, final.count)
	}
	sameResults(t, "post-skew", cold.results, final.results)
}

// TestCachePlanChangeMisses: a different instrumentation plan over the same
// function must miss the cache (the plan is hashed site by site, argument by
// argument) and leave a second object beside the first.
func TestCachePlanChangeMisses(t *testing.T) {
	dir := t.TempDir()

	all := cacheRun(t, newDiskCache(t, dir), false, nil)

	evenCache := newDiskCache(t, dir)
	even := cacheRun(t, evenCache, false, func(idx int) bool { return idx%2 == 0 })
	evenStats := even.env.nv.JITStats()
	if evenStats.CodeGen == 0 || evenStats.CacheHits != 0 {
		t.Fatalf("changed plan was served from cache, want fresh code generation: %+v", evenStats)
	}
	// The modules compiled for the first run are the same, and only they hit.
	if evenStats.ModuleLookups == 0 || evenStats.ModuleHits != evenStats.ModuleLookups {
		t.Fatalf("changed plan: %d of %d modules reused, want all", evenStats.ModuleHits, evenStats.ModuleLookups)
	}
	if st := evenCache.Stats(); st.DiskHits != uint64(evenStats.ModuleHits) || st.Generations != 1 {
		t.Fatalf("changed plan: %+v, want a disk hit per module and one generation", st)
	}
	if even.count == 0 || even.count >= all.count {
		t.Fatalf("even-site count %d, want nonzero and below all-site count %d", even.count, all.count)
	}
	sameResults(t, "plan-change", all.results, even.results)
}

// staleKey is where the binary before this one kept the disassembly of
// workPTX's kernel on Volta: a second object kind under its own key domain,
// which nothing derives any more.
const staleKey = "043319f8f52bed0e5f64627af1f79a8c5c35222a22d3810d53e996d748221396"

// TestCacheOneObjectPerFunction: the cache holds one object per instrumented
// function and one per compiled module, and is asked once per instrumented
// function and once per PTX compile, cold and warm. A warm attach still
// disassembles (Disassemble > 0), and compiles and generates nothing; an
// object a previous binary left under a key of its own is neither read nor
// removed.
func TestCacheOneObjectPerFunction(t *testing.T) {
	dir := t.TempDir()
	var stale jitcache.Key
	if _, err := hex.Decode(stale[:], []byte(staleKey)); err != nil {
		t.Fatal(err)
	}
	if err := newDiskCache(t, dir).Put(stale, []byte("left by an older binary")); err != nil {
		t.Fatal(err)
	}
	stalePath := filepath.Join(dir, "objects", staleKey)
	staleBytes, err := os.ReadFile(stalePath)
	if err != nil {
		t.Fatal(err)
	}

	instrumented := func(n *NVBit) (k int) {
		for _, fs := range n.funcs {
			if fs.instrumented {
				k++
			}
		}
		return k
	}
	coldCache := newDiskCache(t, dir)
	cold := cacheRun(t, coldCache, false, nil)
	cs, funcs := cold.env.nv.JITStats(), instrumented(cold.env.nv)
	if funcs == 0 || cs.CacheLookups != funcs || cs.CacheMisses != funcs || cs.CacheHits != 0 {
		t.Fatalf("cold: %d instrumented functions, %d lookups, %d misses, %d hits", funcs, cs.CacheLookups, cs.CacheMisses, cs.CacheHits)
	}
	// The application's module and the tool's.
	const modules = 2
	if cs.ModuleLookups != modules || cs.ModuleCompiles != modules || cs.ModuleHits != 0 {
		t.Fatalf("cold: %d module lookups, %d compiles, %d hits, want %d/%d/0", cs.ModuleLookups, cs.ModuleCompiles, cs.ModuleHits, modules, modules)
	}
	objs := funcs + modules
	coldStats := coldCache.Stats()
	if coldStats.Lookups != uint64(objs) || coldStats.Generations != uint64(objs) {
		t.Fatalf("cold cache: %+v, want %d lookups and generations", coldStats, objs)
	}
	objects, err := filepath.Glob(filepath.Join(dir, "objects", "*"))
	if err != nil || len(objects) != objs+1 {
		t.Fatalf("%d files under objects/ (%v), want %d and the stale one", len(objects), err, objs)
	}

	warmCache := newDiskCache(t, dir)
	warm := cacheRun(t, warmCache, false, nil)
	ws := warm.env.nv.JITStats()
	if ws.CacheLookups != funcs || ws.CacheHits != funcs || ws.CacheMisses != 0 {
		t.Fatalf("warm: %d lookups, %d hits, %d misses, want %d/%d/0", ws.CacheLookups, ws.CacheHits, ws.CacheMisses, funcs, funcs)
	}
	if ws.ModuleLookups != modules || ws.ModuleHits != modules || ws.ModuleCompiles != 0 {
		t.Fatalf("warm: %d module lookups, %d hits, %d compiles, want %d/%d/0", ws.ModuleLookups, ws.ModuleHits, ws.ModuleCompiles, modules, modules)
	}
	if ws.CodeGen != 0 || ws.Disassemble <= 0 {
		t.Fatalf("warm: CodeGen %v, Disassemble %v, want 0 and > 0", ws.CodeGen, ws.Disassemble)
	}
	// The warm run reads back exactly what the cold one wrote, of which the
	// artifacts are what JITStats counts.
	st := warmCache.Stats()
	if st.Lookups != uint64(objs) || st.DiskHits != uint64(objs) || st.BytesRead != coldStats.BytesWritten || st.CorruptEvicted != 0 {
		t.Fatalf("warm cache: %+v, want %d lookups, all disk hits of %d bytes", st, objs, coldStats.BytesWritten)
	}
	if ws.CacheBytesRead != cs.CacheBytesWritten {
		t.Fatalf("warm run read %d artifact bytes, the cold run wrote %d", ws.CacheBytesRead, cs.CacheBytesWritten)
	}
	if cold.count != warm.count {
		t.Fatalf("instruction counts diverge: cold %d, warm %d", cold.count, warm.count)
	}
	if now, err := os.ReadFile(stalePath); err != nil || !bytes.Equal(now, staleBytes) {
		t.Fatalf("stale object changed or gone: %v", err)
	}
}

// TestCacheModuleKey: a compiled module is served only to a compile of the
// same PTX text, module name and family; any other compile misses, and the
// first compile still hits afterwards. Loads compile through the cache only
// while an attachment with one is bound to the scope.
func TestCacheModuleKey(t *testing.T) {
	dir := t.TempDir()
	load := func(fam sass.Family, name, src string, opts ...Option) JITStats {
		t.Helper()
		api, err := driver.New(gpu.DefaultConfig(fam))
		if err != nil {
			t.Fatal(err)
		}
		defer api.Close()
		s, err := OpenSession(api, &testTool{}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Ctx().ModuleLoadPTX(name, src); err != nil {
			t.Fatal(err)
		}
		// After the session ends its context compiles uncached.
		js := s.NVBit().JITStats()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Ctx().ModuleLoadPTX(name, src); err != nil {
			t.Fatal(err)
		}
		if after := s.NVBit().JITStats(); after.ModuleLookups != js.ModuleLookups {
			t.Errorf("%d module lookups after the session closed, %d before", after.ModuleLookups, js.ModuleLookups)
		}
		return js
	}
	other := strings.Replace(workPTX, "mov.u32", "mov.u32 ", 1) // the same code from other text
	for _, c := range []struct {
		what      string
		fam       sass.Family
		name, src string
		hit       bool
	}{
		{"first compile", sass.Volta, "app.ptx", workPTX, false},
		{"same compile", sass.Volta, "app.ptx", workPTX, true},
		{"other text", sass.Volta, "app.ptx", other, false},
		{"other name", sass.Volta, "lib.ptx", workPTX, false},
		{"other family", sass.Kepler, "app.ptx", workPTX, false},
		{"first compile again", sass.Volta, "app.ptx", workPTX, true},
	} {
		js := load(c.fam, c.name, c.src, WithJITCache(newDiskCache(t, dir)))
		if js.ModuleLookups != 1 || (js.ModuleHits == 1) != c.hit || js.ModuleHits+js.ModuleCompiles != 1 {
			t.Errorf("%s: %d lookups, %d hits, %d compiles, want a hit: %v", c.what, js.ModuleLookups, js.ModuleHits, js.ModuleCompiles, c.hit)
		}
	}
	if js := load(sass.Volta, "app.ptx", workPTX); js.ModuleLookups != 0 {
		t.Errorf("an attachment without a cache counted %d module lookups", js.ModuleLookups)
	}
}
