package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nvbitgo/internal/ptx"
	"nvbitgo/internal/sass"
)

func testEnv(t *testing.T, iters int) *env {
	t.Helper()
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	return &env{seed: 1, iters: iters, procs: 2, tmp: t.TempDir(), golden: g}
}

// TestGenerator: one seed gives byte-identical sources, two seeds differ,
// and every kernel compiles for both encodings and retires at n=0 after the
// seven instructions up to the bounds check.
func TestGenerator(t *testing.T) {
	a, b, other := generateKernels(7), generateKernels(7), generateKernels(8)
	if len(a) != genKernels {
		t.Fatalf("generated %d kernels, want %d", len(a), genKernels)
	}
	same := true
	total := 0
	for i := range a {
		if a[i].Source != b[i].Source {
			t.Fatalf("kernel %d differs between two runs of seed 7", i)
		}
		same = same && a[i].Source == other[i].Source
		if a[i].Body < genMinBody || a[i].Body > genMaxBody {
			t.Errorf("kernel %d has %d body instructions, want %d..%d", i, a[i].Body, genMinBody, genMaxBody)
		}
		total += a[i].Body
		for _, fam := range []sass.Family{sass.Kepler, sass.Volta} {
			if _, err := ptx.Compile(a[i].Name, a[i].Source, fam); err != nil {
				t.Fatalf("kernel %d for %v: %v", i, fam, err)
			}
		}
	}
	if same {
		t.Error("seeds 7 and 8 generated the same kernels")
	}
	otherTotal := 0
	for _, k := range other {
		otherTotal += k.Body
	}
	if total != otherTotal {
		t.Errorf("seed 7 generated %d body instructions, seed 8 %d; the sizes must not depend on the seed", total, otherTotal)
	}

	app := &jitApp{e: testEnv(t, 1), kernels: a}
	r, err := app.run(scope{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(7 * genKernels); r.st.WarpInstrs != want {
		t.Errorf("n=0 launches issued %d warp instructions, want %d (each warp exits at the bounds check)", r.st.WarpInstrs, want)
	}
}

// TestSelfTimes: a span's self time is its duration minus what its children
// cover, with overlapping children counted once and clipped to the parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Layer: layerGPU, Parent: 0, Start: 10, End: 40},
		{Name: "b", Layer: layerGPU, Parent: 0, Start: 30, End: 60},   // overlaps a by 10
		{Name: "c", Layer: layerCore, Parent: 0, Start: 90, End: 120}, // runs past the parent
		{Name: "a1", Layer: layerSASS, Parent: 1, Start: 15, End: 25},
	}
	want := []int64{100 - 50 - 10, 30 - 10, 30, 30, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	byLayer, _ := layerSelf(spans)
	if byLayer[layerGPU] != 50 || byLayer[layerNone] != 40 || byLayer[layerSASS] != 10 {
		t.Errorf("layer self times %v", byLayer)
	}
	m := metrics{}
	spanShares(m, spans)
	if m["gpu.share_pct"] != 50 || m["host.unattributed_pct"] != 40 {
		t.Errorf("shares %v", m)
	}
}

// TestTracerNesting: spans recorded through scopes carry their parent and
// iteration, and the untraced scope records nothing.
func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	sc, done := tr.root(3)
	sc.do(layerPTX, "outer", func(s scope) error {
		return s.do(layerSASS, "inner", func(scope) error { return nil })
	})
	done()
	if len(tr.spans) != 3 || tr.spans[2].Parent != 1 || tr.spans[1].Parent != 0 || tr.spans[2].Iter != 3 {
		t.Fatalf("spans %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	var none *tracer
	sc, done = none.root(0)
	ran := false
	sc.do(layerPTX, "x", func(scope) error { ran = true; return nil })
	done()
	if !ran {
		t.Error("the untraced scope did not run the call")
	}
}

func TestPercentiles(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	if got := median(s); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(s, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := percentile(s, 25); got != 2 {
		t.Errorf("p25 = %v, want 2", got)
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{3, 50}, {19, 50}, {20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func writeRunFile(t *testing.T, name string, iterMs, opsPerS float64, correct bool) string {
	t.Helper()
	f := runFile{Seed: 1, Seconds: 8, Workloads: map[string]*workloadRun{"jit_cold": {
		Correct: correct, Attempted: 10,
		EndToEnd: metrics{"setup_s": 1, "iter_ms_p50": iterMs, "ops_per_s": opsPerS, "alloc_mb_per_iter": 5, "sim_slowdown_x": 60}.render(endToEndDefs()),
		PerLayer: metrics{"gpu.sim_cycles_native": 440}.render(perLayer),
	}}}
	data, err := json.Marshal(&f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompare: past a bound is a regression in either direction of
// "better"; within it, or an improvement, is not; a failed check always is.
func TestCompare(t *testing.T) {
	base := writeRunFile(t, "old.json", 100, 10, true)
	bound := map[string]float64{}
	for _, d := range endToEnd {
		bound[d.Name] = d.Bound
	}
	slower := 100 * (1 + bound["iter_ms_p50"])
	fewer := 10 * (1 - bound["ops_per_s"])
	for _, c := range []struct {
		name            string
		iterMs, opsPerS float64
		correct         bool
		regressed       bool
	}{
		{"same", 100, 10, true, false},
		{"within bound", slower - 1, fewer + 0.1, true, false},
		{"faster", 50, 20, true, false},
		{"slower iteration", slower + 1, 10, true, true},
		{"lower throughput", 100, fewer - 0.1, true, true},
		{"failed checks", 100, 10, false, true},
	} {
		var out bytes.Buffer
		got, err := compareFiles(&out, base, writeRunFile(t, "new.json", c.iterMs, c.opsPerS, c.correct))
		if err != nil {
			t.Fatal(err)
		}
		if got != c.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", c.name, got, c.regressed, out.String())
		}
		if rows := strings.Count(out.String(), "jit_cold"); rows < len(endToEnd)+len(perLayer) {
			t.Errorf("%s: %d rows, want one per metric", c.name, rows)
		}
	}
}

// TestBenchmarkJSON: the contract file at the repository root is the one
// the tables in this package generate.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(data)) != benchmarkJSON() {
		t.Error("BENCHMARK.json is stale: regenerate it with `bash bench/run.sh -benchmark-json > BENCHMARK.json`")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) > 8 {
		t.Error("more metrics or workloads than the contract allows")
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: its reason is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
}

// TestCorruptGolden: one wrong golden hash fails the run.
func TestCorruptGolden(t *testing.T) {
	e := testEnv(t, 1)
	entry := e.golden.Spec["small"]["cg"]
	entry.SHA256 = strings.Map(func(r rune) rune { return '0' + ('9'-r)%10 }, entry.SHA256[:1]) + entry.SHA256[1:]
	e.golden.Spec["small"]["cg"] = entry
	inst, err := setupSpecInstr(e)
	if err != nil {
		t.Fatal(err)
	}
	inst.close()
	if e.checkFailures != 1 {
		t.Errorf("a corrupted golden hash produced %d check failures, want 1", e.checkFailures)
	}
}

// TestWorkloads runs every workload for one iteration untraced, and the
// cheapest one traced with the probe panel behind it, and checks each
// passes its own output checks and reports every declared metric.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once: about twenty seconds")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := measure(w, testEnv(t, 1), false, "")
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEndDefs(), true)
		})
	}
	t.Run("traced", func(t *testing.T) {
		spans := filepath.Join(t.TempDir(), "spans.json")
		res, err := measure(findWorkload("jit_warm"), testEnv(t, 2), true, spans)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res, perLayer, false)
		if res.Metrics["jitcache.hit_pct"].Value != 100 {
			t.Errorf("warm probe hit %v%% of its lookups, want 100", res.Metrics["jitcache.hit_pct"].Value)
		}
		var recorded []span
		data, err := os.ReadFile(spans)
		if err == nil {
			err = json.Unmarshal(data, &recorded)
		}
		if err != nil || len(recorded) == 0 {
			t.Errorf("trace file: %d spans, %v", len(recorded), err)
		}
	})
}

func checkResult(t *testing.T, res *result, defs []metricDef, nonZero bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok || v.Unit != d.Unit || (nonZero && v.Value <= 0) {
			t.Errorf("metric %s: %+v (reported %v)", d.Name, v, ok)
		}
	}
}
