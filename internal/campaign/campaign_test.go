package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"nvbitgo/internal/gpu"
	"nvbitgo/internal/tools/faultinject"
	"nvbitgo/nvbit"
)

// smallCfg is the victim the fast tests campaign against: ostencil/small is
// one kernel (a 3-tap stencil), two launches of 4 CTAs x 256 threads.
func smallCfg(runs int, seed uint64) Config {
	return Config{
		Benchmark: "ostencil",
		Size:      "small",
		Group:     "gpr",
		Model:     "mix",
		Runs:      runs,
		Seed:      seed,
	}
}

func mustPlan(t *testing.T, dir string, cfg Config) *Campaign {
	t.Helper()
	c, err := Plan(dir, cfg)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	return c
}

func TestPlanSeedReproducible(t *testing.T) {
	cfg := smallCfg(16, 42)
	dirA, dirB := t.TempDir(), t.TempDir()
	mustPlan(t, dirA, cfg)
	mustPlan(t, dirB, cfg)

	a, err := os.ReadFile(filepath.Join(dirA, planName))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dirB, planName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same config produced different plan.json:\n--- A ---\n%s\n--- B ---\n%s", a, b)
	}

	// A different seed must draw a different manifest.
	other := cfg
	other.Seed = 43
	dirC := t.TempDir()
	c := mustPlan(t, dirC, other)
	same := 0
	base := mustLoad(t, dirA)
	for i, spec := range c.Manifest() {
		if spec.Injection == base.Manifest()[i].Injection {
			same++
		}
	}
	if same == len(c.Manifest()) {
		t.Fatalf("seed 42 and 43 drew identical manifests")
	}
}

func mustLoad(t *testing.T, dir string) *Campaign {
	t.Helper()
	c, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return c
}

func TestPlanRefusesExistingDir(t *testing.T) {
	cfg := smallCfg(4, 1)
	dir := t.TempDir()
	mustPlan(t, dir, cfg)
	if _, err := Plan(dir, cfg); err == nil {
		t.Fatalf("Plan over an existing plan succeeded")
	}
}

// TestPlanSpaceMatchesProfile: the golden pass's launch table is the
// campaign's profile; its sum is the space every target is drawn from.
func TestPlanSpaceMatchesProfile(t *testing.T) {
	c := mustPlan(t, t.TempDir(), smallCfg(4, 7))
	var sum uint64
	for _, l := range c.plan.Launches {
		sum += l.Count
	}
	if sum == 0 || sum != c.Space() {
		t.Fatalf("space %d, launch table sum %d", c.Space(), sum)
	}
	for _, spec := range c.Manifest() {
		if spec.Injection.Target >= c.Space() {
			t.Fatalf("run %d target %d outside space %d", spec.ID, spec.Injection.Target, c.Space())
		}
	}
	// ostencil/small launches its one kernel twice, over the same grid of
	// four CTAs.
	if err := checkLaunches(c.plan.Launches, c.Space()); err != nil {
		t.Fatal(err)
	}
	if len(c.plan.Launches) != 2 {
		t.Fatalf("launch table %v, want two launches", c.plan.Launches)
	}
	for _, l := range c.plan.Launches {
		if l.Kernel != "st3" || l.Count != sum/2 || len(l.CTAs) != 4 {
			t.Fatalf("launch table %v, want two launches of st3 counting %d in four CTAs each", c.plan.Launches, sum/2)
		}
	}
}

func TestCheckLaunches(t *testing.T) {
	table := []launch{{"a", 10, []uint64{4, 6}}, {"b", 5, []uint64{5}}, {"a", 20, []uint64{0, 20}}}
	if err := checkLaunches(table, 35); err != nil {
		t.Fatalf("consistent table rejected: %v", err)
	}
	for _, space := range []uint64{0, 34, 36} {
		if err := checkLaunches(table, space); err == nil {
			t.Errorf("table summing to 35 accepted for space %d", space)
		}
	}
	// A launch whose CTA counts are missing, miss its count or wrap to it,
	// and counts that wrap to the space, are refused naming the launch.
	for _, tc := range []struct {
		k int
		l launch
	}{
		{1, launch{"b", 5, nil}},
		{1, launch{"b", 5, []uint64{4}}},
		{2, launch{"a", 20, []uint64{math.MaxUint64, 21}}},
		{2, launch{"a", math.MaxUint64 - 14, []uint64{math.MaxUint64 - 14}}},
	} {
		bad := slices.Clone(table)
		bad[tc.k] = tc.l
		space := uint64(15) + tc.l.Count // the other two launches count 15
		if err := checkLaunches(bad, space); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("launches[%d]", tc.k)) {
			t.Errorf("launch %d = %v: %v", tc.k, tc.l, err)
		}
	}
}

// TestLoadRejectsBadManifest tampers with the manifest of a fresh plan, one
// entry per rule the old per-field check enforced and two that only the
// redraw catches: a flip-config run switched to zero and two runs' targets
// swapped. Each tampered plan must be refused, naming the first run that
// differs, and the untampered ones must load.
func TestLoadRejectsBadManifest(t *testing.T) {
	mix, flip := t.TempDir(), t.TempDir()
	plans := map[string]planFile{"mix": mustPlan(t, mix, smallCfg(8, 3)).plan}
	flipCfg := smallCfg(8, 3)
	flipCfg.Model = "flip"
	plans["flip"] = mustPlan(t, flip, flipCfg).plan
	mustLoad(t, mix)
	mustLoad(t, flip)
	for _, tc := range []struct {
		name, plan string
		tamper     func(m []RunSpec)
	}{
		{"id", "mix", func(m []RunSpec) { m[5].ID++ }},
		{"group", "mix", func(m []RunSpec) { m[5].Injection.Group = faultinject.GroupLD }},
		{"model", "mix", func(m []RunSpec) { m[5].Injection.Model = 7 }},
		{"flip", "mix", func(m []RunSpec) { m[5].Injection.Model, m[5].Injection.Bit = faultinject.ModelFlip, 40 }},
		{"flip2", "mix", func(m []RunSpec) { m[5].Injection.Model, m[5].Injection.Bit = faultinject.ModelFlip2, 31 }},
		{"target", "mix", func(m []RunSpec) { m[5].Injection.Target = plans["mix"].Space }},
		{"zero under flip", "flip", func(m []RunSpec) { m[5].Injection.Model, m[5].Injection.Bit = faultinject.ModelZero, 0 }},
		{"swapped targets", "flip", func(m []RunSpec) {
			m[2].Injection.Target, m[5].Injection.Target = m[5].Injection.Target, m[2].Injection.Target
		}},
	} {
		good := plans[tc.plan]
		plan := good
		plan.Manifest = append([]RunSpec(nil), good.Manifest...)
		tc.tamper(plan.Manifest)
		first := 0
		for plan.Manifest[first] == good.Manifest[first] {
			first++
		}
		dir := t.TempDir()
		data, err := json.MarshalIndent(&plan, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, planName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Load(dir)
		if err == nil || !strings.Contains(err.Error(), planName) ||
			!strings.Contains(err.Error(), fmt.Sprintf("run %d ", plan.Manifest[first].ID)) {
			t.Errorf("%s: Load of a tampered manifest: %v", tc.name, err)
		}
	}
}

// TestTargetLaunch pins the mapping from a run-wide target to (launch, CTA,
// base) at every CTA's first and last index, across an empty launch and an
// empty CTA.
func TestTargetLaunch(t *testing.T) {
	c := &Campaign{plan: planFile{Launches: []launch{
		{"a", 4, []uint64{3, 1}}, {"b", 0, []uint64{0, 0}}, {"a", 3, []uint64{0, 2, 1}}, {"c", 1, []uint64{1}},
	}}}
	for _, tc := range []struct {
		target uint64
		k, cta int
		base   uint64
	}{
		{0, 0, 0, 0}, {2, 0, 0, 0}, {3, 0, 1, 3}, {4, 2, 1, 4}, {5, 2, 1, 4}, {6, 2, 2, 6}, {7, 3, 0, 7},
		{8, 4, 0, 8}, {faultinject.NoTarget, 4, 0, 8},
	} {
		if k, cta, base := c.targetLaunch(tc.target); k != tc.k || cta != tc.cta || base != tc.base {
			t.Errorf("targetLaunch(%d) = %d, %d, %d; want %d, %d, %d", tc.target, k, cta, base, tc.k, tc.cta, tc.base)
		}
	}
}

// matchEveryLaunch re-runs each run with the injector instrumenting every
// launch, the tool's default, and fails the test for every run whose result
// differs from the campaign's, which instrumented the target CTA only.
func matchEveryLaunch(t *testing.T, c *Campaign, workers int) {
	t.Helper()
	got := c.Results()
	if len(got) != len(c.plan.Manifest) {
		t.Fatalf("%d results for %d planned runs", len(got), len(c.plan.Manifest))
	}
	specs := make(chan RunSpec)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range specs {
				want := c.runWith(spec.ID, faultinject.New(spec.Injection))
				if got[spec.ID] != want {
					mu.Lock()
					t.Errorf("%s/%s/%s run %d (%v): target CTA only %+v, every launch %+v",
						c.plan.Config.Benchmark, c.plan.Config.Size, c.plan.Config.Group, spec.ID, spec.Injection, got[spec.ID], want)
					mu.Unlock()
				}
			}
		}()
	}
	for _, spec := range c.plan.Manifest {
		specs <- spec
	}
	close(specs)
	wg.Wait()
}

// TestTargetLaunchOnlyMatchesEveryLaunch is the licence for instrumenting
// one CTA of one launch per run: on single- and multi-kernel victims at
// Small (four CTAs a launch) and on ostencil at Medium (sixteen), every run
// classifies exactly as it does with every launch instrumented — outcome,
// detail and the injection record. (The name predates the CTA cut; it is
// kept so the test's history stays one series.)
func TestTargetLaunchOnlyMatchesEveryLaunch(t *testing.T) {
	runs := 96
	if testing.Short() {
		runs = 48
	}
	type victim struct {
		name, bench, size, group string
		runs                     int
	}
	var victims []victim
	for _, bench := range []string{"ostencil", "olbm", "palm", "cg"} {
		for _, group := range []string{"gpr", "ld"} {
			victims = append(victims, victim{bench + "/" + group, bench, "small", group, runs})
		}
	}
	// A Medium run with every launch instrumented costs about sixteen Small
	// ones.
	victims = append(victims, victim{"ostencil/gpr/medium", "ostencil", "medium", "gpr", runs / 8})
	for _, v := range victims {
		t.Run(v.name, func(t *testing.T) {
			cfg := Config{Benchmark: v.bench, Size: v.size, Group: v.group, Model: "mix", Runs: v.runs, Seed: 5}
			c := mustPlan(t, t.TempDir(), cfg)
			if _, err := c.Run(2, 0); err != nil {
				t.Fatal(err)
			}
			matchEveryLaunch(t, c, 2)
		})
	}
}

// resumeFixture resumes the campaign in testdata/<version>: ostencil Small,
// 8 runs, 3 done, planned and run by an older build. The old results must
// stay as they were, the finished results.json must equal a fresh
// campaign's, and plan.json must not be rewritten. It returns the resumed
// campaign, the fixture's plan.json and a fresh campaign's directory.
func resumeFixture(t *testing.T, version string) (*Campaign, []byte, string) {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{planName, resultsName} {
		data, err := os.ReadFile(filepath.Join("testdata", version, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	plan := fileBytes(t, dir, planName)
	cfg := smallCfg(8, 11)
	c, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if c.Completed() != 3 {
		t.Fatalf("%s campaign has %d completed runs, want 3", version, c.Completed())
	}
	old := c.Results()
	if done, err := c.Run(2, 0); err != nil || done != 5 {
		t.Fatalf("Run: done=%d err=%v, want 5 runs", done, err)
	}
	for i, r := range c.Results()[:3] {
		if r != old[i] {
			t.Fatalf("old result %d changed: %+v -> %+v", i, old[i], r)
		}
	}

	fresh := t.TempDir()
	if _, err := mustPlan(t, fresh, cfg).Run(2, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fileBytes(t, dir, planName), plan) {
		t.Fatalf("Load rewrote the %s plan.json", version)
	}
	if got, want := fileBytes(t, dir, resultsName), fileBytes(t, fresh, resultsName); !bytes.Equal(got, want) {
		t.Fatalf("resumed %s results differ from a fresh campaign's:\n--- resumed ---\n%s\n--- fresh ---\n%s", version, got, want)
	}
	return c, plan, fresh
}

func fileBytes(t *testing.T, dir, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLoadVersion1Plan resumes a campaign a version-1 build planned and
// partly ran (testdata/v1). Load rebuilds the launch table from a fresh
// golden pass, which must sum to the space the version-1 plan recorded.
func TestLoadVersion1Plan(t *testing.T) {
	c, plan, _ := resumeFixture(t, "v1")
	if err := checkLaunches(c.plan.Launches, c.Space()); err != nil || c.Space() != 32768 {
		t.Fatalf("converted launch table %v for version-1 space %d: %v", c.plan.Launches, c.Space(), err)
	}

	// A version-1 plan whose golden pass no longer reproduces is refused.
	bad := t.TempDir()
	tampered := bytes.Replace(plan, []byte(`"golden_sha256": "`), []byte(`"golden_sha256": "0`), 1)
	if err := os.WriteFile(filepath.Join(bad, planName), tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), "golden") {
		t.Fatalf("Load of a version-1 plan with another golden hash: %v", err)
	}
}

// TestLoadVersion2PlanWithProfile resumes a version-2 campaign planned by a
// build that still ran a separate profile pass (testdata/v2), whose plan.json
// carries the per-kernel "profile" this build no longer writes.
func TestLoadVersion2PlanWithProfile(t *testing.T) {
	_, plan, fresh := resumeFixture(t, "v2")
	if !bytes.Contains(plan, []byte(`"profile"`)) {
		t.Fatalf("testdata/v2 plan.json has no profile")
	}
	if bytes.Contains(fileBytes(t, fresh, planName), []byte(`"profile"`)) {
		t.Fatalf("this build wrote a profile into plan.json")
	}
}

// TestInterruptAndResume is the resumability contract: stop a campaign
// mid-flight, reopen the directory, finish, and verify the completed set is
// exactly the manifest with no run lost or duplicated.
func TestInterruptAndResume(t *testing.T) {
	cfg := smallCfg(10, 99)
	dir := t.TempDir()
	c := mustPlan(t, dir, cfg)

	// First leg: only 4 of the 10 planned runs, as if killed mid-campaign.
	done, err := c.Run(2, 4)
	if err != nil {
		t.Fatalf("Run leg 1: %v", err)
	}
	if done != 4 {
		t.Fatalf("leg 1 completed %d runs, want 4", done)
	}

	// Resume from disk in a fresh Campaign, as a new process would.
	r, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if r.Completed() != 4 {
		t.Fatalf("resumed campaign sees %d completed, want 4", r.Completed())
	}
	if missing := r.Missing(); len(missing) != 6 {
		t.Fatalf("resumed campaign sees %d missing, want 6", len(missing))
	}
	done, err = r.Run(2, 0)
	if err != nil {
		t.Fatalf("Run leg 2: %v", err)
	}
	if done != 6 {
		t.Fatalf("leg 2 completed %d runs, want 6", done)
	}

	results := r.Results()
	if len(results) != cfg.Runs {
		t.Fatalf("%d results, want %d", len(results), cfg.Runs)
	}
	for i, res := range results {
		if res.ID != i {
			t.Fatalf("result %d has ID %d: lost or duplicated run", i, res.ID)
		}
		switch res.Outcome {
		case OutcomeMasked, OutcomeSDC, OutcomeDUE:
		default:
			t.Fatalf("run %d has unclassified outcome %q", res.ID, res.Outcome)
		}
	}

	// A further Run is a no-op.
	if done, err := r.Run(2, 0); err != nil || done != 0 {
		t.Fatalf("Run on complete campaign: done=%d err=%v", done, err)
	}
}

// logLines returns results as results.log lines, one JSON result each.
func logLines(t *testing.T, results []RunResult) [][]byte {
	t.Helper()
	var lines [][]byte
	for _, r := range results {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, append(line, '\n'))
	}
	return lines
}

// TestKilledLogResumes: a Run killed mid-campaign leaves results.json as the
// last Run that returned compacted it, and results.log holding what it
// appended since, its last line possibly torn mid-write. Load reads both —
// a run logged twice with the same result is one run, and the torn run is
// still missing — and the resumed campaign finishes with the same
// results.json as an uninterrupted one, and no log.
func TestKilledLogResumes(t *testing.T) {
	cfg := smallCfg(10, 99)
	fresh := t.TempDir()
	if _, err := mustPlan(t, fresh, cfg).Run(2, 0); err != nil {
		t.Fatal(err)
	}
	all := mustLoad(t, fresh).Results()

	dir := t.TempDir()
	c := mustPlan(t, dir, cfg)
	if done, err := c.Run(2, 3); err != nil || done != 3 {
		t.Fatalf("leg 1: done=%d err=%v, want 3", done, err)
	}
	if _, err := os.Stat(filepath.Join(dir, logName)); !os.IsNotExist(err) {
		t.Fatalf("a Run that returned left %s: %v", logName, err)
	}
	// The killed leg appended runs 2 (again, as after a compaction the kill
	// interrupted), 5, 4 and 6, and was killed halfway through run 7's line.
	byID := logLines(t, all)
	killed := bytes.Join([][]byte{byID[2], byID[5], byID[4], byID[6], byID[7][:len(byID[7])/2]}, nil)
	if err := os.WriteFile(filepath.Join(dir, logName), killed, 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustLoad(t, dir)
	var missing []int
	for _, spec := range r.Missing() {
		missing = append(missing, spec.ID)
	}
	if fmt.Sprint(missing) != "[3 7 8 9]" {
		t.Fatalf("resumed campaign misses runs %v, want [3 7 8 9]", missing)
	}
	if done, err := r.Run(2, 0); err != nil || done != 4 {
		t.Fatalf("leg 2: done=%d err=%v, want 4", done, err)
	}
	if got, want := fileBytes(t, dir, resultsName), fileBytes(t, fresh, resultsName); !bytes.Equal(got, want) {
		t.Fatalf("resumed results.json differs from an uninterrupted campaign's:\n--- resumed ---\n%s\n--- fresh ---\n%s", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, logName)); !os.IsNotExist(err) {
		t.Fatalf("compaction left %s: %v", logName, err)
	}
}

// TestResumedKillLoads: a Run resumed from a log that ends in a torn line,
// and killed again before it compacts, leaves a log Load still takes — its
// first append cut the torn line off instead of extending it into a
// malformed one — and the campaign still finishes with the same results.json
// as an uninterrupted one.
func TestResumedKillLoads(t *testing.T) {
	cfg := smallCfg(6, 99)
	fresh := t.TempDir()
	if _, err := mustPlan(t, fresh, cfg).Run(2, 0); err != nil {
		t.Fatal(err)
	}
	all := mustLoad(t, fresh).Results()
	byID := logLines(t, all)

	dir := t.TempDir()
	mustPlan(t, dir, cfg)
	// The first kill left runs 0 and 1 and half of run 2's line.
	killed := bytes.Join([][]byte{byID[0], byID[1], byID[2][:len(byID[2])/2]}, nil)
	if err := os.WriteFile(filepath.Join(dir, logName), killed, 0o644); err != nil {
		t.Fatal(err)
	}
	// The resumed Run records runs 2 and 3 and is killed before it compacts.
	r := mustLoad(t, dir)
	for _, res := range all[2:4] {
		if err := r.record(res); err != nil {
			t.Fatal(err)
		}
	}
	r.log.Close()
	if got, want := fileBytes(t, dir, logName), bytes.Join(byID[:4], nil); !bytes.Equal(got, want) {
		t.Fatalf("log after the second kill:\n%s\nwant:\n%s", got, want)
	}

	r = mustLoad(t, dir)
	if n := r.Completed(); n != 4 {
		t.Fatalf("after the second kill Load found %d completed runs, want 4", n)
	}
	if done, err := r.Run(2, 0); err != nil || done != 2 {
		t.Fatalf("last leg: done=%d err=%v, want 2", done, err)
	}
	if got, want := fileBytes(t, dir, resultsName), fileBytes(t, fresh, resultsName); !bytes.Equal(got, want) {
		t.Fatalf("results.json after two kills differs from an uninterrupted campaign's:\n--- resumed ---\n%s\n--- fresh ---\n%s", got, want)
	}
}

// TestLoadRefusesBadLog: a complete log line Load cannot take — malformed,
// outside the manifest, or a second, different result for a run — refuses
// the directory with an error naming results.log and the line.
func TestLoadRefusesBadLog(t *testing.T) {
	cfg := smallCfg(4, 5)
	src := t.TempDir()
	if _, err := mustPlan(t, src, cfg).Run(2, 2); err != nil {
		t.Fatal(err)
	}
	done := mustLoad(t, src).Results()
	other := done[0]
	other.Outcome = OutcomeDUE
	if other == done[0] {
		other.Outcome = OutcomeSDC
	}
	outside := done[0]
	outside.ID = 4
	for name, tc := range map[string]struct {
		log  []byte
		want string
	}{
		"malformed":  {[]byte("{\"id\": 3,\n"), "results.log: line 1"},
		"not-json":   {append(logLines(t, done[1:])[0], "}\n"...), "results.log: line 2"},
		"outside":    {logLines(t, []RunResult{outside})[0], "results.log: line 1: result for run 4 outside manifest"},
		"conflict":   {logLines(t, []RunResult{other})[0], "results.log: line 1: run 0 recorded as"},
		"self-clash": {bytes.Join(append(logLines(t, []RunResult{{ID: 3, Outcome: OutcomeMasked}}), logLines(t, []RunResult{{ID: 3, Outcome: OutcomeSDC}})...), nil), "results.log: line 2: run 3"},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for _, f := range []string{planName, resultsName} {
				if err := os.WriteFile(filepath.Join(dir, f), fileBytes(t, src, f), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, logName), tc.log, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(dir); err == nil || !strings.HasPrefix(err.Error(), "campaign: "+tc.want) {
				t.Fatalf("Load: %v, want an error starting %q", err, "campaign: "+tc.want)
			}
		})
	}
}

// TestRecordFailureNotCounted: a run whose result cannot be appended to
// results.log — the log cannot be opened (it is a directory), or the write
// fails (it is open read-only) — is not counted as completed, so Completed
// and Missing agree with the disk, and a resume runs it again.
func TestRecordFailureNotCounted(t *testing.T) {
	cfg := smallCfg(4, 3)
	dir := t.TempDir()
	failed := func(c *Campaign) {
		t.Helper()
		if done, err := c.Run(2, 0); err == nil || done != 0 {
			t.Fatalf("Run with an unwritable log: done=%d err=%v, want 0 runs and an error", done, err)
		}
		if n, missing := c.Completed(), len(c.Missing()); n != 0 || missing != 4 {
			t.Fatalf("after failed appends: %d completed, %d missing, want 0 and 4", n, missing)
		}
		if _, err := os.Stat(filepath.Join(dir, resultsName)); !os.IsNotExist(err) {
			t.Fatalf("failed appends wrote %s: %v", resultsName, err)
		}
	}
	c := mustPlan(t, dir, cfg)
	if err := os.Mkdir(filepath.Join(dir, logName), 0o755); err != nil {
		t.Fatal(err)
	}
	failed(c)
	if err := os.Remove(filepath.Join(dir, logName)); err != nil {
		t.Fatal(err)
	}

	c = mustLoad(t, dir)
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_RDONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c.log = f
	failed(c)

	r, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := r.Run(2, 0); err != nil || done != 4 {
		t.Fatalf("resume: done=%d err=%v, want all 4 runs", done, err)
	}
}

// TestOutcomeReproducible runs the same campaign twice from the same seed
// and requires byte-identical results files: classification must be a pure
// function of the plan.
func TestOutcomeReproducible(t *testing.T) {
	cfg := smallCfg(8, 1234)
	dirA, dirB := t.TempDir(), t.TempDir()
	a := mustPlan(t, dirA, cfg)
	b := mustPlan(t, dirB, cfg)
	if _, err := a.Run(4, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(4, 0); err != nil {
		t.Fatal(err)
	}
	ra, err := os.ReadFile(filepath.Join(dirA, resultsName))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := os.ReadFile(filepath.Join(dirB, resultsName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ra, rb) {
		t.Fatalf("same plan produced different results:\n--- A ---\n%s\n--- B ---\n%s", ra, rb)
	}
}

func TestOpenRejectsConfigMismatch(t *testing.T) {
	cfg := smallCfg(4, 5)
	dir := t.TempDir()
	mustPlan(t, dir, cfg)
	other := cfg
	other.Runs = 8
	if _, err := Open(dir, other); err == nil {
		t.Fatalf("Open with mismatched config succeeded")
	}
}

// TestWatchdogKeyIgnored: a plan whose config carries the watchdog key older
// builds accepted ("watchdog": -1 switched the watchdog off) opens as the
// plain config, so every pass of the campaign runs under DefaultWatchdog.
func TestWatchdogKeyIgnored(t *testing.T) {
	cfg := smallCfg(4, 5)
	dir := t.TempDir()
	mustPlan(t, dir, cfg)
	path := filepath.Join(dir, planName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(data, []byte(`"config": {`), []byte(`"config": {"watchdog": -1, `), 1)
	if bytes.Equal(edited, data) {
		t.Fatalf("plan.json has no config object:\n%s", data)
	}
	if err := os.WriteFile(path, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Config() != cfg {
		t.Fatalf("Config() = %+v, want %+v", c.Config(), cfg)
	}
	if _, err := Open(dir, cfg); err != nil {
		t.Fatalf("Open with the plain config: %v", err)
	}
}

func TestResolveRejectsBadConfig(t *testing.T) {
	bad := []Config{
		{Benchmark: "nope", Size: "small", Group: "gpr", Model: "flip", Runs: 1},
		{Benchmark: "ostencil", Size: "tiny", Group: "gpr", Model: "flip", Runs: 1},
		{Benchmark: "ostencil", Size: "small", Group: "weird", Model: "flip", Runs: 1},
		{Benchmark: "ostencil", Size: "small", Group: "gpr", Model: "melt", Runs: 1},
		{Benchmark: "ostencil", Size: "small", Group: "gpr", Model: "flip", Runs: 0},
	}
	for _, cfg := range bad {
		if _, _, _, err := resolve(cfg); err == nil {
			t.Errorf("resolve(%+v) succeeded", cfg)
		}
	}
}

func TestClassifyDUE(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{fmt.Errorf("launch: %w", nvbit.ErrLaunchTimeout), "timeout"},
		{fmt.Errorf("launch: %w", nvbit.ErrToolCallback), "tool-callback"},
		{fmt.Errorf("launch: %w", &gpu.Fault{Kind: gpu.FaultIllegalAddress}), "fault:illegal-address"},
		{errors.New("boom"), "error"},
	}
	for _, c := range cases {
		if got := classifyDUE(c.err); got != c.want {
			t.Errorf("classifyDUE(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

func TestWorkerPanicBecomesDUE(t *testing.T) {
	c := &Campaign{plan: planFile{Golden: "x"}}
	// A nil benchmark makes executeVictim's victim path panic; execute must
	// contain it and classify the run DUE rather than crash the pool.
	res := c.execute(RunSpec{ID: 3})
	if res.Outcome != OutcomeDUE || res.ID != 3 {
		t.Fatalf("panicking run classified %+v, want DUE id 3", res)
	}
	if res.Detail == "" {
		t.Fatalf("panic DUE has no detail")
	}
}

func TestWilson(t *testing.T) {
	if lo, hi := wilson(0, 0); lo != 0 || hi != 0 {
		t.Fatalf("wilson(0,0) = %v, %v", lo, hi)
	}
	if lo, _ := wilson(0, 20); lo != 0 {
		t.Fatalf("wilson(0,20).lo = %v, want 0", lo)
	}
	if _, hi := wilson(20, 20); hi != 1 {
		t.Fatalf("wilson(20,20).hi = %v, want 1", hi)
	}
	// Reference value: k=5, n=10 at 95% is approximately [0.2366, 0.7635].
	lo, hi := wilson(5, 10)
	if math.Abs(lo-0.2366) > 1e-3 || math.Abs(hi-0.7634) > 1e-3 {
		t.Fatalf("wilson(5,10) = [%v, %v], want ~[0.2366, 0.7634]", lo, hi)
	}
	// Monotone sanity: the interval always contains the point estimate.
	for k := 0; k <= 10; k++ {
		lo, hi := wilson(k, 10)
		p := float64(k) / 10
		if lo > p || hi < p {
			t.Fatalf("wilson(%d,10) = [%v,%v] excludes %v", k, lo, hi, p)
		}
	}
}

func TestReportShape(t *testing.T) {
	c := &Campaign{
		plan:    planFile{Manifest: make([]RunSpec, 6)},
		results: map[int]RunResult{},
	}
	c.results[0] = RunResult{ID: 0, Outcome: OutcomeMasked}
	c.results[1] = RunResult{ID: 1, Outcome: OutcomeMasked}
	c.results[2] = RunResult{ID: 2, Outcome: OutcomeSDC}
	c.results[3] = RunResult{ID: 3, Outcome: OutcomeDUE, Detail: "timeout"}
	c.results[4] = RunResult{ID: 4, Outcome: OutcomeDUE, Detail: "fault:illegal-address"}

	rep := c.Report()
	if rep.Planned != 6 || rep.Completed != 5 {
		t.Fatalf("planned/completed = %d/%d, want 6/5", rep.Planned, rep.Completed)
	}
	if rep.Masked.Count != 2 || rep.SDC.Count != 1 || rep.DUE.Count != 2 {
		t.Fatalf("counts = %d/%d/%d", rep.Masked.Count, rep.SDC.Count, rep.DUE.Count)
	}
	if got := rep.Masked.Fraction; math.Abs(got-0.4) > 1e-9 {
		t.Fatalf("masked fraction %v, want 0.4", got)
	}
	if rep.DUEDetail["timeout"] != 1 || rep.DUEDetail["fault:illegal-address"] != 1 {
		t.Fatalf("DUE detail %v", rep.DUEDetail)
	}
	s := rep.String()
	for _, want := range []string{"masked", "sdc", "due", "due/timeout", "95% CI"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

func TestRNG(t *testing.T) {
	// splitmix64 sequence for seed 1234567, pinned: a change here would
	// silently re-target every previously planned campaign.
	r := newRNG(1234567)
	want := []uint64{0x599ED017FB08FC85, 0x2C73F08458540FA5, 0x883EBCE5A3F27C77}
	for i, w := range want {
		if got := r.next(); got != w {
			t.Fatalf("splitmix64 output %d = %#x, want %#x", i, got, w)
		}
	}
	// below() stays in range and hits both halves of a small range.
	r = newRNG(9)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		v := r.below(7)
		if v >= 7 {
			t.Fatalf("below(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) < 5 {
		t.Fatalf("below(7) hit only %d values in 100 draws", len(seen))
	}
}

// TestDrawnInjectionsPassCheck: every injection a mix manifest draws passes
// faultinject's Check — its model reads each field drawn for it, in range —
// and the draw covers every model.
func TestDrawnInjectionsPassCheck(t *testing.T) {
	models := map[faultinject.Model]bool{}
	for _, r := range drawManifest(smallCfg(400, 7), faultinject.GroupGPR, 1<<20) {
		if err := r.Injection.Check(); err != nil {
			t.Fatalf("run %d (%v): %v", r.ID, r.Injection, err)
		}
		models[r.Injection.Model] = true
	}
	if len(models) != int(faultinject.NumModels) {
		t.Fatalf("400 draws hit models %v, want all %d", models, faultinject.NumModels)
	}
}

// TestAcceptanceCampaign is the campaign engine's acceptance bar: a 1000-run
// campaign over a SpecAccel victim across 4 workers, killed mid-campaign and
// resumed, with every run classified, none lost or duplicated, and each one
// classified as it is with every launch instrumented. Takes a few seconds;
// skipped under -short.
func TestAcceptanceCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-run campaign: skipped under -short")
	}
	cfg := smallCfg(1000, 2026)
	dir := t.TempDir()
	c := mustPlan(t, dir, cfg)
	if done, err := c.Run(4, 250); err != nil || done != 250 {
		t.Fatalf("leg 1: done=%d err=%v", done, err)
	}
	r, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := r.Run(4, 0); err != nil || done != 750 {
		t.Fatalf("leg 2: done=%d err=%v", done, err)
	}
	results := r.Results()
	if len(results) != 1000 {
		t.Fatalf("%d results, want 1000", len(results))
	}
	var masked, sdc, due int
	for i, res := range results {
		if res.ID != i {
			t.Fatalf("result %d has ID %d", i, res.ID)
		}
		switch res.Outcome {
		case OutcomeMasked:
			masked++
		case OutcomeSDC:
			sdc++
		case OutcomeDUE:
			due++
		default:
			t.Fatalf("run %d unclassified: %+v", res.ID, res)
		}
	}
	t.Logf("\n%s", r.Report())
	if masked+sdc+due != 1000 {
		t.Fatalf("outcome counts %d+%d+%d != 1000", masked, sdc, due)
	}
	// An all-one-class campaign over a GPR-write space would mean the
	// injections are not actually perturbing state.
	if masked == 1000 || masked == 0 {
		t.Fatalf("degenerate campaign: masked=%d of 1000", masked)
	}
	matchEveryLaunch(t, r, 4)
}
