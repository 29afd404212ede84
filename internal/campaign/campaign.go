// Package campaign is the NVBitFI-style fault-injection campaign engine: the
// scale layer over internal/tools/faultinject that turns one-injection-per-run
// experiments into statistically meaningful error-resilience numbers (the
// SASSIFI use case of paper Sections 1 and 6.3).
//
// A campaign lives in a directory:
//
//	<dir>/plan.json     written once by Plan: config, the
//	                    dynamic-instruction space, the golden output hash,
//	                    the launch table and the full run manifest drawn
//	                    from a seeded RNG
//	<dir>/results.log   one JSON line appended per completed run
//	<dir>/results.json  the completed runs sorted by ID, which every Run
//	                    rewrites atomically from the log when it returns
//
// The lifecycle is plan → run → report. Planning executes the victim once,
// the golden pass, under the injection tool disarmed: it hashes the output
// and counts the dynamic thread-instructions of the campaign's instruction
// group in each CTA of each launch (the launch table). The table's sum is the
// space the planner draws each run's target from uniformly, so the manifest
// is reproducible from (plan, seed) alone. Each run then executes the victim
// in a fresh simulator instance with exactly one injection armed,
// instrumenting only the CTA its target falls in, and classifies the
// outcome:
//
//	masked  the run completed and its output matches the golden hash
//	sdc     the run completed with corrupted output (silent data corruption)
//	due     the run failed detectably: a device fault, the launch watchdog,
//	        or an instrumentation/tool error (detectable unrecoverable error)
//
// A run's result is appended to results.log with one write before its worker
// takes the next run, so killing the runner at any instant loses at most the
// in-flight runs, and a kill mid-append leaves a torn last line that Load
// ignores. Load reads results.json, replays the log over it, and resuming
// re-derives the missing run IDs from the manifest and finishes exactly the
// planned set — no run is lost or executed twice. When Run returns, normally,
// at its run bound or on an error, it compacts the log into results.json,
// published whole through internal/atomicfile, and deletes it, so only a
// killed Run leaves a log behind.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"nvbitgo/gpusim"
	"nvbitgo/internal/atomicfile"
	"nvbitgo/internal/tools/faultinject"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

// Config identifies what a campaign injects into and how much.
type Config struct {
	// Benchmark is the specaccel victim name (e.g. "ostencil").
	Benchmark string `json:"benchmark"`
	// Size is the problem scale: small, medium or large.
	Size string `json:"size"`
	// Group is the instruction-group filter: gpr, fp32, fp64, ld or all.
	Group string `json:"group"`
	// Model is the injection model: flip, flip2, rand, zero, or "mix" to
	// draw a model per run.
	Model string `json:"model"`
	// Runs is the planned number of injection runs.
	Runs int `json:"runs"`
	// Seed seeds the manifest RNG; same (plan, seed) => same manifest.
	Seed uint64 `json:"seed"`
}

// DefaultWatchdog is the per-CTA warp-instruction budget every campaign
// execution runs under, so corrupted loop bounds surface as DUE timeouts
// rather than hangs: roughly 100x the heaviest small-size victim CTA, and
// small enough that an injected infinite loop turns around in well under a
// second.
const DefaultWatchdog = int64(1) << 22

// RunSpec is one planned run: an ID and the injection it arms.
type RunSpec struct {
	ID        int                   `json:"id"`
	Injection faultinject.Injection `json:"injection"`
}

// planFile is the on-disk plan.json. Everything is slices and scalars (no
// maps), so encoding is deterministic and two same-seed plans are
// byte-identical.
type planFile struct {
	Version  int       `json:"version"`
	Config   Config    `json:"config"`
	Space    uint64    `json:"space"`
	Golden   string    `json:"golden_sha256"`
	Launches []launch  `json:"launches"`
	Manifest []RunSpec `json:"manifest"`
}

// launch is one row of the launch table: a kernel launch of the golden pass,
// in launch order, how many dynamic thread-instructions of the campaign's
// group it executed, and how many each of its CTAs did, in the order the
// sequential scheduler runs them. Count is the sum of CTAs.
type launch struct {
	Kernel string   `json:"kernel"`
	Count  uint64   `json:"count"`
	CTAs   []uint64 `json:"ctas,omitempty"`
}

// planVersion 2 added the launch table; Load converts a version-1 plan.
// Version-2 plans written before the table had CTA counts are converted the
// same way, and those written before the golden pass became the only
// counting pass also carry a per-kernel "profile", which decoding ignores.
const planVersion = 2

// Campaign is one on-disk campaign: a plan plus the completed results.
type Campaign struct {
	dir  string
	plan planFile

	bench *specaccel.Benchmark
	size  specaccel.Size

	mu      sync.Mutex
	results map[int]RunResult
	// log is results.log, opened by the first record of a Run; logEnd is
	// the length of its complete lines, where the next append goes; logged
	// says the log holds results not yet compacted into results.json; logErr
	// is the write failure that stopped this Run's appends.
	log    *os.File
	logEnd int64
	logged bool
	logErr error
}

// resolve validates the config against the workload registry.
func resolve(cfg Config) (*specaccel.Benchmark, specaccel.Size, faultinject.Group, error) {
	bench, err := specaccel.Find(cfg.Benchmark)
	if err != nil {
		return nil, 0, 0, err
	}
	size, err := specaccel.ParseSize(cfg.Size)
	if err != nil {
		return nil, 0, 0, err
	}
	group, err := faultinject.ParseGroup(cfg.Group)
	if err != nil {
		return nil, 0, 0, err
	}
	if cfg.Model != "mix" {
		if _, err := faultinject.ParseModel(cfg.Model); err != nil {
			return nil, 0, 0, err
		}
	}
	if cfg.Runs <= 0 {
		return nil, 0, 0, fmt.Errorf("runs must be positive, got %d", cfg.Runs)
	}
	return bench, size, group, nil
}

// Plan runs the golden pass, draws the run manifest from the launch table's
// sum and writes plan.json. The directory must not already hold a campaign.
func Plan(dir string, cfg Config) (*Campaign, error) {
	bench, size, group, err := resolve(cfg)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, planName)); err == nil {
		return nil, fmt.Errorf("campaign: %s already holds a plan (use Load/Open to resume)", dir)
	}

	golden, launches, err := goldenPass(bench, size, group)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	var space uint64
	for _, l := range launches {
		space += l.Count
	}
	if space == 0 {
		return nil, fmt.Errorf("campaign: %s/%s has no dynamic instructions in group %s",
			cfg.Benchmark, cfg.Size, cfg.Group)
	}

	c := &Campaign{
		dir: dir,
		plan: planFile{
			Version:  planVersion,
			Config:   cfg,
			Space:    space,
			Golden:   golden,
			Launches: launches,
		},
		bench:   bench,
		size:    size,
		results: make(map[int]RunResult),
	}
	c.plan.Manifest = drawManifest(cfg, group, space)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(&c.plan, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := atomicfile.Write(filepath.Join(dir, planName), append(data, '\n')); err != nil {
		return nil, err
	}
	return c, nil
}

// drawManifest draws cfg.Runs injections from the dynamic-instruction space
// with a splitmix64 stream seeded by cfg.Seed. The draw sequence is fixed:
// target, then model (under "mix"), then the model's parameters — so the
// manifest is a pure function of (space, cfg).
func drawManifest(cfg Config, group faultinject.Group, space uint64) []RunSpec {
	rng := newRNG(cfg.Seed)
	fixed := faultinject.Model(-1)
	if cfg.Model != "mix" {
		fixed, _ = faultinject.ParseModel(cfg.Model)
	}
	manifest := make([]RunSpec, cfg.Runs)
	for i := range manifest {
		inj := faultinject.Injection{Group: group, Target: rng.below(space)}
		if fixed >= 0 {
			inj.Model = fixed
		} else {
			inj.Model = faultinject.Model(rng.below(uint64(faultinject.NumModels)))
		}
		switch inj.Model {
		case faultinject.ModelFlip:
			inj.Bit = uint(rng.below(faultinject.MaxFlipBit + 1))
		case faultinject.ModelFlip2:
			inj.Bit = uint(rng.below(faultinject.MaxFlip2Bit + 1))
		case faultinject.ModelRand:
			inj.Value = uint32(rng.next())
		}
		manifest[i] = RunSpec{ID: i, Injection: inj}
	}
	return manifest
}

// Load opens an existing campaign directory. A plan without CTA counts —
// version 1, which has no launch table, or version 2 from an older build —
// gets its whole table from one fresh golden pass, which must reproduce the
// plan's golden output and, for version 2, its launch counts; plan.json
// itself is left as it was. A refusal names the file, then the field or run.
func Load(dir string) (*Campaign, error) {
	var plan planFile
	if err := readFile(filepath.Join(dir, planName), &plan); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	bench, size, err := plan.load()
	if err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", planName, err)
	}
	c := &Campaign{
		dir:     dir,
		plan:    plan,
		bench:   bench,
		size:    size,
		results: make(map[int]RunResult),
	}
	if err := c.loadResults(); err != nil {
		return nil, err
	}
	return c, nil
}

// load checks a decoded plan.json against what Plan could have written and
// gives a plan without CTA counts its launch table.
func (p *planFile) load() (*specaccel.Benchmark, specaccel.Size, error) {
	if p.Version != 1 && p.Version != planVersion {
		return nil, 0, fmt.Errorf("version %d, want 1 or %d", p.Version, planVersion)
	}
	bench, size, group, err := resolve(p.Config)
	if err != nil {
		return nil, 0, fmt.Errorf("config: %w", err)
	}
	if len(p.Manifest) != p.Config.Runs {
		return nil, 0, fmt.Errorf("manifest holds %d runs, config plans %d", len(p.Manifest), p.Config.Runs)
	}
	if p.Space == 0 {
		return nil, 0, fmt.Errorf("space is 0, nothing to draw %d runs from", p.Config.Runs)
	}
	// The manifest is a pure function of (config, group, space), so the
	// stored one must be the redraw.
	for i, want := range drawManifest(p.Config, group, p.Space) {
		if got := p.Manifest[i]; got != want {
			return nil, 0, fmt.Errorf("manifest run %d is %+v, the config draws %+v", got.ID, got, want)
		}
	}
	if p.Version == 1 || !slices.ContainsFunc(p.Launches, func(l launch) bool { return len(l.CTAs) > 0 }) {
		golden, launches, err := goldenPass(bench, size, group)
		if err != nil {
			return nil, 0, err
		}
		if golden != p.Golden {
			return nil, 0, fmt.Errorf("golden_sha256: the golden pass output %s, the plan recorded %s", golden, p.Golden)
		}
		if p.Version == planVersion && !slices.EqualFunc(p.Launches, launches, func(a, b launch) bool {
			return a.Kernel == b.Kernel && a.Count == b.Count
		}) {
			return nil, 0, fmt.Errorf("launches: the golden pass does not reproduce the plan's kernels and counts")
		}
		p.Version, p.Launches = planVersion, launches
	}
	return bench, size, checkLaunches(p.Launches, p.Space)
}

// Open loads the campaign in dir if one exists (verifying it was planned
// with the same config) and plans a fresh one otherwise.
func Open(dir string, cfg Config) (*Campaign, error) {
	if _, err := os.Stat(filepath.Join(dir, planName)); err != nil {
		return Plan(dir, cfg)
	}
	c, err := Load(dir)
	if err != nil {
		return nil, err
	}
	if c.plan.Config != cfg {
		return nil, fmt.Errorf("campaign: %s was planned with %+v, asked to run %+v",
			dir, c.plan.Config, cfg)
	}
	return c, nil
}

// Config returns the campaign's planned configuration.
func (c *Campaign) Config() Config { return c.plan.Config }

// Space returns the dynamic thread-instruction population of the campaign's
// instruction group: the sum of the golden pass's launch table.
func (c *Campaign) Space() uint64 { return c.plan.Space }

// Manifest returns the planned runs.
func (c *Campaign) Manifest() []RunSpec { return append([]RunSpec(nil), c.plan.Manifest...) }

// Completed returns how many planned runs have results.
func (c *Campaign) Completed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.results)
}

// Missing returns the planned runs that do not have a result yet, in ID
// order.
func (c *Campaign) Missing() []RunSpec {
	c.mu.Lock()
	defer c.mu.Unlock()
	var missing []RunSpec
	for _, spec := range c.plan.Manifest {
		if _, done := c.results[spec.ID]; !done {
			missing = append(missing, spec)
		}
	}
	return missing
}

// Results returns the completed run results in ID order.
func (c *Campaign) Results() []RunResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]RunResult, 0, len(c.results))
	for _, r := range c.results {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func hashOutput(out []byte) string {
	sum := sha256.Sum256(out)
	return hex.EncodeToString(sum[:])
}

// goldenPass runs the victim under the injection tool instrumented at every
// launch but disarmed, so the reference output comes from the binary the
// injection runs execute. It returns the output's hash and the launch table:
// the tool's counter read at the exit of each CTA of each launch.
func goldenPass(bench *specaccel.Benchmark, size specaccel.Size, group faultinject.Group) (string, []launch, error) {
	rec := &launchRecorder{Tool: faultinject.New(faultinject.Injection{Group: group, Target: faultinject.NoTarget})}
	out, err := executeVictim(bench, size, rec)
	if err != nil {
		return "", nil, fmt.Errorf("golden run failed: %w", err)
	}
	return hashOutput(out), rec.launches, nil
}

// launchRecorder is the injection tool plus the launch table: at the exit of
// every CTA (OnCTAExit) it records how far the tool's counter moved, and at
// the exit of every launch it closes the launch's row.
type launchRecorder struct {
	*faultinject.Tool
	launches []launch
	ctas     []uint64 // the running launch's CTA counts
	counted  uint64   // the counter at the last CTA exit
}

func (r *launchRecorder) AtCUDACall(n *nvbit.NVBit, exit bool, cbid nvbit.CBID, name string, p *nvbit.CallParams) {
	r.Tool.AtCUDACall(n, exit, cbid, name, p)
	if cbid != nvbit.CBLaunchKernel {
		return
	}
	if !exit {
		r.ctas = nil
		if err := n.OnCTAExit(r.ctaExit); err != nil {
			panic(err)
		}
		return
	}
	l := launch{Kernel: p.Launch.Func.Name, CTAs: r.ctas}
	for _, c := range r.ctas {
		l.Count += c
	}
	r.launches = append(r.launches, l)
}

func (r *launchRecorder) ctaExit(int) {
	res, err := r.Result()
	if err != nil {
		panic(err)
	}
	r.ctas = append(r.ctas, res.Executed-r.counted)
	r.counted = res.Executed
}

// checkLaunches checks that a loaded plan's launch table adds up: each
// launch's CTA counts sum to its count and the counts to the space, with no
// sum overflowing.
func checkLaunches(launches []launch, space uint64) error {
	var total uint64
	for k, l := range launches {
		if len(l.CTAs) == 0 {
			return fmt.Errorf("launches[%d] has no ctas", k)
		}
		var sum uint64
		for _, c := range l.CTAs {
			if sum+c < sum {
				return fmt.Errorf("launches[%d].ctas overflow", k)
			}
			sum += c
		}
		if sum != l.Count {
			return fmt.Errorf("launches[%d].ctas sum to %d, count is %d", k, sum, l.Count)
		}
		if total+l.Count < total {
			return fmt.Errorf("launches[%d].count overflows the table's sum", k)
		}
		total += l.Count
	}
	if total != space {
		return fmt.Errorf("launches count %d, space is %d", total, space)
	}
	return nil
}

// targetLaunch maps a target, an index over the whole run, to the launch and
// the CTA of that launch that execute it, and to the CTA's base: the count of
// every launch and CTA before it. A target beyond the space maps past the
// last launch, so nothing is instrumented and nothing fires, as with every
// launch instrumented.
func (c *Campaign) targetLaunch(target uint64) (k, cta int, base uint64) {
	for k, l := range c.plan.Launches {
		if target-base >= l.Count {
			base += l.Count
			continue
		}
		for cta, n := range l.CTAs {
			if target-base < n {
				return k, cta, base
			}
			base += n
		}
	}
	return len(c.plan.Launches), 0, base
}

// executeVictim runs the benchmark in a fresh simulator under tool and
// returns the captured output. Every campaign execution — the golden pass
// and each injection run — goes through here, so they share scheduler
// (sequential: the dynamic-instruction order the targets index must be
// deterministic) and watchdog (DefaultWatchdog). It closes the simulator on
// return, which ends the tool (AtTerm) and hands the device's execution state
// to the next run's; device memory, and so the tool's results, stay readable.
func executeVictim(bench *specaccel.Benchmark, size specaccel.Size, tool nvbit.Tool) ([]byte, error) {
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		return nil, err
	}
	defer api.Close()
	if _, err := nvbit.Attach(api, tool,
		nvbit.WithScheduler(nvbit.SchedulerSequential),
		nvbit.WithWatchdogInterval(DefaultWatchdog)); err != nil {
		return nil, err
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		return nil, err
	}
	return bench.RunCapture(ctx, size)
}
