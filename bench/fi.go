package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nvbitgo/internal/campaign"
	"nvbitgo/internal/tools/faultinject"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

const fiRuns = 24

// campaignConfig is fi_campaign's campaign under one campaign seed.
func campaignConfig(seed uint64) campaign.Config {
	return campaign.Config{Benchmark: "ostencil", Size: "small", Group: "gpr", Model: "mix", Runs: fiRuns, Seed: seed}
}

type fiWorkload struct {
	e      *env
	counts simCounts
	dirs   int
}

func setupFICampaign(e *env) (instance, error) {
	w := &fiWorkload{e: e}
	// Two plans under one seed must be the same bytes: the manifest is a
	// function of the configuration alone.
	var plans [2][]byte
	for i := range plans {
		dir := e.scratch(fmt.Sprintf("fi-plan-%d", i))
		defer os.RemoveAll(dir)
		if _, err := campaign.Plan(dir, campaignConfig(uint64(e.seed))); err != nil {
			return nil, err
		}
		var err error
		if plans[i], err = os.ReadFile(filepath.Join(dir, "plan.json")); err != nil {
			return nil, err
		}
	}
	if !bytes.Equal(plans[0], plans[1]) {
		e.failf("two campaign plans under seed %d differ", e.seed)
	}
	// Simulated slowdown of the victim as every campaign run executes it:
	// under the injection tool with nothing armed, against no tool.
	victim := specBenchmark(campaignConfig(0).Benchmark)
	_, native, err := nativeRun(victim, specaccel.Small)
	if err != nil {
		return nil, err
	}
	tool := faultinject.New(faultinject.Injection{Group: faultinject.GroupGPR, Target: faultinject.NoTarget})
	api, ctx, _, err := openDevice(scope{}, tool, nvbit.WithWatchdogInterval(campaign.DefaultWatchdog))
	if err != nil {
		return nil, err
	}
	defer api.Close()
	if err := victim.Run(ctx, specaccel.Small); err != nil {
		return nil, err
	}
	w.counts = simOf(native, api.Device().Stats())
	return w, nil
}

// iterate plans, runs and reports one campaign in a fresh directory. The
// campaign seed is the bench seed plus the iteration, so a run covers many
// manifests and no two iterations repeat one.
func (w *fiWorkload) iterate(i int, t *tracer) (iterResult, error) {
	dir := w.e.scratch(fmt.Sprintf("fi-campaign-%d", w.dirs))
	w.dirs++
	defer os.RemoveAll(dir)
	seed := uint64(w.e.seed) + uint64(i)
	sc, done := t.root(i)
	t0 := time.Now()
	var c *campaign.Campaign
	if err := sc.do(layerCampaign, "campaign.Plan", func(scope) (err error) {
		c, err = campaign.Plan(dir, campaignConfig(seed))
		return err
	}); err != nil {
		return iterResult{}, err
	}
	var completed int
	runStart := time.Now()
	if err := sc.do(layerCampaign, "campaign.Run", func(scope) (err error) {
		completed, err = c.Run(w.e.procs, 0)
		return err
	}); err != nil {
		return iterResult{}, err
	}
	window := time.Since(runStart)
	var rep campaign.Report
	sc.do(layerCampaign, "campaign.Report", func(scope) error {
		rep = c.Report()
		return nil
	})
	d := time.Since(t0)
	done()

	failed := fiRuns - min(completed, rep.Completed)
	if g, ok := w.e.golden.Campaign[fmt.Sprint(seed)]; ok &&
		(g != goldenOutcome{Masked: rep.Masked.Count, SDC: rep.SDC.Count, DUE: rep.DUE.Count}) {
		w.e.notef("campaign seed %d: %d masked, %d sdc, %d due; golden.json has %+v",
			seed, rep.Masked.Count, rep.SDC.Count, rep.DUE.Count, g)
		failed = max(failed, 1)
	}
	return iterResult{wall: d, ops: fiRuns, failed: failed, window: window}, nil
}

func (w *fiWorkload) sim() simCounts { return w.counts }
func (w *fiWorkload) close()         {}
