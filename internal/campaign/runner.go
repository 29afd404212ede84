package campaign

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"nvbitgo/internal/tools/faultinject"
	"nvbitgo/nvbit"
)

// Run executes the campaign's missing runs over a pool of workers, each run
// in its own fresh simulator instance, and appends every result to
// results.log as it completes; on return the log is compacted into
// results.json. maxRuns > 0 bounds how many runs this call executes (the CI
// smoke uses it to stop a campaign mid-flight and exercise resume); 0 means
// run everything that is missing. Run returns the number of runs it
// completed and the first persistence error, if any; injection outcomes —
// including victim crashes — are never errors, they are classified DUE.
func (c *Campaign) Run(workers, maxRuns int) (done int, err error) {
	defer func() {
		if cerr := c.compact(); err == nil {
			err = cerr
		}
	}()
	if workers <= 0 {
		workers = 1
	}
	missing := c.Missing()
	if maxRuns > 0 && len(missing) > maxRuns {
		missing = missing[:maxRuns]
	}
	if len(missing) == 0 {
		return 0, nil
	}

	specs := make(chan RunSpec)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range specs {
				res := c.execute(spec)
				err := c.record(res)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil {
					done++
				}
				mu.Unlock()
			}
		}()
	}
	for _, spec := range missing {
		specs <- spec
	}
	close(specs)
	wg.Wait()
	return done, firstErr
}

// execute performs one injection run and classifies it. Only the CTA the
// target falls in runs instrumented; every other CTA and launch runs the
// original code.
func (c *Campaign) execute(spec RunSpec) RunResult {
	tool := faultinject.New(spec.Injection)
	tool.OnlyCTA(c.targetLaunch(spec.Injection.Target))
	return c.runWith(spec.ID, tool)
}

// runWith runs the victim under an armed injection tool and classifies the
// run. A panic anywhere in the victim or the simulator is contained to this
// run and classified DUE: a campaign must never lose 999 completed runs to
// run 1000 crashing.
func (c *Campaign) runWith(id int, tool *faultinject.Tool) (res RunResult) {
	res = RunResult{ID: id}
	defer func() {
		if r := recover(); r != nil {
			res.Outcome = OutcomeDUE
			res.Detail = fmt.Sprintf("worker-panic: %v", r)
		}
	}()

	out, err := executeVictim(c.bench, c.size, tool)
	if r, rerr := tool.Result(); rerr == nil {
		res.Fired = r.Fired
		res.Kernel = r.Kernel
		res.Site = r.Site
		res.Old = r.Old
		res.New = r.New
	}
	switch {
	case err != nil:
		res.Outcome = OutcomeDUE
		res.Detail = classifyDUE(err)
	case hashOutput(out) != c.plan.Golden:
		res.Outcome = OutcomeSDC
	default:
		res.Outcome = OutcomeMasked
	}
	return res
}

// classifyDUE subclasses a detected unrecoverable error. Order matters: a
// watchdog expiry is both a fault and the timeout sentinel, and "timeout" is
// the more specific label.
func classifyDUE(err error) string {
	switch {
	case errors.Is(err, nvbit.ErrLaunchTimeout):
		return "timeout"
	case errors.Is(err, nvbit.ErrToolCallback):
		return "tool-callback"
	}
	if f, ok := nvbit.AsFault(err); ok {
		return "fault:" + strings.ReplaceAll(f.Kind.String(), " ", "-")
	}
	return "error"
}
