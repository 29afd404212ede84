package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"nvbitgo/internal/atomicfile"
)

const (
	planName    = "plan.json"
	resultsName = "results.json"
	logName     = "results.log"

	// resultsVersion versions results.json apart from plan.json, whose
	// launch table left the results format unchanged.
	resultsVersion = 1
)

// Outcome classes, following the NVBitFI taxonomy.
const (
	OutcomeMasked = "masked"
	OutcomeSDC    = "sdc"
	OutcomeDUE    = "due"
)

// RunResult is the persisted classification of one completed run.
type RunResult struct {
	ID int `json:"id"`
	// Outcome is masked, sdc or due.
	Outcome string `json:"outcome"`
	// Detail subclasses DUE outcomes: "timeout", "tool-callback",
	// "fault:<kind>", "worker-panic" or "error". Empty for masked/sdc.
	Detail string `json:"detail,omitempty"`
	// Fired reports whether the injection actually corrupted a register
	// (a target can land beyond a kernel's population if the victim is
	// nondeterministic; with the sequential scheduler it always fires).
	Fired bool `json:"fired"`
	// Kernel and Site locate the fired injection: the kernel name and the
	// static instruction index the corruption landed on.
	Kernel string `json:"kernel,omitempty"`
	Site   uint32 `json:"site,omitempty"`
	// Old and New are the register value before and after corruption.
	Old uint32 `json:"old,omitempty"`
	New uint32 `json:"new,omitempty"`
}

// resultsFile is the on-disk results.json: results sorted by run ID so the
// encoding is deterministic.
type resultsFile struct {
	Version int         `json:"version"`
	Results []RunResult `json:"results"`
}

func readFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// loadResults reads results.json if present and indexes it, then replays
// results.log, the runs a killed Run appended after it. Results whose ID is
// not in the manifest are rejected: they indicate a mixed-up directory.
func (c *Campaign) loadResults() error {
	var rf resultsFile
	switch err := readFile(filepath.Join(c.dir, resultsName), &rf); {
	case os.IsNotExist(err):
	case err != nil:
		return fmt.Errorf("campaign: %w", err)
	case rf.Version != resultsVersion:
		return fmt.Errorf("campaign: %s: version %d, want %d", resultsName, rf.Version, resultsVersion)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range rf.Results {
		if err := c.checkID(r.ID); err != nil {
			return fmt.Errorf("campaign: %s: %w", resultsName, err)
		}
		c.results[r.ID] = r
	}
	return c.replayLog()
}

// checkID refuses a result whose run is not in the manifest.
func (c *Campaign) checkID(id int) error {
	if id < 0 || id >= len(c.plan.Manifest) {
		return fmt.Errorf("result for run %d outside manifest [0,%d)", id, len(c.plan.Manifest))
	}
	return nil
}

// replayLog adds the results in results.log, one JSON RunResult per
// newline-terminated line. A last line without its newline is a run killed
// mid-append and is ignored: that run is still missing, and the next record
// cuts the line off before it appends. A malformed complete line, or a run
// recorded twice with different results, is refused.
func (c *Campaign) replayLog() error {
	data, err := os.ReadFile(filepath.Join(c.dir, logName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	c.logged = true
	for n := 1; ; n++ {
		line, rest, complete := bytes.Cut(data, []byte{'\n'})
		if !complete {
			return nil
		}
		c.logEnd += int64(len(line)) + 1
		data = rest
		var r RunResult
		if err := json.Unmarshal(line, &r); err != nil {
			return fmt.Errorf("campaign: %s: line %d: %w", logName, n, err)
		}
		if err := c.checkID(r.ID); err != nil {
			return fmt.Errorf("campaign: %s: line %d: %w", logName, n, err)
		}
		if prev, ok := c.results[r.ID]; ok && prev != r {
			return fmt.Errorf("campaign: %s: line %d: run %d recorded as %+v, already %+v", logName, n, r.ID, r, prev)
		}
		c.results[r.ID] = r
	}
}

// record appends one result to results.log with one write, and counts the
// run only once the write succeeded. A completed run is in the kernel before
// its worker takes the next one, so a kill loses only in-flight runs. Opening
// the log cuts it back to its complete lines, dropping the torn line a killed
// Run may have left, so an append never extends one into a malformed line.
// A failed write may leave a torn line too, so the first failure stops this
// Run's appends.
func (c *Campaign) record(r RunResult) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.logErr != nil {
		return c.logErr
	}
	if c.log == nil {
		f, err := os.OpenFile(filepath.Join(c.dir, logName), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
		if err != nil {
			return err
		}
		if err := f.Truncate(c.logEnd); err != nil {
			f.Close()
			return err
		}
		c.log, c.logged = f, true
	}
	if _, err := c.log.Write(line); err != nil {
		c.logErr = err
		return err
	}
	c.logEnd += int64(len(line))
	c.results[r.ID] = r
	return nil
}

// compact folds results.log into results.json — the full result set, sorted
// by run ID — and deletes the log. It is a no-op when there is no log.
func (c *Campaign) compact() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.logged {
		return nil
	}
	if c.log != nil {
		err := c.log.Close()
		c.log = nil
		if err != nil {
			return err
		}
	}
	c.logErr = nil
	rf := resultsFile{Version: resultsVersion, Results: make([]RunResult, 0, len(c.results))}
	for _, res := range c.results {
		rf.Results = append(rf.Results, res)
	}
	sort.Slice(rf.Results, func(i, j int) bool { return rf.Results[i].ID < rf.Results[j].ID })
	data, err := json.MarshalIndent(&rf, "", "  ")
	if err != nil {
		return err
	}
	if err := atomicfile.Write(filepath.Join(c.dir, resultsName), append(data, '\n')); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(c.dir, logName)); err != nil && !os.IsNotExist(err) {
		return err
	}
	c.logEnd, c.logged = 0, false
	return nil
}
