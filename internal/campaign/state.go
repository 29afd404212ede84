package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

const (
	planName    = "plan.json"
	resultsName = "results.json"

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

// writeFileAtomic writes v as JSON via a temp file in the same directory
// followed by a rename, so readers (and a resuming campaign after a kill at
// any instant) never observe a torn file. Same idiom as internal/jitcache.
func writeFileAtomic(path string, v any) (err error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), "tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
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

// loadResults reads results.json if present and indexes it. Results whose ID
// is not in the manifest are rejected: they indicate a mixed-up directory.
func (c *Campaign) loadResults() error {
	path := filepath.Join(c.dir, resultsName)
	var rf resultsFile
	if err := readFile(path, &rf); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("campaign: %w", err)
	}
	if rf.Version != resultsVersion {
		return fmt.Errorf("campaign: %s: version %d, want %d", resultsName, rf.Version, resultsVersion)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range rf.Results {
		if r.ID < 0 || r.ID >= len(c.plan.Manifest) {
			return fmt.Errorf("campaign: %s: result for run %d outside manifest [0,%d)",
				resultsName, r.ID, len(c.plan.Manifest))
		}
		c.results[r.ID] = r
	}
	return nil
}

// record stores one result and persists the full result set atomically.
// Persisting after every run is the crash-safety contract: an interrupt
// loses only in-flight runs, never completed ones.
func (c *Campaign) record(r RunResult) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results[r.ID] = r
	rf := resultsFile{Version: resultsVersion, Results: make([]RunResult, 0, len(c.results))}
	for _, res := range c.results {
		rf.Results = append(rf.Results, res)
	}
	sort.Slice(rf.Results, func(i, j int) bool { return rf.Results[i].ID < rf.Results[j].ID })
	return writeFileAtomic(filepath.Join(c.dir, resultsName), &rf)
}
