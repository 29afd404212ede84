package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"nvbitgo/internal/campaign"
	"nvbitgo/internal/workloads/specaccel"
)

// goldenJSON holds reference outputs recorded at the commit that defined
// the benchmark (go run . -update-golden golden.json). Everything in it is
// simulated and deterministic, so it must repeat on any host; only the
// campaign outcomes depend on the seed, and those are keyed by it.
//
//go:embed golden.json
var goldenJSON []byte

type goldenSpec struct {
	SHA256     string `json:"sha256"` // of RunCapture's bytes
	Cycles     uint64 `json:"cycles"`
	WarpInstrs uint64 `json:"warp_instrs"`
}

type goldenOutcome struct {
	Masked int `json:"masked"`
	SDC    int `json:"sdc"`
	DUE    int `json:"due"`
}

type golden struct {
	// Spec is keyed by size name, then benchmark name: native runs.
	Spec map[string]map[string]goldenSpec `json:"spec"`
	// MemtraceRecords is what memtrace delivers over one AlexNet pass.
	MemtraceRecords uint64 `json:"memtrace_records"`
	// DaemonReports is keyed "tool/benchmark": SHA-256 of the standalone
	// report text at Small.
	DaemonReports map[string]string `json:"daemon_reports"`
	// Campaign is keyed by campaign seed (decimal): the outcome counts of
	// fi_campaign's configuration under that seed.
	Campaign map[string]goldenOutcome `json:"campaign"`
}

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// goldenCampaignSeeds is how many campaign seeds golden.json covers,
// starting at 1: seed 1's iterations and a few seeds after it.
const goldenCampaignSeeds = 32

// updateGolden recomputes every reference and writes it to path.
func updateGolden(path string, tmp string) error {
	g := golden{
		Spec:          map[string]map[string]goldenSpec{},
		DaemonReports: map[string]string{},
		Campaign:      map[string]goldenOutcome{},
	}
	for _, size := range []specaccel.Size{specaccel.Small, specaccel.Large} {
		g.Spec[size.String()] = map[string]goldenSpec{}
		for _, b := range suite {
			out, st, err := nativeRun(b, size)
			if err != nil {
				return err
			}
			g.Spec[size.String()][b.Name] = goldenSpec{SHA256: sha(out), Cycles: st.Cycles, WarpInstrs: st.WarpInstrs}
		}
	}
	tool, _, err := memtraceRun()
	if err != nil {
		return err
	}
	g.MemtraceRecords = tool.Stats().Delivered
	for _, p := range daemonKinds() {
		text, err := standaloneReport(p)
		if err != nil {
			return err
		}
		g.DaemonReports[p.key()] = sha([]byte(text))
	}
	for seed := uint64(1); seed <= goldenCampaignSeeds; seed++ {
		dir := filepath.Join(tmp, fmt.Sprintf("golden-campaign-%d", seed))
		c, err := campaign.Plan(dir, campaignConfig(seed))
		if err != nil {
			return err
		}
		if _, err := c.Run(2, 0); err != nil {
			return err
		}
		rep := c.Report()
		g.Campaign[fmt.Sprint(seed)] = goldenOutcome{Masked: rep.Masked.Count, SDC: rep.SDC.Count, DUE: rep.DUE.Count}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&g); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
