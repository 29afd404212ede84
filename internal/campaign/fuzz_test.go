package campaign

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzLoadCampaign feeds Load any bytes as plan.json and results.json (an
// empty results input means there is no results.json). Load either opens the
// campaign or refuses it with an error that names the file and then the field
// or run at fault. A plan it opens maps every planned target to a launch and
// CTA whose range holds it, so no run arms a CTA the victim does not have.
// The seeds are a fresh plan with three results, and the version-1 and
// version-2 fixtures, whose plans have no CTA counts.
func FuzzLoadCampaign(f *testing.F) {
	fresh := f.TempDir()
	c, err := Plan(fresh, smallCfg(8, 3))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := c.Run(2, 3); err != nil {
		f.Fatal(err)
	}
	for _, dir := range []string{fresh, filepath.Join("testdata", "v1"), filepath.Join("testdata", "v2")} {
		plan, err := os.ReadFile(filepath.Join(dir, planName))
		if err != nil {
			f.Fatal(err)
		}
		results, err := os.ReadFile(filepath.Join(dir, resultsName))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(plan, results)
	}
	f.Fuzz(func(t *testing.T, plan, results []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, planName), plan, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(results) > 0 {
			if err := os.WriteFile(filepath.Join(dir, resultsName), results, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		c, err := Load(dir)
		if err != nil {
			if msg := err.Error(); !strings.HasPrefix(msg, "campaign: ") ||
				!strings.Contains(msg, planName) && !strings.Contains(msg, resultsName) {
				t.Fatalf("the refusal names neither file: %v", err)
			}
			return
		}
		launches := c.plan.Launches
		for _, spec := range c.plan.Manifest {
			target := spec.Injection.Target
			k, cta, base := c.targetLaunch(target)
			if k >= len(launches) || cta >= len(launches[k].CTAs) ||
				target < base || target-base >= launches[k].CTAs[cta] {
				t.Fatalf("run %d: target %d maps to launch %d CTA %d from %d, outside the table %v",
					spec.ID, target, k, cta, base, launches)
			}
		}
	})
}
