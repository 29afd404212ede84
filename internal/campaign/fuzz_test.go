package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nvbitgo/internal/tools/faultinject"
)

// FuzzLoadCampaign feeds Load any bytes as plan.json, results.json and
// results.log (an empty input means there is no such file). Load either
// opens the campaign or refuses it with an error that names the file and
// then the field, line or run at fault. A plan it opens holds exactly the
// manifest its config draws, and maps every planned target to a launch and
// CTA whose range holds it, so no run arms a CTA the victim does not have;
// and compacting the results it read into results.json loads back the same
// results.
// The seeds are a fresh plan with three results, as results.json and as a
// killed Run's log with a torn last line, and the version-1 and version-2
// fixtures, whose plans have no CTA counts.
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
		f.Add(plan, results, []byte{})
	}
	plan, err := os.ReadFile(filepath.Join(fresh, planName))
	if err != nil {
		f.Fatal(err)
	}
	var log []byte
	for _, r := range c.Results() {
		line, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		log = append(append(log, line...), '\n')
	}
	f.Add(plan, []byte{}, log[:len(log)-7])
	f.Fuzz(func(t *testing.T, plan, results, log []byte) {
		dir := t.TempDir()
		for name, data := range map[string][]byte{planName: plan, resultsName: results, logName: log} {
			if len(data) == 0 && name != planName {
				continue
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		c, err := Load(dir)
		if err != nil {
			if msg := err.Error(); !strings.HasPrefix(msg, "campaign: ") ||
				!strings.Contains(msg, planName) && !strings.Contains(msg, resultsName) && !strings.Contains(msg, logName) {
				t.Fatalf("the refusal names no file: %v", err)
			}
			return
		}
		group, err := faultinject.ParseGroup(c.plan.Config.Group)
		if err != nil {
			t.Fatal(err)
		}
		if want := drawManifest(c.plan.Config, group, c.plan.Space); !slices.Equal(c.plan.Manifest, want) {
			t.Fatalf("loaded manifest %v, the config draws %v", c.plan.Manifest, want)
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
		if err := c.compact(); err != nil {
			t.Fatal(err)
		}
		again, err := Load(dir)
		if err != nil {
			t.Fatalf("the compacted campaign does not load: %v", err)
		}
		if !slices.Equal(again.Results(), c.Results()) {
			t.Fatalf("compacted results load back as %v, want %v", again.Results(), c.Results())
		}
	})
}
