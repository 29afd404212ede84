package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs main itself when asked to, so a test can run nvbit-run as a
// process and read its exit code.
func TestMain(m *testing.M) {
	if os.Getenv("NVBITRUN_TEST_AS_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runMain runs nvbit-run with args and the extra environment, and returns its
// exit code and standard error.
func runMain(t *testing.T, env []string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(append(os.Environ(), "NVBITRUN_TEST_AS_MAIN=1"), env...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// TestCampaignRefusesIgnoredFlags: campaign mode reads only its own flags, so
// any other set on the command line or through its NVBIT_* variable is a
// usage error, and no campaign starts.
func TestCampaignRefusesIgnoredFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		env  []string
		args []string
		flag string
	}{
		{"command line", nil, []string{"-family", "kepler"}, "-family"},
		{"environment", []string{"NVBIT_SCHEDULER=parallel"}, nil, "-scheduler"},
		{"connect", nil, []string{"-connect", "nvbitd.sock"}, "-connect"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "c")
			args := append([]string{"-campaign", dir, "-workload", "specaccel:cg", "-size", "small"}, tc.args...)
			code, stderr := runMain(t, tc.env, args...)
			if want := tc.flag + " is not available with -campaign"; code != exitUsage || !strings.Contains(stderr, want) {
				t.Errorf("exit %d, stderr %q; want exit %d naming %q", code, stderr, exitUsage, want)
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Errorf("a refused campaign created %s (%v)", dir, err)
			}
		})
	}
}

// TestToolNoneRefusesJITFlags: a run without a tool instruments nothing, so
// -jit-cache and -inject are usage errors there, refused before the cache
// directory is made; the run itself still works without them.
func TestToolNoneRefusesJITFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		env  []string
		args []string
		flag string
	}{
		{"jit-cache", nil, []string{"-tool", "none", "-jit-cache", "DIR"}, "-jit-cache"},
		{"inject, no tool named", nil, []string{"-inject", "full-save"}, "-inject"},
		{"inject from the environment", []string{"NVBIT_INJECT=inline"}, []string{"-tool", "none"}, "-inject"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "d")
			args := []string{"-workload", "specaccel:cg", "-size", "small"}
			for _, a := range tc.args {
				args = append(args, strings.ReplaceAll(a, "DIR", dir))
			}
			code, stderr := runMain(t, tc.env, args...)
			if want := tc.flag + " is not available with -tool none"; code != exitUsage || !strings.Contains(stderr, want) {
				t.Errorf("exit %d, stderr %q; want exit %d naming %q", code, stderr, exitUsage, want)
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Errorf("a refused run created %s (%v)", dir, err)
			}
		})
	}
	if code, stderr := runMain(t, nil, "-tool", "none", "-workload", "specaccel:cg", "-size", "small"); code != exitOK {
		t.Errorf("-tool none: exit %d, stderr %q", code, stderr)
	}
}

// modeRows is what each mode reads, as docs/nvbit-run.md's Modes column says:
// one letter per column of modeColumns, "." where the mode refuses the flag.
var modeRows = map[string]string{
	"backpressure":      "S.C..",
	"campaign":          "....K",
	"campaign-max-runs": "....K",
	"campaign-runs":     "....K",
	"connect":           "..Cc.",
	"cpuprofile":        "SsCcK",
	"family":            "Ss...",
	"fi-bit":            "S.C..",
	"fi-group":          "S.C.K",
	"fi-model":          "S.C.K",
	"fi-target":         "S.C..",
	"fi-value":          "S.C..",
	"inject":            "S.C..",
	"jit-cache":         "S....",
	"metrics":           "Ss...",
	"out":               "SsCc.",
	"scheduler":         "Ss...",
	"seed":              "....K",
	"size":              "SsCcK",
	"tool":              "SsCc.",
	"trace":             "Ss...",
	"workers":           "....K",
	"workload":          "SsCcK",
}

// TestModeFlagTable runs every flag in every mode: standalone and connect,
// each with a tool and with -tool none, and campaign. A mode either reads
// the flag or refuses it with exit 64 naming it; none ignores one. The runs
// a mode accepts are cut short by an -out file that cannot be created or a
// campaign plan that cannot be read, so each exits 1 at once.
func TestModeFlagTable(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "missing", "report")
	plan := filepath.Join(dir, "campaign")
	if err := os.Mkdir(plan, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(plan, "plan.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	modeColumns := []struct {
		name string
		args []string
	}{
		{"standalone", []string{"-tool=instrcount", "-out=" + out}},
		{"standalone, -tool none", []string{"-tool=none", "-out=" + out}},
		{"connect", []string{"-connect=" + filepath.Join(dir, "no.sock"), "-tool=instrcount", "-out=" + out}},
		{"connect, -tool none", []string{"-connect=" + filepath.Join(dir, "no.sock"), "-tool=none", "-out=" + out}},
		{"campaign", []string{"-campaign=" + plan}},
	}
	values := map[string]string{
		"tool": "instrcount", "connect": filepath.Join(dir, "no.sock"), "campaign": plan,
		"backpressure": "block", "campaign-max-runs": "3", "campaign-runs": "5",
		"cpuprofile": filepath.Join(dir, "cpu.prof"), "family": "kepler",
		"fi-bit": "3", "fi-group": "fp32", "fi-model": "rand", "fi-target": "9", "fi-value": "7",
		"inject": "inline", "jit-cache": filepath.Join(dir, "jit"), "metrics": "true", "out": out,
		"scheduler": "parallel", "seed": "9", "size": "small", "trace": filepath.Join(dir, "t.json"),
		"workers": "8", "workload": "specaccel:cg",
	}
	fs := flag.NewFlagSet("nvbit-run", flag.ContinueOnError)
	newFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		row, ok := modeRows[f.Name]
		if !ok {
			t.Errorf("-%s has no row in modeRows", f.Name)
			return
		}
		for i, col := range modeColumns {
			base := strings.Join(col.args, " ")
			// A column's own -tool, -connect or -campaign is read by
			// construction, and -campaign or -connect added to another
			// column makes that column's run a different mode.
			if strings.Contains(base, "-"+f.Name+"=") || f.Name == "campaign" && i < 4 || f.Name == "connect" && i < 2 {
				continue
			}
			t.Run(f.Name+"/"+col.name, func(t *testing.T) {
				t.Parallel()
				args := append([]string{"-workload=specaccel:cg", "-size=small", "-" + f.Name + "=" + values[f.Name]}, col.args...)
				code, stderr := runMain(t, nil, args...)
				refused := strings.Contains(stderr, "-"+f.Name+" is not available")
				if row[i] == '.' && (code != exitUsage || !refused) {
					t.Errorf("%v: exit %d, stderr %q; want exit %d refusing -%s", args, code, stderr, exitUsage, f.Name)
				}
				if row[i] != '.' && (code != exitFailure || strings.Contains(stderr, "is not available")) {
					t.Errorf("%v: exit %d, stderr %q; want the flag read and the run cut short (exit %d)", args, code, stderr, exitFailure)
				}
			})
		}
	})
}
