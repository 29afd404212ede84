package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
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
// directory is made: -jit-cache by the run, -inject by the none tool's
// registry row. The run itself still works without them.
func TestToolNoneRefusesJITFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		env  []string
		args []string
		want string
	}{
		{"jit-cache", nil, []string{"-tool", "none", "-jit-cache", "DIR"}, "-jit-cache is not available with -tool none"},
		{"inject, no tool named", nil, []string{"-inject", "full-save"}, "tool none does not read inject"},
		{"inject from the environment", []string{"NVBIT_INJECT=inline"}, []string{"-tool", "none"}, "tool none does not read inject"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "d")
			args := []string{"-workload", "specaccel:cg", "-size", "small"}
			for _, a := range tc.args {
				args = append(args, strings.ReplaceAll(a, "DIR", dir))
			}
			code, stderr := runMain(t, tc.env, args...)
			if code != exitUsage || !strings.Contains(stderr, tc.want) {
				t.Errorf("exit %d, stderr %q; want exit %d naming %q", code, stderr, exitUsage, tc.want)
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

// modeRows is what each mode and tool reads, one cell per column of
// modeColumns (spaces group them): "r" where the run reads the flag, "." where
// it refuses it naming the flag (the mode does, or for -jit-cache the run
// with a tool that instruments nothing), "t" where the tool's registry row
// refuses it naming the tool and the field, "-" where the flag would change
// the column's mode and the cell is not run. docs/nvbit-run.md's Modes and
// Tools columns say the same.
var modeRows = map[string]string{
	"backpressure":      "rttt rttt .",
	"campaign":          "---- ---- -",
	"campaign-max-runs": ".... .... r",
	"campaign-runs":     ".... .... r",
	"connect":           "---- ---- .",
	"cpuprofile":        "rrrr rrrr r",
	"family":            "rrrr .... .",
	"fi-bit":            "trtt trtt .",
	"fi-group":          "trtt trtt r",
	"fi-model":          "trtt trtt r",
	"fi-target":         "trtt trtt .",
	"fi-value":          "trtt trtt .",
	"inject":            "rrrt rrrt .",
	"jit-cache":         "rrr. .... .",
	"metrics":           "rrrr .... .",
	"out":               "---- ---- .",
	"scheduler":         "rrrr .... .",
	"seed":              ".... .... r",
	"size":              "rrrr rrrr r",
	"tool":              "---- ---- .",
	"trace":             "rrrr .... .",
	"workers":           ".... .... r",
	"workload":          "rrrr rrrr r",
}

// TestModeFlagTable runs every flag in every mode: standalone and connect,
// each with a channel tool, faultinject, instrcount and -tool none, and
// campaign. A run either reads the flag or refuses it with exit 64, naming
// the flag or, where the tool's row does not read its spec field, the tool
// and the field; none ignores one. The runs that read it are cut short by an
// -out file that cannot be created or a campaign plan that cannot be read, so
// each exits 1 at once.
func TestModeFlagTable(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "missing", "report")
	sock := filepath.Join(dir, "no.sock")
	plan := filepath.Join(dir, "campaign")
	if err := os.Mkdir(plan, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(plan, "plan.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	type column struct {
		name, tool string
		args       []string
	}
	var modeColumns []column
	for _, mode := range []struct {
		name string
		args []string
	}{{"standalone", nil}, {"connect", []string{"-connect=" + sock}}} {
		for _, tool := range []string{"memtrace", "faultinject", "instrcount", "none"} {
			args := append(slices.Clip(mode.args), "-tool="+tool, "-out="+out)
			name := mode.name // instrcount's column is the mode's own
			if tool != "instrcount" {
				name += ", -tool " + tool
			}
			modeColumns = append(modeColumns, column{name, tool, args})
		}
	}
	modeColumns = append(modeColumns, column{"campaign", "", []string{"-campaign=" + plan}})
	values := map[string]string{
		"tool": "instrcount", "connect": sock, "campaign": plan,
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
		row := strings.ReplaceAll(modeRows[f.Name], " ", "")
		if len(row) != len(modeColumns) {
			t.Errorf("-%s: modeRows has %q, want a cell for each of %d columns", f.Name, modeRows[f.Name], len(modeColumns))
			return
		}
		for i, col := range modeColumns {
			// A column's own -tool, -connect or -campaign is read by
			// construction, and -campaign or -connect added to another
			// column makes that column's run a different mode.
			base := strings.Join(col.args, " ")
			skip := strings.Contains(base, "-"+f.Name+"=") || f.Name == "campaign" && col.tool != "" ||
				f.Name == "connect" && strings.HasPrefix(col.name, "standalone")
			if skip != (row[i] == '-') {
				t.Errorf("-%s/%s: cell %q, but the column is %s", f.Name, col.name, row[i], map[bool]string{true: "not run", false: "run"}[skip])
			}
			if skip {
				continue
			}
			t.Run(f.Name+"/"+col.name, func(t *testing.T) {
				t.Parallel()
				args := append([]string{"-workload=specaccel:cg", "-size=small", "-" + f.Name + "=" + values[f.Name]}, col.args...)
				code, stderr := runMain(t, nil, args...)
				var want string
				switch row[i] {
				case '.':
					want = "-" + f.Name + " is not available"
				case 't':
					want = "tool " + col.tool + " does not read " + specField[f.Name]
				}
				if want != "" && (code != exitUsage || !strings.Contains(stderr, want)) {
					t.Errorf("%v: exit %d, stderr %q; want exit %d naming %q", args, code, stderr, exitUsage, want)
				}
				if want == "" && (code != exitFailure || strings.Contains(stderr, "is not available") || strings.Contains(stderr, "does not read")) {
					t.Errorf("%v: exit %d, stderr %q; want the flag read and the run cut short (exit %d)", args, code, stderr, exitFailure)
				}
			})
		}
	})
	for name, field := range specField {
		if in, _ := readers(field); len(in) == 0 {
			t.Errorf("-%s fills %s, which no tool reads", name, field)
		}
	}
}
