package main

import (
	"errors"
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
