package cliconf

import (
	"flag"
	"strings"
	"testing"
)

func newTestSet() (*flag.FlagSet, *Set, *string, *int, *bool) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	s := New(fs)
	tool := s.String("tool", "", "tool name")
	workers := s.Int("workers", 4, "parallel workers")
	metrics := s.Bool("metrics", false, "print metrics")
	return fs, s, tool, workers, metrics
}

func TestEnvName(t *testing.T) {
	for in, want := range map[string]string{
		"tool":      "NVBIT_TOOL",
		"jit-cache": "NVBIT_JIT_CACHE",
		"fi-target": "NVBIT_FI_TARGET",
	} {
		if got := envName(in); got != want {
			t.Errorf("envName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPrecedenceFlagOverEnv(t *testing.T) {
	t.Setenv("NVBIT_TOOL", "memdiv")
	t.Setenv("NVBIT_WORKERS", "9")
	fs, s, tool, workers, _ := newTestSet()
	if err := fs.Parse([]string{"-tool", "itrace"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Resolve(); err != nil {
		t.Fatal(err)
	}
	if *tool != "itrace" {
		t.Errorf("flag should beat env: tool = %q", *tool)
	}
	if *workers != 9 {
		t.Errorf("env should beat default: workers = %d", *workers)
	}
	if !s.Explicit("tool") || !s.Explicit("workers") {
		t.Error("flag- and env-supplied values should both be Explicit")
	}
	if s.Explicit("metrics") {
		t.Error("defaulted flag should not be Explicit")
	}
}

func TestEnvDefaultAndMalformed(t *testing.T) {
	t.Setenv("NVBIT_METRICS", "true")
	fs, s, tool, workers, metrics := newTestSet()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Resolve(); err != nil {
		t.Fatal(err)
	}
	if *tool != "" || *workers != 4 {
		t.Errorf("defaults clobbered: tool=%q workers=%d", *tool, *workers)
	}
	if !*metrics {
		t.Error("env bool not applied")
	}

	t.Setenv("NVBIT_WORKERS", "lots")
	fs2, s2, _, _, _ := newTestSet()
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	err := s2.Resolve()
	if err == nil || !strings.Contains(err.Error(), "NVBIT_WORKERS") {
		t.Errorf("malformed env should fail naming the variable, got %v", err)
	}
}

func TestTableMarkdown(t *testing.T) {
	_, s, _, _, _ := newTestSet()
	table := s.TableMarkdown()
	for _, want := range []string{
		"| Flag | Environment | Default | Description |",
		"| `-tool` | `NVBIT_TOOL` |  | tool name |",
		"| `-workers` | `NVBIT_WORKERS` | `4` | parallel workers |",
	} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	// Sorted by flag name.
	if strings.Index(table, "`-metrics`") > strings.Index(table, "`-tool`") {
		t.Error("table not sorted by flag name")
	}
}
