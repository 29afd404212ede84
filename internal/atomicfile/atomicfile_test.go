package atomicfile

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tempFiles returns the names of dir's tmp-* entries.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var tmps []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "tmp-") {
			tmps = append(tmps, e.Name())
		}
	}
	return tmps
}

func TestWriteReplacesWhole(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, bytes.Repeat([]byte("old "), 1000), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, []byte("head,"), nil, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "head,tail" {
		t.Fatalf("file holds %q, want %q", got, "head,tail")
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if m := st.Mode().Perm(); m != 0o600 {
		t.Fatalf("mode %v, want 0600", m)
	}
	if tmps := tempFiles(t, dir); len(tmps) != 0 {
		t.Fatalf("temp files left: %v", tmps)
	}
}

// TestWriteFailureLeavesNothing covers the two ways a publish fails: the
// rename (path is a non-empty directory) and the temp file (path's directory
// does not exist). Each returns an error, leaves no tmp-* entry and leaves
// what was at path as it was.
func TestWriteFailureLeavesNothing(t *testing.T) {
	t.Run("rename", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "f")
		if err := os.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
		inside := filepath.Join(path, "kept")
		if err := os.WriteFile(inside, []byte("previous"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := Write(path, []byte("new")); err == nil {
			t.Fatal("Write over a non-empty directory succeeded")
		}
		if tmps := tempFiles(t, dir); len(tmps) != 0 {
			t.Fatalf("temp files left: %v", tmps)
		}
		if got, err := os.ReadFile(inside); err != nil || string(got) != "previous" {
			t.Fatalf("previous contents = %q, %v", got, err)
		}
	})
	t.Run("no-parent", func(t *testing.T) {
		dir := t.TempDir()
		prev := filepath.Join(dir, "f")
		if err := os.WriteFile(prev, []byte("previous"), 0o644); err != nil {
			t.Fatal(err)
		}
		missing := filepath.Join(dir, "gone")
		if err := Write(filepath.Join(missing, "f"), []byte("new")); err == nil {
			t.Fatal("Write into a missing directory succeeded")
		}
		if tmps := tempFiles(t, dir); len(tmps) != 0 {
			t.Fatalf("temp files left: %v", tmps)
		}
		if _, err := os.Stat(missing); !os.IsNotExist(err) {
			t.Fatalf("missing directory: %v", err)
		}
		if got, err := os.ReadFile(prev); err != nil || string(got) != "previous" {
			t.Fatalf("previous contents = %q, %v", got, err)
		}
	})
}
