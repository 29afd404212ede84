// Package atomicfile publishes a file whole. Write puts the bytes in a temp
// file beside the target and renames it over the target, so a reader — or a
// later run after the writer was killed at any instant — sees either the old
// file or the complete new one, never a torn one.
//
// There is no fsync: both users (the JIT cache's entries and a campaign's
// plan.json and results.json) can lose their latest publish to a power cut
// and recover, while a flush per file would make a cold JIT run
// publish-bound. A killed writer can leave a tmp-* file behind; nothing
// reads it.
package atomicfile

import (
	"os"
	"path/filepath"
)

// Write publishes the concatenation of parts at path, with mode 0600. The
// temp file is created in path's directory, so the rename never crosses
// filesystems, and it is removed on any failure.
func Write(path string, parts ...[]byte) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), "tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	for _, p := range parts {
		if _, err = f.Write(p); err != nil {
			return err
		}
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
