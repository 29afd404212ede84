package jitcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadEntry writes arbitrary bytes under an entry's object path and reads
// them through a cold cache: Get either serves a payload whose header and
// checksum hold, or misses, counts one corrupt eviction and removes the file.
//
//	go test -run '^$' -fuzz FuzzReadEntry -fuzztime 10s ./internal/jitcache
func FuzzReadEntry(f *testing.F) {
	dir := f.TempDir()
	seed, err := New(dir, 0)
	if err != nil {
		f.Fatal(err)
	}
	k := keyOf("entry")
	if err := seed.Put(k, []byte("a cached artifact")); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, objectsDir, k.String()))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:diskHeaderSize])
	f.Add(valid[:len(valid)-1])
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-1] ^= 1
	f.Add(flipped)
	huge := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(huge[8:16], 1<<62)
	f.Add(huge)
	f.Add([]byte{})
	f.Add([]byte(diskMagic))

	path := filepath.Join(dir, objectsDir, k.String())
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := New(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := c.Get(k)
		st := c.Stats()
		if ok {
			if len(raw) < diskHeaderSize || string(raw[:4]) != diskMagic ||
				binary.LittleEndian.Uint32(raw[4:8]) != diskVersion ||
				binary.LittleEndian.Uint64(raw[8:16]) != uint64(len(raw)-diskHeaderSize) {
				t.Fatalf("served %d bytes from an entry whose header does not hold", len(got))
			}
			if sum := sha256.Sum256(got); !bytes.Equal(sum[:], raw[16:diskHeaderSize]) || !bytes.Equal(got, raw[diskHeaderSize:]) {
				t.Fatal("served a payload that does not match its checksum")
			}
			if st.DiskHits != 1 || st.CorruptEvicted != 0 {
				t.Fatalf("hit stats = %+v", st)
			}
			return
		}
		if st.Misses != 1 || st.CorruptEvicted != 1 {
			t.Fatalf("miss stats = %+v, want one miss and one corrupt eviction", st)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("rejected entry still on disk: %v", err)
		}
	})
}
