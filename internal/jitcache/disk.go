package jitcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// On-disk entry layout, little-endian:
//
//	offset  size  field
//	0       4     magic "NVJC"
//	4       4     format version
//	8       8     payload length
//	16      32    SHA-256 of the payload
//	48      n     payload
//
// The key is derived from the entry's *inputs* (it is a content address of
// what produced the blob, not of the blob itself), so integrity needs the
// explicit payload checksum: a bit flip anywhere in the payload, a short
// read, a bad magic or a version skew all fail validation and evict the
// file.
const (
	diskMagic      = "NVJC"
	diskVersion    = 1
	diskHeaderSize = 4 + 4 + 8 + sha256.Size
)

// objectsDir is the subdirectory holding entry files; temp files for
// atomic publication live beside them so rename never crosses filesystems.
const objectsDir = "objects"

func (c *Cache) initDir() error {
	return os.MkdirAll(filepath.Join(c.dir, objectsDir), 0o755)
}

func (c *Cache) objectPath(key Key) string {
	return filepath.Join(c.dir, objectsDir, key.String())
}

// diskGet reads and validates one entry. Any validation failure — wrong
// magic, unknown version, length mismatch (truncation), checksum mismatch
// (corruption) — evicts the file and reports a miss, so the caller falls
// back to a fresh JIT instead of failing the launch.
func (c *Cache) diskGet(key Key) ([]byte, bool) {
	if c.dir == "" {
		return nil, false
	}
	path := c.objectPath(key)
	f, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	payload, err := readEntry(f)
	f.Close()
	if err != nil {
		os.Remove(path)
		c.mu.Lock()
		c.stats.CorruptEvicted++
		c.mu.Unlock()
		return nil, false
	}
	return payload, true
}

// readEntry checks an entry file's header against the file's size before it
// reads, and allocates for, the payload: what a foreign or torn file under an
// entry's name costs is its first diskHeaderSize bytes, whatever its length.
// It returns the payload once its checksum holds.
func readEntry(f *os.File) ([]byte, error) {
	var hdr [diskHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("jitcache: entry truncated below header: %w", err)
	}
	if string(hdr[:4]) != diskMagic {
		return nil, fmt.Errorf("jitcache: bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != diskVersion {
		return nil, fmt.Errorf("jitcache: entry format version %d, want %d", v, diskVersion)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint64(hdr[8:16])
	if have := st.Size() - diskHeaderSize; n != uint64(have) {
		return nil, fmt.Errorf("jitcache: entry payload length %d, have %d bytes", n, have)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(f, payload); err != nil {
		return nil, fmt.Errorf("jitcache: reading entry payload: %w", err)
	}
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], hdr[16:]) {
		return nil, fmt.Errorf("jitcache: entry payload checksum mismatch")
	}
	return payload, nil
}

// diskPut atomically publishes one entry: the header+payload are written to
// a temp file in the objects directory and renamed over the final name. A
// writer that crashes mid-write leaves only a temp file the store never
// reads; rename is atomic on POSIX, so readers observe either the old state
// or the complete new entry, never a torn one. No fsync: this is a cache,
// not a database — an entry torn by a power cut fails the header checksum
// on its first read and is evicted (diskGet), which only costs one re-JIT,
// whereas fsync-per-entry makes cold runs publish-bound (~3 ms/entry on a
// loaded filesystem vs ~100 µs of codegen for a small kernel). Returns the
// payload bytes written (0 on failure).
func (c *Cache) diskPut(key Key, payload []byte) (uint64, error) {
	if c.dir == "" {
		return 0, nil
	}
	dir := filepath.Join(c.dir, objectsDir)
	f, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		// The directory may have been removed behind us; recreate once.
		if err := c.initDir(); err != nil {
			return 0, err
		}
		if f, err = os.CreateTemp(dir, "tmp-*"); err != nil {
			return 0, err
		}
	}
	tmp := f.Name()
	cleanup := func(err error) (uint64, error) {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	var hdr [diskHeaderSize]byte
	copy(hdr[:4], diskMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], diskVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(hdr[16:], sum[:])
	if _, err := f.Write(hdr[:]); err != nil {
		return cleanup(err)
	}
	if _, err := f.Write(payload); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, c.objectPath(key)); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return uint64(len(payload)), nil
}

// diskDelete removes one entry file, ignoring absence.
func (c *Cache) diskDelete(key Key) {
	if c.dir == "" {
		return
	}
	os.Remove(c.objectPath(key))
}
