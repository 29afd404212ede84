package jitcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"nvbitgo/internal/atomicfile"
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

// objectsDir is the subdirectory holding entry files; atomicfile's temp
// files live beside them.
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

// diskPut publishes one entry through atomicfile, so readers never observe a
// torn one, and counts its payload in BytesWritten. No fsync: this is a
// cache, not a database — an entry torn by a power cut fails the header
// checksum on its first read and is evicted (diskGet), which only costs one
// re-JIT, whereas fsync-per-entry makes cold runs publish-bound (~3 ms/entry
// on a loaded filesystem vs ~100 µs of codegen for a small kernel).
func (c *Cache) diskPut(key Key, payload []byte) error {
	if c.dir == "" {
		return nil
	}
	var hdr [diskHeaderSize]byte
	copy(hdr[:4], diskMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], diskVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(hdr[16:], sum[:])
	path := c.objectPath(key)
	err := atomicfile.Write(path, hdr[:], payload)
	if errors.Is(err, fs.ErrNotExist) {
		// The directory may have been removed behind us; recreate once.
		if err = c.initDir(); err == nil {
			err = atomicfile.Write(path, hdr[:], payload)
		}
	}
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.stats.BytesWritten += uint64(len(payload))
	c.mu.Unlock()
	return nil
}

// diskDelete removes one entry file, ignoring absence.
func (c *Cache) diskDelete(key Key) {
	if c.dir == "" {
		return
	}
	os.Remove(c.objectPath(key))
}
