package jitcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func keyOf(s string) Key {
	h := NewHasher("test/v1")
	h.String(s)
	return h.Sum()
}

func TestFingerprintFieldBoundaries(t *testing.T) {
	// Adjacent variable-length fields must not collide by concatenation.
	a := NewHasher("d")
	a.String("ab")
	a.String("c")
	b := NewHasher("d")
	b.String("a")
	b.String("bc")
	if a.Sum() == b.Sum() {
		t.Fatal("length-prefixed fields collided across a boundary shift")
	}
	// Domain separation.
	c1 := NewHasher("d1")
	c1.String("x")
	c2 := NewHasher("d2")
	c2.String("x")
	if c1.Sum() == c2.Sum() {
		t.Fatal("distinct domains produced the same key")
	}
	// Determinism.
	d1 := NewHasher("d")
	d1.Uint64(7)
	d1.Bool(true)
	d1.Bytes([]byte{1, 2, 3})
	d2 := NewHasher("d")
	d2.Uint64(7)
	d2.Bool(true)
	d2.Bytes([]byte{1, 2, 3})
	if d1.Sum() != d2.Sum() {
		t.Fatal("identical field sequences produced different keys")
	}
}

// TestHasherDigestGolden pins the byte stream behind a key: digests recorded
// with the hasher that wrote each field straight to SHA-256, which a cache
// directory primed by an older binary depends on. The sequences cover every
// field method, a string longer than the hasher's buffer, and byte fields
// that end just short of, on and just past the point where it flushes.
func TestHasherDigestGolden(t *testing.T) {
	// The field sizes below are fixed, as the digests are; they were chosen
	// around this buffer length.
	const bufLen = 512
	if n := len((&Hasher{}).buf); n != bufLen {
		t.Fatalf("the hasher buffers %d bytes; choose field sizes around that and keep the old ones", n)
	}
	pattern := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*7 + n)
		}
		return b
	}
	fields := func(h *Hasher) {
		h.Uint64(0xfeedfacecafebeef)
		h.Int(-2)
		h.Int(-3)
		h.Bool(true)
		h.Bool(false)
		h.String("")
		h.Bytes(nil)
		h.String("instrcount_tally")
	}
	cases := []struct {
		name string
		feed func(h *Hasher)
		want string
	}{
		{"domain only", func(*Hasher) {}, "926ebe3232c5a1c4d6c8a1de44b680b57f3cd6f4907c50420b95e53b737cb37c"},
		{"every field method", fields, "5d90dd53c602a4bc4967206d23d3f0e9f547d80f3f387a300c320d2b1dcb9490"},
		{"string longer than the buffer", func(h *Hasher) {
			h.String(string(pattern(3*bufLen + 5)))
			fields(h)
		}, "ce06514a12dc77bf343504a5a6614dc7801d60ba343a02ecf47b15cc4f3c40d4"},
		{"bytes straddling a flush", func(h *Hasher) {
			for _, n := range []int{bufLen - 64, 1, 7, 8, 9, bufLen, 2*bufLen + 3} {
				fields(h)
				h.Bytes(pattern(n))
			}
			h.Int(1)
		}, "06c6e3566abfaa963803ada54802dfe68c65610d993e4865d15417b44d758147"},
	}
	for _, c := range cases {
		h := NewHasher("nvbitgo/golden/v1")
		c.feed(h)
		if got := h.Sum().String(); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestHasherNarrowFields: one- and four-byte fields hash as their bytes in
// order, wherever in the buffer they fall. Field widths cycle with period 13
// bytes against the 512-byte buffer, so a flush meets every field at every
// offset.
func TestHasherNarrowFields(t *testing.T) {
	h := NewHasher("d")
	want := binary.LittleEndian.AppendUint64(nil, 1)
	want = append(want, 'd')
	for i := 0; i < 4096; i++ {
		h.Uint8(uint8(i))
		h.Uint32(uint32(i) * 0x01010101)
		h.Uint64(uint64(i) << 40)
		want = append(want, uint8(i))
		want = binary.LittleEndian.AppendUint32(want, uint32(i)*0x01010101)
		want = binary.LittleEndian.AppendUint64(want, uint64(i)<<40)
	}
	if got := h.Sum(); got != Key(sha256.Sum256(want)) {
		t.Errorf("digest %s is not that of the fields' bytes", got)
	}
}

func TestMemoryRoundtrip(t *testing.T) {
	c, err := New("", 0)
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf("k")
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	want := []byte("payload")
	if err := c.Put(k, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(k)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, want)
	}
	st := c.Stats()
	if st.Lookups != 2 || st.Hits != 1 || st.Misses != 1 || st.MemHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	c.Delete(k)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit after Delete")
	}
}

func TestDiskRoundtripAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf("persist")
	want := []byte("survives process restart")
	if err := c1.Put(k, want); err != nil {
		t.Fatal(err)
	}
	// A fresh instance (modeling a new process) must hit from disk.
	c2, err := New(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(k)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("cross-instance Get = %q, %v; want %q, true", got, ok, want)
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.BytesRead != uint64(len(want)) {
		t.Fatalf("stats = %+v", st)
	}
	// The disk hit must have been promoted into memory.
	if _, ok := c2.Get(k); !ok {
		t.Fatal("no hit after promotion")
	}
	if st := c2.Stats(); st.MemHits != 1 {
		t.Fatalf("disk hit not promoted to memory: %+v", st)
	}
}

// TestPutRecreatesObjectsDir removes <dir>/objects between two Puts: the
// second recreates it once and publishes, and a new instance serves the entry
// from disk.
func TestPutRecreatesObjectsDir(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put(keyOf("before"), []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, objectsDir)); err != nil {
		t.Fatal(err)
	}
	k, want := keyOf("after"), []byte("published after the directory went away")
	if err := c1.Put(k, want); err != nil {
		t.Fatalf("Put after removing %s: %v", objectsDir, err)
	}
	if st := c1.Stats(); st.BytesWritten != uint64(len("first")+len(want)) {
		t.Fatalf("BytesWritten = %d, want %d", st.BytesWritten, len("first")+len(want))
	}
	c2, err := New(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(k)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("fresh instance Get = %q, %v; want %q, true", got, ok, want)
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Fatalf("not a disk hit: %+v", st)
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	c, err := New("", 100)
	if err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, 40)
	for i := 0; i < 3; i++ {
		c.Put(keyOf(fmt.Sprintf("k%d", i)), blob)
	}
	// 3×40 > 100: k0 (oldest) must have been evicted.
	if _, ok := c.Get(keyOf("k0")); ok {
		t.Fatal("oldest entry not evicted")
	}
	for i := 1; i < 3; i++ {
		if _, ok := c.Get(keyOf(fmt.Sprintf("k%d", i))); !ok {
			t.Fatalf("k%d evicted prematurely", i)
		}
	}
	st := c.Stats()
	if st.Evicted != 1 {
		t.Fatalf("Evicted = %d, want 1", st.Evicted)
	}
	if st.MemBytes > 100 || st.MemEntries != 2 {
		t.Fatalf("gauges = %d bytes / %d entries", st.MemBytes, st.MemEntries)
	}
	// Touching k1 makes k2 the LRU victim for the next insert.
	c.Get(keyOf("k1"))
	c.Put(keyOf("k3"), blob)
	if _, ok := c.Get(keyOf("k1")); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := c.Get(keyOf("k2")); ok {
		t.Fatal("LRU victim survived")
	}
	// A blob larger than the whole budget bypasses the memory tier without
	// flushing existing entries.
	c.Put(keyOf("huge"), make([]byte, 200))
	if _, ok := c.Get(keyOf("huge")); ok {
		t.Fatal("oversized blob kept in a memory-only cache")
	}
	if _, ok := c.Get(keyOf("k3")); !ok {
		t.Fatal("oversized insert flushed resident entries")
	}
}

// entryPath returns the on-disk object file for key, failing if absent.
func entryPath(t *testing.T, c *Cache, key Key) string {
	t.Helper()
	p := filepath.Join(c.Dir(), "objects", key.String())
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("entry file missing: %v", err)
	}
	return p
}

// freshDiskPair stores a payload through one instance and returns a second,
// cold instance whose only copy is the disk entry.
func freshDiskPair(t *testing.T, payload []byte) (*Cache, Key) {
	t.Helper()
	dir := t.TempDir()
	c1, err := New(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf("victim")
	if err := c1.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	c2, err := New(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c2, k
}

func TestCorruptEntryBitFlipEvicted(t *testing.T) {
	payload := []byte("bytes that will be damaged on disk")
	c, k := freshDiskPair(t, payload)
	p := entryPath(t, c, k)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[diskHeaderSize+5] ^= 0x40 // flip one payload bit
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("bit-flipped entry served")
	}
	st := c.Stats()
	if st.CorruptEvicted != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not evicted from disk")
	}
	// The store must heal: a fresh Put/Get cycle works again.
	if err := c.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	c2, _ := New(c.Dir(), 0)
	if got, ok := c2.Get(k); !ok || !bytes.Equal(got, payload) {
		t.Fatal("store did not heal after eviction")
	}
}

func TestTruncatedEntryEvicted(t *testing.T) {
	for _, n := range []int{0, 3, diskHeaderSize - 1, diskHeaderSize + 4} {
		t.Run(fmt.Sprintf("len=%d", n), func(t *testing.T) {
			c, k := freshDiskPair(t, []byte("a payload long enough to truncate meaningfully"))
			p := entryPath(t, c, k)
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, raw[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get(k); ok {
				t.Fatal("truncated entry served")
			}
			if st := c.Stats(); st.CorruptEvicted != 1 {
				t.Fatalf("stats = %+v", st)
			}
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Fatal("truncated entry not evicted")
			}
		})
	}
}

func TestVersionMismatchEvicted(t *testing.T) {
	c, k := freshDiskPair(t, []byte("payload"))
	p := entryPath(t, c, k)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[4]++ // bump the format version; checksum still valid
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("version-skewed entry served")
	}
	if st := c.Stats(); st.CorruptEvicted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBadMagicEvicted(t *testing.T) {
	c, k := freshDiskPair(t, []byte("payload"))
	p := entryPath(t, c, k)
	if err := os.WriteFile(p, []byte("JUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNK--"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("foreign file served")
	}
	if st := c.Stats(); st.CorruptEvicted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestOversizedForeignEntryBounded: a file under a live key's name costs a
// lookup its header, not its length. 64 MiB of zeros is evicted on the magic
// having allocated almost nothing; so is a file whose valid header declares a
// payload shorter than what follows it.
func TestOversizedForeignEntryBounded(t *testing.T) {
	const planted = 64 << 20
	for name, header := range map[string]func(raw []byte){
		"zeros":                   func([]byte) {},
		"header of a short entry": func(raw []byte) { copy(raw, "NVJC\x01\x00\x00\x00\x07") },
	} {
		t.Run(name, func(t *testing.T) {
			c, k := freshDiskPair(t, []byte("payload"))
			p := entryPath(t, c, k)
			hdr := make([]byte, diskHeaderSize)
			header(hdr)
			if err := os.WriteFile(p, hdr, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(p, planted); err != nil { // sparse: reads as zeros
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, ok := c.Get(k)
			runtime.ReadMemStats(&after)
			if ok {
				t.Fatal("foreign file served")
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
				t.Errorf("rejecting a %d-byte file allocated %d bytes, want under 64 KiB", planted, got)
			}
			if st := c.Stats(); st.CorruptEvicted != 1 {
				t.Fatalf("stats = %+v", st)
			}
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Fatal("foreign file not evicted")
			}
		})
	}
}

func TestDoSingleflight(t *testing.T) {
	c, err := New("", 0)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	var gens atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([][]byte, goroutines)
	hits := make([]bool, goroutines)
	k := keyOf("shared")
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, hit, err := c.Do(k, func() ([]byte, error) {
				gens.Add(1)
				<-release // hold the flight open so every goroutine joins it
				return []byte("generated once"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], hits[i] = data, hit
		}(i)
	}
	// Release the generator only once every caller has looked the key up: a
	// lookup made while the flight is open joins it, whereas one made after
	// it lands is a plain memory hit and would not count as coalesced.
	for c.Stats().Lookups < goroutines {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := gens.Load(); n != 1 {
		t.Fatalf("generator ran %d times, want 1", n)
	}
	nHit := 0
	for i := range results {
		if !bytes.Equal(results[i], []byte("generated once")) {
			t.Fatalf("goroutine %d got %q", i, results[i])
		}
		if hits[i] {
			nHit++
		}
	}
	if nHit != goroutines-1 {
		t.Fatalf("%d coalesced hits, want %d", nHit, goroutines-1)
	}
	st := c.Stats()
	if st.Generations != 1 || st.Coalesced != uint64(goroutines-1) {
		t.Fatalf("stats = %+v", st)
	}
	// A later Do must hit memory without regenerating.
	if _, hit, _ := c.Do(k, func() ([]byte, error) {
		t.Fatal("regenerated a cached key")
		return nil, nil
	}); !hit {
		t.Fatal("post-flight Do missed")
	}
}

func TestDoGenErrorPropagatesAndDoesNotStore(t *testing.T) {
	c, err := New(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf("failing")
	wantErr := fmt.Errorf("synthetic JIT failure")
	if _, _, err := c.Do(k, func() ([]byte, error) { return nil, wantErr }); err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("failed generation was stored")
	}
	// The key must be retryable after a failure.
	data, hit, err := c.Do(k, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || !bytes.Equal(data, []byte("ok")) {
		t.Fatalf("retry = %q, %v, %v", data, hit, err)
	}
}

func TestDoDiskHitSkipsGenerator(t *testing.T) {
	dir := t.TempDir()
	c1, _ := New(dir, 0)
	k := keyOf("warm")
	if err := c1.Put(k, []byte("from disk")); err != nil {
		t.Fatal(err)
	}
	c2, _ := New(dir, 0)
	data, hit, err := c2.Do(k, func() ([]byte, error) {
		t.Fatal("generator ran despite a valid disk entry")
		return nil, nil
	})
	if err != nil || !hit || !bytes.Equal(data, []byte("from disk")) {
		t.Fatalf("Do = %q, %v, %v", data, hit, err)
	}
	if st := c2.Stats(); st.DiskHits != 1 || st.Generations != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	c, err := New(t.TempDir(), 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 8
	var gens atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i := 0; i < keys; i++ {
					k := keyOf(fmt.Sprintf("mixed-%d", i))
					want := []byte(fmt.Sprintf("blob-%d", i))
					data, _, err := c.Do(k, func() ([]byte, error) {
						gens.Add(1)
						return want, nil
					})
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(data, want) {
						t.Errorf("key %d returned %q", i, data)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := gens.Load(); n != keys {
		t.Fatalf("%d generations for %d keys", n, keys)
	}
	if st := c.Stats(); st.HitRatio() < 0.9 {
		t.Fatalf("hit ratio %.2f unexpectedly low: %+v", st.HitRatio(), st)
	}
}

func TestStatsHitRatioEmpty(t *testing.T) {
	var s Stats
	if s.HitRatio() != 0 {
		t.Fatal("HitRatio on zero lookups must be 0")
	}
}
