package gpu

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"nvbitgo/internal/sass"
)

func newTestDevice(t testing.TB, f sass.Family) *Device {
	t.Helper()
	d, err := New(DefaultConfig(f))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMallocFreeRoundTrip(t *testing.T) {
	d := newTestDevice(t, sass.Pascal)
	a, err := d.Malloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("overlapping allocations")
	}
	data := []byte{1, 2, 3, 4}
	if err := d.Write(a, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if err := d.Read(a, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("got %v", got)
	}
	if err := d.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(a); err == nil {
		t.Fatal("double free accepted")
	}
	if err := d.Free(b); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatorStress(t *testing.T) {
	// Property: live allocations never overlap and freeing everything
	// restores the full arena.
	a := newAllocator(0x1000, 1<<20)
	r := rand.New(rand.NewSource(1))
	type block struct{ base, size uint64 }
	var live []block
	for i := 0; i < 2000; i++ {
		if len(live) > 0 && r.Intn(2) == 0 {
			k := r.Intn(len(live))
			if err := a.free(live[k].base); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
			continue
		}
		n := uint64(r.Intn(4096) + 1)
		base, err := a.alloc(n)
		if err != nil {
			continue // arena full; fine
		}
		for _, b := range live {
			if base < b.base+b.size && b.base < base+n {
				t.Fatalf("allocation [%#x,+%d) overlaps [%#x,+%d)", base, n, b.base, b.size)
			}
		}
		live = append(live, block{base, n})
	}
	for _, b := range live {
		if err := a.free(b.base); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.spans) != 1 || a.spans[0].size != 1<<20 {
		t.Fatalf("arena not fully coalesced: %+v", a.spans)
	}
}

func TestMemoryRangeChecks(t *testing.T) {
	d := newTestDevice(t, sass.Volta)
	if err := d.Write(0, []byte{1}); err == nil {
		t.Fatal("write to null page accepted")
	}
	if err := d.Read(d.cfg.GlobalMemBytes-2, make([]byte, 8)); err == nil {
		t.Fatal("out-of-range read accepted")
	}
}

// TestLazyGlobalMemory: global memory is backed page by page on first store,
// and nothing observable depends on whether a page exists yet.
func TestLazyGlobalMemory(t *testing.T) {
	d := newTestDevice(t, sass.Volta)
	fresh, _ := d.Malloc(4 * pageSize) // nothing has touched these pages
	out, _ := d.Malloc(8)

	// A kernel loads a never-written word (reads 0) and stores next to it.
	entry := loadSASS(t, d, `
		LDC.W R2, c[1][0]
		LDC.W R4, c[1][8]
		LDG R6, [R2]
		IADD R6, R6, RZ, 41
		STG [R4], R6
		STG [R2+8], R6
		EXIT
	`)
	launch(t, d, entry, D1(1), D1(1), u64param(fresh+pageSize, out), 0)
	var word [4]byte
	for _, addr := range []uint64{out, fresh + pageSize + 8} {
		if err := d.Read(addr, word[:]); err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint32(word[:]); got != 41 {
			t.Errorf("word at %#x = %d, want 41 (0 loaded from untouched memory, plus 41)", addr, got)
		}
	}
	if d.peek(fresh) != &zeroPage {
		t.Error("a load materialized a page no store touched")
	}

	// Host copies spanning a page boundary, into and out of untouched pages.
	pattern := make([]byte, 300)
	for i := range pattern {
		pattern[i] = byte(i + 1)
	}
	edge := fresh + 3*pageSize - 100
	if err := d.Write(edge, pattern); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, 500)
	if err := d.Read(edge-100, back); err != nil {
		t.Fatal(err)
	}
	want := append(append(make([]byte, 100), pattern...), make([]byte, 100)...)
	if !bytes.Equal(back, want) {
		t.Error("read across a page boundary does not match what was written around it")
	}
	whole := make([]byte, 4*pageSize)
	whole[0] = 0xff // Read must overwrite, also from pages that do not exist
	if err := d.Read(fresh, whole); err != nil {
		t.Fatal(err)
	}
	if whole[0] != 0 || !bytes.Equal(whole[3*pageSize-100:][:300], pattern) {
		t.Error("multi-page read wrong")
	}

	// The heap bounds are the configured size, not what happens to be backed.
	if err := d.Write(d.cfg.GlobalMemBytes-4, word[:]); err != nil {
		t.Errorf("write to the last heap word: %v", err)
	}
	if err := d.Write(d.cfg.GlobalMemBytes-3, word[:]); err == nil {
		t.Error("write past the heap accepted")
	}
}

// backing counts what the device has backed: memory regions and pages, and
// decode pages.
func backing(d *Device) (regions, pages, decodePages int) {
	for i := range d.pages {
		if r := d.pages[i].Load(); r != nil {
			regions++
			for j := range r {
				if r[j].Load() != nil {
					pages++
				}
			}
		}
	}
	for i := range d.chunks {
		if ch := d.chunks[i].Load(); ch != nil {
			for j := range ch.dec {
				if ch.dec[j].Load() != nil {
					decodePages++
				}
			}
		}
	}
	return regions, pages, decodePages
}

// TestConcurrentFirstStores: under the parallel scheduler the CTAs of one
// launch make the first stores into fresh regions, and into several pages of
// each, at once (run with -race); every store must land, in the one page and
// region its address names.
func TestConcurrentFirstStores(t *testing.T) {
	cfg := DefaultConfig(sass.Volta)
	cfg.Scheduler = SchedulerParallelSM
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// CTA k of one warp stores its 128 bytes at out + k·stride.
	const ctas, threads = 256, 32
	entry := loadSASS(t, d, gidProlog+`
		S2R R8, SR_TID.X
		LDC.W R4, c[1][0]
		LDC R6, c[1][8]
		IMAD.W R4, R2, R6, R4
		MOVI R6, 4
		IMAD.W R4, R8, R6, R4
		STG [R4], R0
		EXIT
	`)
	block, _ := d.Malloc(ctas/2*regionSize + ctas*pageSize/2 + 2*regionSize)
	out := (block + regionSize - 1) &^ (regionSize - 1)
	var regions, pages int
	// CTAs k and k+1, which run side by side, first share a page (and 32
	// CTAs a region), then a region of pages of their own.
	for _, stride := range []uint64{pageSize / 2, regionSize / 2} {
		launch(t, d, entry, D1(ctas), D1(threads), u64param(out, stride), 0)
		buf := make([]byte, 4*threads)
		for k := uint64(0); k < ctas; k++ {
			if err := d.Read(out+k*stride, buf); err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < threads; i++ {
				if got, want := binary.LittleEndian.Uint32(buf[4*i:]), uint32(k*threads+i); got != want {
					t.Fatalf("stride %d: CTA %d, lane %d stored %d, read back %d: a first store was lost", stride, k, i, want, got)
				}
			}
		}
		out += ctas * stride
		regions += int(ctas * stride / regionSize)
		pages += int(ctas * min(stride, pageSize) / pageSize)
		if r, p, _ := backing(d); r != regions || p != pages {
			t.Errorf("stride %d: the stores backed %d regions and %d pages in all, want %d and %d", stride, r, p, regions, pages)
		}
	}
}

// TestDeviceBacksWhatItTouches: a device backs memory in the pages stores
// touch and decodes code in the pages kernels run, and nothing that only
// reads backs anything.
func TestDeviceBacksWhatItTouches(t *testing.T) {
	d := newTestDevice(t, sass.Volta)
	buf, _ := d.Malloc(4 * regionSize)
	fresh := (buf + regionSize - 1) &^ (regionSize - 1) // a region nothing has touched
	entry := loadSASS(t, d, `
		LDC.W R2, c[1][0]
		LDC.W R4, c[1][8]
		LDG R6, [R2]
		STG [R4], R6
		EXIT
	`)
	if int(entry)/decodeWords != (int(entry)+4)/decodeWords {
		t.Fatalf("the kernel at %d straddles a decode page", entry)
	}

	// One thread loads an untouched word and stores it: one page, in one
	// region, and one decode page for the five instructions.
	launch(t, d, entry, D1(1), D1(1), u64param(fresh+regionSize+8, fresh+100), 0)
	if regions, pages, dec := backing(d); regions != 1 || pages != 1 || dec != 1 {
		t.Errorf("a 4-byte store backed %d regions and %d pages, a 5-instruction kernel %d decode pages; want 1, 1, 1", regions, pages, dec)
	}
	if d.peek(fresh+100) == &zeroPage || d.peek(fresh+pageSize) != &zeroPage {
		t.Error("the store backed another page than its own")
	}

	// Host reads of untouched memory, in a backed region and in regions
	// that are not, read zero and back nothing.
	whole := bytes.Repeat([]byte{0xff}, 3*regionSize)
	if err := d.Read(fresh+regionSize/2, whole); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole, make([]byte, len(whole))) {
		t.Error("untouched memory does not read zero")
	}
	if regions, pages, _ := backing(d); regions != 1 || pages != 1 {
		t.Errorf("reads backed memory: %d regions, %d pages", regions, pages)
	}

	// A host write across two page boundaries and the region boundary
	// between them backs the four pages it covers and reads back exactly,
	// with zeros around it.
	pattern := make([]byte, 2*pageSize+200)
	for i := range pattern {
		pattern[i] = byte(i*7 + 1)
	}
	at := fresh + 2*regionSize - pageSize - 100
	if err := d.Write(at, pattern); err != nil {
		t.Fatal(err)
	}
	back := bytes.Repeat([]byte{0xff}, len(pattern)+2*pageSize)
	if err := d.Read(at-pageSize, back); err != nil {
		t.Fatal(err)
	}
	want := append(append(make([]byte, pageSize), pattern...), make([]byte, pageSize)...)
	if !bytes.Equal(back, want) {
		t.Error("a read across page and region boundaries does not match what was written around it")
	}
	if regions, pages, _ := backing(d); regions != 3 || pages != 1+4 {
		t.Errorf("after the write: %d regions, %d pages; want 3 and 5", regions, pages)
	}
}

// TestUnwrittenCodeSpace: an in-range code word nothing was written to is an
// all-zero word — for ReadCode, and for fetch, which treats it exactly like
// a zero word that was written.
func TestUnwrittenCodeSpace(t *testing.T) {
	for _, f := range []sass.Family{sass.Kepler, sass.Volta} {
		t.Run(f.String(), func(t *testing.T) {
			d := newTestDevice(t, f)
			ib := d.Codec().InstBytes()
			written, _ := d.AllocCode(1)
			if err := d.WriteCode(written, make([]byte, ib)); err != nil {
				t.Fatal(err)
			}
			last := CodeAddr(d.cfg.CodeBytes/ib - 1) // far above anything allocated
			raw, err := d.ReadCode(last, 1)
			if err != nil || !bytes.Equal(raw, make([]byte, ib)) {
				t.Fatalf("ReadCode of unwritten word: %v, %v", raw, err)
			}
			inW, errW := d.fetch(int32(written))
			inU, errU := d.fetch(int32(last))
			switch {
			case errW == nil && errU == nil:
				if *inW != *inU {
					t.Errorf("unwritten word decodes to %v, a written zero word to %v", *inU, *inW)
				}
			case errW != nil && errU != nil:
				if w, u := errors.Unwrap(errW), errors.Unwrap(errU); w == nil || u == nil || w.Error() != u.Error() {
					t.Errorf("unwritten word: %v; written zero word: %v", errU, errW)
				}
			default:
				t.Errorf("unwritten word: %v; written zero word: %v", errU, errW)
			}
			if _, err := d.fetch(int32(last) + 1); err == nil || !strings.Contains(err.Error(), "outside code space") {
				t.Errorf("fetch past code space: %v", err)
			}
			if err := d.WriteCode(last, make([]byte, ib)); err != nil {
				t.Errorf("write to the last code word: %v", err)
			}
			if err := d.WriteCode(last+1, make([]byte, ib)); err == nil {
				t.Error("write past code space accepted")
			}
		})
	}
}

func TestCodeSpace(t *testing.T) {
	d := newTestDevice(t, sass.Maxwell)
	insts, err := sass.ParseProgram("MOVI R0, 42\nEXIT")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := d.Codec().EncodeAll(insts)
	if err != nil {
		t.Fatal(err)
	}
	base, err := d.AllocCode(len(insts))
	if err != nil {
		t.Fatal(err)
	}
	if base == 0 {
		t.Fatal("code allocated at reserved word 0")
	}
	if err := d.WriteCode(base, raw); err != nil {
		t.Fatal(err)
	}
	back, err := d.ReadCode(base, len(insts))
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(raw) {
		t.Fatal("code readback mismatch")
	}
	// Decode cache invalidation: fetch, overwrite, fetch again.
	in, err := d.fetch(int32(base))
	if err != nil || in.Op != sass.OpMOVI {
		t.Fatalf("fetch: %v %v", in.Op, err)
	}
	nop := sass.NewInst(sass.OpNOP)
	buf := make([]byte, d.Codec().InstBytes())
	if err := d.Codec().Encode(nop, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteCode(base, buf); err != nil {
		t.Fatal(err)
	}
	in, err = d.fetch(int32(base))
	if err != nil || in.Op != sass.OpNOP {
		t.Fatalf("stale decode cache: got %v, %v", in.Op, err)
	}
}

func TestCacheModel(t *testing.T) {
	c := newCache(64, 4)
	if c.access(100) {
		t.Fatal("cold access hit")
	}
	if !c.access(100) {
		t.Fatal("warm access missed")
	}
	// Fill the set of line 100 with conflicting lines and evict it.
	for i := 1; i <= 8; i++ {
		c.access(100 + uint64(i*c.sets))
	}
	if c.access(100) {
		t.Fatal("expected eviction after conflict sweep")
	}
	c.reset()
	if c.access(100) {
		t.Fatal("hit after reset")
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	cfg := DefaultConfig(sass.Kepler)
	cfg.NumSMs = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero SMs accepted")
	}
	cfg = DefaultConfig(sass.Kepler)
	cfg.CodeBytes = 64 << 20 // beyond the 8 MiB JMP-addressable limit
	if _, err := New(cfg); err == nil {
		t.Fatal("oversized code space accepted on 64-bit family")
	}
	cfg = DefaultConfig(sass.Volta)
	cfg.CodeBytes = 64 << 20 // fine on Volta
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
	cfg = DefaultConfig(sass.Kepler)
	cfg.L1LineBytes = 96
	if _, err := New(cfg); err == nil {
		t.Fatal("non-power-of-two line accepted")
	}
}
