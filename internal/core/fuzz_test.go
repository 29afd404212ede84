package core_test

import (
	"runtime"
	"testing"

	"nvbitgo/internal/core"
)

// artifactSeeds returns real encoded code artifacts, each once: those of
// specaccel:cg under the three golden tools, for both families and all three
// injection modes.
func artifactSeeds(f *testing.F) [][]byte {
	runs, err := cgRuns()
	if err != nil {
		f.Fatal(err)
	}
	seen := make(map[string]bool)
	var seeds [][]byte
	for _, run := range runs {
		for _, blob := range run.code {
			if !seen[string(blob)] {
				seen[string(blob)] = true
				seeds = append(seeds, blob)
			}
		}
	}
	return seeds
}

// checkRecode holds the decoder to what a cache entry read from disk may
// assume of it: it does not panic, it allocates no more than a constant
// multiple of the input (a corrupt count must not size an array), and what it
// accepts encodes back to the same bytes — so nothing in a blob is ignored.
func checkRecode(t *testing.T, blob []byte) {
	var accepted, same bool
	allocated := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		accepted, same = core.RecodeCodeArtifact(blob)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// In memory a site is 48 bytes for 17 serialized, an instruction 24 for
	// 8, a relocation 12 for 9, an owned address 16 for 12, a string's header
	// 16 for its 4-byte length, and a rejected header sizes nothing;
	// re-encoding an accepted blob adds its length once more. The counter is
	// the process's, and the fuzzing engine's own goroutines allocate now and
	// then, so a reading past the bound is taken again.
	got, max := allocated(), uint64(8*len(blob)+4096)
	for try := 0; got > max && try < 3; try++ {
		got = allocated()
	}
	if got > max {
		t.Errorf("decoding %d bytes allocated %d, more than %d", len(blob), got, max)
	}
	if accepted && !same {
		t.Errorf("a blob of %d bytes was accepted and encodes back to different bytes", len(blob))
	}
}

// FuzzDecodeCodeArtifact seeds with the encoder's own output, which must
// decode and must include a visit of several instructions (instrcount's calls
// coalesce) and owned-address relocations (every golden tool passes its state
// through ArgDevPtr), and fuzzes the decoder under checkRecode. Each input is
// also decoded over the largest seed and then the seed that names the most
// tool functions, as a cache hit decodes into the workspace after larger
// functions, and must come out as a fresh decode does: no element of an
// earlier artifact survives.
func FuzzDecodeCodeArtifact(f *testing.F) {
	most, addrs, names := 0, 0, -1
	var largest, named []byte
	for _, blob := range artifactSeeds(f) {
		cover, n, tools, err := core.ArtifactShape(blob)
		if err != nil {
			f.Fatalf("an encoded artifact of %d bytes does not decode: %v", len(blob), err)
		}
		most, addrs = max(most, cover), addrs+n
		if len(blob) > len(largest) {
			largest = blob
		}
		if tools > names {
			named, names = blob, tools
		}
		f.Add(blob)
	}
	if most < 2 {
		f.Fatal("no seed holds a visit of more than one instruction")
	}
	if addrs == 0 {
		f.Fatal("no seed holds an owned-address relocation")
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		checkRecode(t, blob)
		if !core.DecodeOver([][]byte{largest, named}, blob) {
			t.Errorf("a blob of %d bytes decodes over earlier artifacts to something else than a fresh decode does", len(blob))
		}
	})
}
