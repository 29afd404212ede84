package core

import (
	"bytes"
	"testing"

	"nvbitgo/internal/sass"
)

// TestArtifactDecodeStrict: decode accepts exactly what encode writes. A flag
// byte other than 0 or 1, an undefined opcode and a relocation kind past the
// last would all decode to an artifact that encodes to different bytes (or,
// for the kind, that materialization silently ignores), so each is rejected,
// as are a count the remaining bytes cannot hold and trailing bytes.
func TestArtifactDecodeStrict(t *testing.T) {
	art := &codeArtifact{toolNames: []string{"probe"}}
	jmp := sass.NewInst(sass.OpJMP)
	art.insts = append(art.insts, sass.NewInst(sass.OpCAL), jmp)
	art.relocs = append(art.relocs, reloc{kind: relocToolFn, slot: 0, aux: 0}, reloc{kind: relocInlineSkip, slot: 1, aux: 3})
	art.addSite(siteArtifact{idx: 7, saveN: 16, savedRegs: 9}, 0, 0)
	art.sites = append(art.sites, siteArtifact{idx: 9, nopOnly: true})
	code := encodeCodeArtifact(art)
	back, err := decodeCodeArtifact(code)
	if err != nil || !bytes.Equal(encodeCodeArtifact(back), code) {
		t.Fatalf("round trip: %v", err)
	}
	if len(back.sites) != 2 || back.sites[0].insts != (span{0, 2}) || back.sites[0].relocs != (span{0, 2}) || back.sites[1].insts.n != 0 {
		t.Fatalf("decoded sites %+v", back.sites)
	}

	// Offsets into code: version, name count, the name, site count, then the
	// first site's fields.
	site := 4 + 4 + 4 + len("probe") + 4
	inst0 := site + siteBinBytes - 4
	reloc0 := inst0 + 2*instBinBytes + 4
	patch := func(b []byte, off int, v byte) []byte {
		b = append([]byte(nil), b...)
		b[off] = v
		return b
	}
	for name, blob := range map[string][]byte{
		"nopOnly flag 2":        patch(code, site+4, 2),
		"inline flag 0x80":      patch(code, site+5, 0x80),
		"undefined opcode":      patch(code, inst0, byte(sass.NumOpcodes)),
		"PredNeg flag 2":        patch(code, inst0+2, 2),
		"relocation kind 6":     patch(code, reloc0, byte(relocInlineSkip)+1),
		"relocation slot 2":     patch(code, reloc0+1, 2),
		"tool index 1":          patch(code, reloc0+5, 1),
		"site count 3":          patch(code, site-4, 3),
		"instruction count 200": patch(code, inst0-4, 200),
		"trailing byte":         append(append([]byte(nil), code...), 0),
		"truncated":             code[:len(code)-1],
	} {
		if _, err := decodeCodeArtifact(blob); err == nil {
			t.Errorf("code artifact with %s accepted", name)
		}
	}
}
