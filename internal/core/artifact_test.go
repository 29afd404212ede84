package core

import (
	"bytes"
	"errors"
	"testing"

	"nvbitgo/internal/sass"
)

// decodeFresh decodes b into a new artifact.
func decodeFresh(b []byte) (*codeArtifact, error) {
	a := new(codeArtifact)
	if err := decodeCodeArtifact(b, a); err != nil {
		return nil, err
	}
	return a, nil
}

// TestArtifactDecodeStrict: decode accepts exactly what encode writes. A flag
// bit no encoder sets, an undefined opcode, a presence bit over a zero
// immediate and a relocation kind past the last would all decode to an
// artifact that encodes to different bytes (or, for the kind, that
// materialization silently ignores), so each is rejected, as are a frame size
// no register file has, a tool or owned-address index past its table, a count
// the blob's size does not bear out, sites
// whose runs do not tile the arrays, a site that covers no instruction or more
// than its trampoline holds, a removal that covers several, and bytes past the
// end. An inline site, which splices a whole visit, may cover several.
func TestArtifactDecodeStrict(t *testing.T) {
	art := &codeArtifact{toolNames: []string{"probe"}}
	movi := sass.NewInst(sass.OpMOVI)
	movi.Imm = 5
	art.insts = append(art.insts, sass.NewInst(sass.OpCAL), movi, sass.NewInst(sass.OpCAL), sass.NewInst(sass.OpJMP))
	art.relocs = append(art.relocs, reloc{kind: relocSaveFn, slot: 0, aux: 16}, reloc{kind: relocToolFn, slot: 2, aux: 0}, reloc{kind: relocInlineSkip, slot: 3, aux: 3},
		reloc{kind: relocAddr, slot: 1, aux: intern(&art.addrs, addrRef{span: 1, off: 8})})
	art.addSite(siteArtifact{idx: 7, cover: 2, saveN: 16, savedRegs: 9}, 0, 0)
	art.sites = append(art.sites, siteArtifact{idx: 9, cover: 1, nopOnly: true})
	code := encodeCodeArtifact(art)
	back, err := decodeFresh(code)
	if err != nil || !bytes.Equal(encodeCodeArtifact(back), code) {
		t.Fatalf("round trip: %v", err)
	}
	if len(back.sites) != 2 || back.sites[0].cover != 2 || back.sites[1].cover != 1 || back.sites[0].insts != (span{0, 4}) || back.sites[0].relocs != (span{0, 4}) || back.sites[1].insts.n != 0 ||
		back.insts[1] != movi || back.relocs[2] != art.relocs[2] || back.relocs[3] != art.relocs[3] || len(back.addrs) != 1 || back.addrs[0] != art.addrs[0] {
		t.Fatalf("decoded %+v", back)
	}

	// Offsets into code: the header's counts, then the sections in order.
	const (
		hdrSites, hdrInsts, hdrImms, hdrRelocs, hdrAddrs = 12, 16, 20, 24, 28
	)
	site0 := headerBinBytes + 4 + len("probe")
	inst0 := site0 + 2*siteBinBytes
	imm0 := inst0 + 4*instBinBytes
	reloc0 := imm0 + immBinBytes
	patch := func(off int, v byte) []byte {
		b := append([]byte(nil), code...)
		b[off] = v
		return b
	}
	if a, err := decodeFresh(patch(site0+20, siteFlagInline)); err != nil || !a.sites[0].inline || a.sites[0].cover != 2 {
		t.Errorf("inline site covering two: %v", err)
	}
	for name, blob := range map[string][]byte{
		"site flag 4":                  patch(site0+20, 4),
		"site covering nothing":        patch(site0+4, 0),
		"site covering all it holds":   patch(site0+4, 4),
		"removal covering two":         patch(site0+siteBinBytes+4, 2),
		"inline removal covering two":  patch(site0+20, siteFlagInline|siteFlagNopOnly),
		"undefined opcode":             patch(inst0, byte(sass.NumOpcodes)),
		"instruction flag 4":           patch(inst0+2, 4),
		"presence bit, no immediate":   patch(inst0+2, instFlagImm),
		"presence bit over zero":       patch(imm0, 0),
		"immediate nobody claims":      patch(inst0+instBinBytes+2, 0),
		"relocation kind 7":            patch(reloc0, byte(relocAddr)+1),
		"address index 1":              patch(reloc0+3*relocBinBytes+5, 1),
		"address count 2":              patch(hdrAddrs, 2),
		"address count 0":              patch(hdrAddrs, 0),
		"relocation slot 4":            patch(reloc0+1, 4),
		"frame size 256":               patch(reloc0+6, 1),
		"tool index 1":                 patch(reloc0+relocBinBytes+5, 1),
		"site count 3":                 patch(hdrSites, 3),
		"instruction count 200":        patch(hdrInsts, 200),
		"immediate count 0":            patch(hdrImms, 0),
		"relocation count 3":           patch(hdrRelocs, 3),
		"site run past the array":      patch(site0+8, 5),
		"site run short of the array":  patch(site0+8, 3),
		"name longer than its section": patch(headerBinBytes, 6),
		"trailing byte":                append(append([]byte(nil), code...), 0),
		"truncated":                    code[:len(code)-1],
		"header only":                  code[:headerBinBytes-1],
	} {
		if _, err := decodeFresh(blob); err == nil {
			t.Errorf("code artifact with %s accepted", name)
		}
	}
}

// TestMaterializeRejectsCoverPastFunction: a site's covered-instruction count
// reaches materialization from a cache file. One that runs past the function's
// last word is refused with the decoder's value error and its jump is not
// patched in, where decode (which does not know the function) had to accept
// it.
func TestMaterializeRejectsCoverPastFunction(t *testing.T) {
	tool := &testTool{}
	env := setup(t, sass.Volta, tool)
	ctr, _ := env.nv.Malloc(8)
	tool.onLaunch = instrumentAll(ctr)
	env.launch(t)
	fs := env.nv.funcs[env.fn]
	for _, extra := range []int{1, 1 << 20} {
		art, err := env.nv.buildArtifact(fs)
		if err != nil {
			t.Fatal(err)
		}
		last := &art.sites[len(art.sites)-1]
		if last.idx+last.cover != env.fn.NumWords || last.cover < 2 {
			t.Fatalf("last visit covers words %d to %d of %d", last.idx, last.idx+last.cover, env.fn.NumWords)
		}
		// Pad the trampoline so that decode's own bound (a site relocates no
		// more instructions than it holds) still passes.
		last.cover += extra
		pad := make([]sass.Inst, extra)
		for k := range pad {
			pad[k] = sass.NewInst(sass.OpNOP)
		}
		art.insts = append(art.insts, pad...)
		last.insts.n += int32(extra)
		back, err := decodeFresh(encodeCodeArtifact(art))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		before := append([]byte(nil), fs.instrCode...)
		if err := env.nv.materializeArtifact(fs, back); !errors.Is(err, errArtifactValue) {
			t.Fatalf("cover %d past the function: materialize returned %v, want errArtifactValue", extra, err)
		}
		if !bytes.Equal(fs.instrCode[last.idx*env.nv.hal.InstBytes:], before[last.idx*env.nv.hal.InstBytes:]) {
			t.Fatal("the refused site was patched into the function")
		}
	}
}

// TestMaterializeRejectsUnownedSpan: an owned address reaches materialization
// as a span ordinal and an offset, from a cache file. One naming a span the
// attachment does not have, or an offset past its span, is refused with the
// decoder's value error.
func TestMaterializeRejectsUnownedSpan(t *testing.T) {
	tool := &testTool{}
	env := setup(t, sass.Volta, tool)
	ctr, _ := env.nv.Malloc(8)
	tool.onLaunch = instrumentAll(ctr)
	env.launch(t)
	fs := env.nv.funcs[env.fn]
	for _, ref := range []addrRef{{span: 1}, {span: 0, off: 8}} {
		art, err := env.nv.buildArtifact(fs)
		if err != nil {
			t.Fatal(err)
		}
		if len(art.addrs) != 1 || art.addrs[0] != (addrRef{}) {
			t.Fatalf("owned addresses %v, want the counter's alone", art.addrs)
		}
		art.addrs[0] = ref
		if err := env.nv.materializeArtifact(fs, art); !errors.Is(err, errArtifactValue) {
			t.Errorf("%+v: materialize returned %v, want errArtifactValue", ref, err)
		}
	}
}
