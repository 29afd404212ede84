package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"nvbitgo/internal/sass"
)

// This file defines the device-independent instrumentation artifact the
// jitcache stores, and its binary codec.
//
// A code artifact is everything the Code Generator produces for one function
// minus the device addresses: per-site trampoline bodies with relocation
// records where the original generator baked in absolute targets. Save and
// restore routines are referenced by frame size, tool functions by name, the
// return jump / relocated relative branches by site position, and ArgDevPtr
// addresses of tool state by (span ordinal, offset) in the attachment's
// allocations — all quantities a later attach (with its own trampoline
// allocator, its own tool-function load addresses and its own allocations)
// can resolve during materialization. The immediates of ArgConst arguments
// *are* baked into the body; that is safe because the cache key holds them,
// so an artifact is only ever served to an attach whose plan carries the same
// constants. An ArgDevPtr load is baked in only as its form — how many
// instructions each half of the address takes — which the key holds too.
//
// The codec is versioned; decode is fully bounds-checked and returns an error
// on any malformed input, which the cache layer treats as a codec-version
// skew: evict and regenerate.
//
// The artifact is flat in memory — a site list over one instruction array and
// one relocation array — and the wire format is that same shape: a header
// holding every count, the tool names, then each array packed at a fixed
// record width. A blob's size follows from its header alone, so decode checks
// it against len(blob) once, sizes each array once — reusing the destination
// artifact's where it has the room — and fills it in one loop.

// artifactVersion invalidates serialized artifacts when the codec layout
// changes. It is also folded into the cache key, so a bump makes old
// entries unreachable rather than merely undecodable. Version 2 added the
// per-site inline flag and the relocInlineSkip relocation kind; version 3 is
// the flat layout; version 4 gives a site the count of instructions it covers;
// version 5 lets an inline site cover more than one; version 6 adds the
// relocAddr kind and the owned-address table it indexes.
const artifactVersion = 6

// relocKind says how one trampoline instruction's immediate is resolved at
// materialization time.
type relocKind uint8

const (
	// relocSaveFn: Imm = address of the save routine for frame size aux.
	relocSaveFn relocKind = iota
	// relocRestoreFn: Imm = address of the restore routine for frame size aux.
	relocRestoreFn
	// relocToolFn: Imm = load address of tool function toolNames[aux].
	relocToolFn
	// relocRetJump: Imm = f.Addr + site.idx + site.cover (return to the
	// instrumented code at the program counter after the covered
	// instructions).
	relocRetJump
	// relocRelBranch: a relocated original instruction is a relative branch
	// — the last one covered, since a branch ends its basic block; the slot
	// still holds its original immediate and the new one is origTarget −
	// (trampoline base + slot + 1).
	relocRelBranch
	// relocInlineSkip: a branch skipping over (part of) an inlined tool
	// body; aux holds the body-relative distance, which is placement-
	// independent and becomes the immediate verbatim.
	relocInlineSkip
	// relocAddr: the slot starts the load of an ArgDevPtr address into a
	// register pair, one or two instructions per half; the immediates are
	// this attach's address for addrs[aux].
	relocAddr
)

// reloc is one deferred immediate fix-up within a site's trampoline body.
type reloc struct {
	kind relocKind
	slot int32 // index into the site's instructions
	aux  int32 // kind-specific operand (frame size, name index, skip distance, address index)
}

// addrRef is an address the attachment owns, relative to its allocations:
// the span's ordinal in allocation order and the offset in it.
type addrRef struct {
	span uint32
	off  uint64
}

// span is a run of a code artifact's instruction or relocation array.
type span struct{ off, n int32 }

// of returns the elements of a the span covers, with no room to append.
func of[T any](s span, a []T) []T { return a[s.off : s.off+s.n : s.off+s.n] }

// siteArtifact is the generated trampoline for one visit: a run of
// instrumented instructions relocated together (coalesce.go).
type siteArtifact struct {
	idx int // word index of the first covered instruction, the one replaced by the jump
	// cover is the number of instructions the trampoline relocates, each of
	// them an instrumented site: at least 1, and idx+cover stays inside the
	// function (checked at materialization, which knows its size).
	cover   int
	nopOnly bool // removal without calls: in-place NOP, no trampoline
	// inline marks a spliced-body visit (InjectInline): no save/restore, no
	// tool CALs; saveN and savedRegs are zero.
	inline bool
	saveN  int // granularity-rounded save-frame size
	// savedRegs is what each of the site's save/restore brackets adds to
	// JITStats.SavedRegs — the liveness-derived requirement before
	// granularity rounding.
	savedRegs int
	// insts and relocs are the site's runs of the artifact's arrays.
	insts, relocs span
}

// codeArtifact is one function's complete device-independent codegen result.
// It is flat: every site's trampoline body lives in one instruction array and
// every fix-up in one relocation array, in site order with nothing between
// the sites' runs, so building, decoding and encoding a function allocate per
// function, not per site, and a site is serialized with its two run lengths
// and no offsets.
type codeArtifact struct {
	toolNames []string
	sites     []siteArtifact
	insts     []sass.Inst
	relocs    []reloc
	addrs     []addrRef
}

// addSite appends s, whose code is what was appended to the arrays since they
// were i0 instructions and r0 relocations long.
func (a *codeArtifact) addSite(s siteArtifact, i0, r0 int) {
	s.insts = span{int32(i0), int32(len(a.insts) - i0)}
	s.relocs = span{int32(r0), int32(len(a.relocs) - r0)}
	a.sites = append(a.sites, s)
}

// --- code artifact codec ----------------------------------------------------

// Serialized layout, little-endian, sections in this order:
//
//	header  version, then the counts of tool names, name-section bytes, sites,
//	        instructions, immediates, relocations and owned addresses,
//	        4 bytes each
//	names   per tool name a 4-byte length and the bytes
//	sites   idx 4, cover 4, instructions 4, relocations 4, saveN 2,
//	        savedRegs 2, flags 1
//	insts   Op, Pred, flags, Dst, Src1, Src2, Src3, Mods, a byte each
//	imms    8 bytes for each instruction whose flags say it has one, in order
//	relocs  kind 1, slot 4, aux 4
//	addrs   span 4, offset 8
//
// Most trampoline immediates are zero until materialization fills them in, so
// an instruction carries only a presence bit and the non-zero ones sit in an
// array of their own.
const (
	headerBinBytes = 32
	siteBinBytes   = 21
	instBinBytes   = 8
	immBinBytes    = 8
	relocBinBytes  = 9
	addrBinBytes   = 12

	siteFlagNopOnly, siteFlagInline = 1, 2
	instFlagPredNeg, instFlagImm    = 1, 2
)

var (
	errArtifactTruncated = fmt.Errorf("nvbit: artifact size does not match its header")
	// errArtifactValue rejects a byte no encoder writes: decode accepts only
	// what encodes back to the same bytes.
	errArtifactValue = fmt.Errorf("nvbit: artifact holds a flag, opcode, count or relocation out of range")
)

func encodeCodeArtifact(a *codeArtifact) []byte {
	le := binary.LittleEndian
	nameBytes, imms := 0, 0
	for _, name := range a.toolNames {
		nameBytes += 4 + len(name)
	}
	for i := range a.insts {
		if a.insts[i].Imm != 0 {
			imms++
		}
	}
	b := make([]byte, headerBinBytes+nameBytes+len(a.sites)*siteBinBytes+
		len(a.insts)*instBinBytes+imms*immBinBytes+len(a.relocs)*relocBinBytes+len(a.addrs)*addrBinBytes)
	for k, v := range [...]int{artifactVersion, len(a.toolNames), nameBytes, len(a.sites), len(a.insts), imms, len(a.relocs), len(a.addrs)} {
		le.PutUint32(b[4*k:], uint32(v))
	}
	p := b[headerBinBytes:]
	for _, name := range a.toolNames {
		le.PutUint32(p, uint32(len(name)))
		p = p[4+copy(p[4:], name):]
	}
	for i := range a.sites {
		s := &a.sites[i]
		le.PutUint32(p, uint32(s.idx))
		le.PutUint32(p[4:], uint32(s.cover))
		le.PutUint32(p[8:], uint32(s.insts.n))
		le.PutUint32(p[12:], uint32(s.relocs.n))
		le.PutUint16(p[16:], uint16(s.saveN))
		le.PutUint16(p[18:], uint16(s.savedRegs))
		if s.nopOnly {
			p[20] |= siteFlagNopOnly
		}
		if s.inline {
			p[20] |= siteFlagInline
		}
		p = p[siteBinBytes:]
	}
	imm := p[len(a.insts)*instBinBytes:]
	for i := range a.insts {
		in := &a.insts[i]
		var flags uint8
		if in.PredNeg {
			flags = instFlagPredNeg
		}
		if in.Imm != 0 {
			flags |= instFlagImm
			le.PutUint64(imm, uint64(in.Imm))
			imm = imm[immBinBytes:]
		}
		p[0], p[1], p[2], p[3] = uint8(in.Op), uint8(in.Pred), flags, uint8(in.Dst)
		p[4], p[5], p[6], p[7] = uint8(in.Src1), uint8(in.Src2), uint8(in.Src3), uint8(in.Mods)
		p = p[instBinBytes:]
	}
	p = imm
	for _, rl := range a.relocs {
		p[0] = uint8(rl.kind)
		le.PutUint32(p[1:], uint32(rl.slot))
		le.PutUint32(p[5:], uint32(rl.aux))
		p = p[relocBinBytes:]
	}
	for _, ad := range a.addrs {
		le.PutUint32(p, ad.span)
		le.PutUint64(p[4:], ad.off)
		p = p[addrBinBytes:]
	}
	return b
}

// decodeCodeArtifact decodes b into a, reusing a's arrays where they have the
// room (the workspace's artifact is decoded into function after function).
// Every element of the result is written from b, so nothing a held before
// survives; after an error a holds nothing usable.
func decodeCodeArtifact(b []byte, a *codeArtifact) error {
	le := binary.LittleEndian
	if len(b) < headerBinBytes {
		return errArtifactTruncated
	}
	if v := le.Uint32(b); v != artifactVersion {
		return fmt.Errorf("nvbit: code artifact version %d, want %d", v, artifactVersion)
	}
	// The seven counts, widened so that no product or sum of them wraps.
	var n [7]uint64
	for k := range n {
		n[k] = uint64(le.Uint32(b[4+4*k:]))
	}
	nTools, nameBytes, nSites, nInsts, nImms, nRelocs, nAddrs := n[0], n[1], n[2], n[3], n[4], n[5], n[6]
	if headerBinBytes+nameBytes+nSites*siteBinBytes+nInsts*instBinBytes+nImms*immBinBytes+nRelocs*relocBinBytes+nAddrs*addrBinBytes != uint64(len(b)) ||
		4*nTools > nameBytes || nImms > nInsts || nInsts|nRelocs|nAddrs > math.MaxInt32 {
		return errArtifactTruncated
	}
	// Every array is now known to be no larger than a small multiple of the
	// bytes that hold it.
	a.toolNames = reuse(a.toolNames, int(nTools))[:nTools]
	a.sites = reuse(a.sites, int(nSites))[:nSites]
	a.insts = reuse(a.insts, int(nInsts))[:nInsts]
	a.relocs = reuse(a.relocs, int(nRelocs))[:nRelocs]
	a.addrs = reuse(a.addrs, int(nAddrs))[:nAddrs]
	p := b[headerBinBytes:]
	names, p := p[:nameBytes], p[nameBytes:]
	for i := range a.toolNames {
		if len(names) < 4 || uint64(le.Uint32(names)) > uint64(len(names)-4) {
			return errArtifactTruncated
		}
		// A name already in place, usually the previous function's, is kept
		// rather than allocated again.
		k := 4 + int(le.Uint32(names))
		if a.toolNames[i] != string(names[4:k]) {
			a.toolNames[i] = string(names[4:k])
		}
		names = names[k:]
	}
	if len(names) != 0 {
		return errArtifactTruncated
	}
	// Sites tile the two arrays in order; a run past an array's end is caught
	// as it is laid out, an array longer than its sites' runs after.
	var iOff, rOff uint64
	for i := range a.sites {
		s := &a.sites[i]
		cover, ni, nr, flags := le.Uint32(p[4:]), uint64(le.Uint32(p[8:])), uint64(le.Uint32(p[12:])), p[20]
		// A site covers at least its own instruction and no more than it has
		// room to relocate; an in-place removal covers one.
		if flags > siteFlagNopOnly|siteFlagInline || iOff+ni > nInsts || rOff+nr > nRelocs ||
			cover < 1 || cover > 1 && (flags&siteFlagNopOnly != 0 || uint64(cover) >= ni) {
			return errArtifactValue
		}
		*s = siteArtifact{
			idx: int(le.Uint32(p)), cover: int(cover), nopOnly: flags&siteFlagNopOnly != 0, inline: flags&siteFlagInline != 0,
			saveN: int(le.Uint16(p[16:])), savedRegs: int(le.Uint16(p[18:])),
			insts: span{int32(iOff), int32(ni)}, relocs: span{int32(rOff), int32(nr)},
		}
		iOff, rOff, p = iOff+ni, rOff+nr, p[siteBinBytes:]
	}
	if iOff != nInsts || rOff != nRelocs {
		return errArtifactValue
	}
	imm, relocs := p[nInsts*instBinBytes:][:nImms*immBinBytes], p[nInsts*instBinBytes+nImms*immBinBytes:]
	addrs := relocs[nRelocs*relocBinBytes:]
	for i := range a.insts {
		in := sass.Inst{
			Op: sass.Opcode(p[0]), Pred: sass.Pred(p[1]), PredNeg: p[2]&instFlagPredNeg != 0,
			Dst: sass.Reg(p[3]), Src1: sass.Reg(p[4]), Src2: sass.Reg(p[5]), Src3: sass.Reg(p[6]), Mods: sass.Mods(p[7]),
		}
		if p[2] > instFlagPredNeg|instFlagImm {
			return errArtifactValue
		}
		if p[2]&instFlagImm != 0 {
			// A presence bit over a zero immediate is not what encode writes.
			if len(imm) == 0 || le.Uint64(imm) == 0 {
				return errArtifactValue
			}
			in.Imm, imm = int64(le.Uint64(imm)), imm[immBinBytes:]
		}
		if in.Check() != nil {
			return errArtifactValue
		}
		a.insts[i], p = in, p[instBinBytes:]
	}
	if len(imm) != 0 {
		return errArtifactValue
	}
	for i := range a.sites {
		s := &a.sites[i]
		for k := range of(s.relocs, a.relocs) {
			rl := reloc{kind: relocKind(relocs[0]), slot: int32(le.Uint32(relocs[1:])), aux: int32(le.Uint32(relocs[5:]))}
			if rl.kind > relocAddr || rl.slot < 0 || rl.slot >= s.insts.n ||
				(rl.kind == relocToolFn && uint64(uint32(rl.aux)) >= nTools) ||
				(rl.kind == relocAddr && uint64(uint32(rl.aux)) >= nAddrs) ||
				(rl.kind <= relocRestoreFn && uint32(rl.aux) > sass.NumRegs) {
				return errArtifactValue
			}
			a.relocs[int(s.relocs.off)+k], relocs = rl, relocs[relocBinBytes:]
		}
	}
	for k := range a.addrs {
		a.addrs[k], addrs = addrRef{span: le.Uint32(addrs), off: le.Uint64(addrs[4:])}, addrs[addrBinBytes:]
	}
	return nil
}
