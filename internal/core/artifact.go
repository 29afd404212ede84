package core

import (
	"encoding/binary"
	"fmt"

	"nvbitgo/internal/sass"
)

// This file defines the device-independent instrumentation artifact the
// jitcache stores, and its binary codec.
//
// A code artifact is everything the Code Generator produces for one function
// minus the device addresses: per-site trampoline bodies with relocation
// records where the original generator baked in absolute targets. Save and
// restore routines are referenced by frame size, tool functions by name, and
// the return jump / relocated relative branches by site position — all
// quantities a later attach (with its own trampoline allocator and its own
// tool-function load addresses) can resolve during materialization. The
// immediates of ArgConst arguments *are* baked into the body; that is safe
// because the cache key covers the full instrumentation plan, so an artifact
// is only ever served to an attach whose plan carries the same immediates.
//
// The codec is versioned; decode is fully bounds-checked and returns an error
// on any malformed input, which the cache layer treats as a codec-version
// skew: evict and regenerate.

// artifactVersion invalidates serialized artifacts when the codec layout
// changes. It is also folded into the cache key, so a bump makes old
// entries unreachable rather than merely undecodable. Version 2 added the
// per-site inline flag and the relocInlineSkip relocation kind.
const artifactVersion = 2

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
	// relocRetJump: Imm = f.Addr + site.idx + 1 (return to the instrumented
	// code at the next program counter).
	relocRetJump
	// relocRelBranch: the relocated original instruction is a relative
	// branch; aux holds its original immediate and the new immediate is
	// origTarget − (trampoline base + slot + 1).
	relocRelBranch
	// relocInlineSkip: a branch skipping over (part of) an inlined tool
	// body; aux holds the body-relative distance, which is placement-
	// independent and becomes the immediate verbatim.
	relocInlineSkip
)

// reloc is one deferred immediate fix-up within a site's trampoline body.
type reloc struct {
	kind relocKind
	slot int   // index into the site's instructions
	aux  int64 // kind-specific operand (frame size, name index, branch imm)
}

// span is a run of a code artifact's instruction or relocation array.
type span struct{ off, n int32 }

// of returns the elements of a the span covers, with no room to append.
func of[T any](s span, a []T) []T { return a[s.off : s.off+s.n : s.off+s.n] }

// siteArtifact is the generated trampoline for one instrumented instruction.
type siteArtifact struct {
	idx     int  // word index of the instrumented instruction
	nopOnly bool // removal without calls: in-place NOP, no trampoline
	// inline marks a spliced-body site (InjectInline): no save/restore, no
	// tool CALs; saveN and savedRegs are zero.
	inline bool
	saveN  int // granularity-rounded save-frame size
	// savedRegs is the site's contribution to JITStats.SavedRegs — the
	// liveness-derived requirement before granularity rounding.
	savedRegs int
	// insts and relocs are the site's runs of the artifact's arrays.
	insts, relocs span
}

// codeArtifact is one function's complete device-independent codegen result.
// It is flat: every site's trampoline body lives in one instruction array and
// every fix-up in one relocation array, in site order with nothing between
// the sites' runs, so building, decoding and encoding a function allocate per
// function, not per site. The wire format is per site and does not show it.
type codeArtifact struct {
	toolNames []string
	sites     []siteArtifact
	insts     []sass.Inst
	relocs    []reloc
}

// toolIndex returns name's index in toolNames, adding it when new. A function
// names a handful of tool functions, so the search is linear.
func (a *codeArtifact) toolIndex(name string) int64 {
	for k, have := range a.toolNames {
		if have == name {
			return int64(k)
		}
	}
	a.toolNames = append(a.toolNames, name)
	return int64(len(a.toolNames) - 1)
}

// addSite appends s, whose code is what was appended to the arrays since they
// were i0 instructions and r0 relocations long.
func (a *codeArtifact) addSite(s siteArtifact, i0, r0 int) {
	s.insts = span{int32(i0), int32(len(a.insts) - i0)}
	s.relocs = span{int32(r0), int32(len(a.relocs) - r0)}
	a.sites = append(a.sites, s)
}

// --- binary writer/reader ---------------------------------------------------

// Serialized widths: an instruction is 8 one-byte fields and the 64-bit
// immediate; a relocation is kind, slot and aux; a site with neither is its
// index, two flags, two frame sizes and two counts.
const (
	instBinBytes  = 16
	relocBinBytes = 13
	siteBinBytes  = 22
)

// artWriter appends to a buffer its user sized exactly beforehand.
type artWriter struct{ b []byte }

func (w *artWriter) u8(v uint8)   { w.b = append(w.b, v) }
func (w *artWriter) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *artWriter) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *artWriter) i64(v int64)  { w.u64(uint64(v)) }
func (w *artWriter) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *artWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}
func (w *artWriter) inst(in sass.Inst) {
	var neg uint8
	if in.PredNeg {
		neg = 1
	}
	w.b = append(w.b, uint8(in.Op), uint8(in.Pred), neg, uint8(in.Dst), uint8(in.Src1), uint8(in.Src2), uint8(in.Src3), uint8(in.Mods))
	w.i64(in.Imm)
}

var (
	errArtifactTruncated = fmt.Errorf("nvbit: artifact truncated")
	// errArtifactValue rejects a byte no encoder writes: decode accepts only
	// what encodes back to the same bytes.
	errArtifactValue = fmt.Errorf("nvbit: artifact holds a flag, opcode or relocation kind out of range")
)

type artReader struct {
	b   []byte
	off int
	err error
}

func (r *artReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) || r.off+n < r.off {
		r.err = errArtifactTruncated
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}
func (r *artReader) u8() uint8 {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}
func (r *artReader) u32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}
func (r *artReader) flag(b byte) bool {
	if b > 1 && r.err == nil {
		r.err = errArtifactValue
	}
	return b == 1
}
func (r *artReader) bool() bool { return r.flag(r.u8()) }
func (r *artReader) str() string {
	n := r.u32()
	return string(r.take(int(n)))
}

// count reads a length field and bounds it against the bytes left, elemMin
// for each element, so a corrupt count can neither drive an allocation larger
// than a constant multiple of the input nor pass for a valid one.
func (r *artReader) count(elemMin int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n > (len(r.b)-r.off)/elemMin {
		r.err = errArtifactTruncated
		return 0
	}
	return n
}

func (r *artReader) inst() sass.Inst {
	s := r.take(instBinBytes)
	if s == nil {
		return sass.Inst{}
	}
	in := sass.Inst{
		Op: sass.Opcode(s[0]), Pred: sass.Pred(s[1]), PredNeg: r.flag(s[2]),
		Dst: sass.Reg(s[3]), Src1: sass.Reg(s[4]), Src2: sass.Reg(s[5]), Src3: sass.Reg(s[6]),
		Mods: sass.Mods(s[7]), Imm: int64(binary.LittleEndian.Uint64(s[8:])),
	}
	if !in.Op.Valid() && r.err == nil {
		r.err = errArtifactValue
	}
	return in
}

func (r *artReader) reloc() reloc {
	s := r.take(relocBinBytes)
	if s == nil {
		return reloc{}
	}
	rl := reloc{kind: relocKind(s[0]), slot: int(binary.LittleEndian.Uint32(s[1:])), aux: int64(binary.LittleEndian.Uint64(s[5:]))}
	if rl.kind > relocInlineSkip && r.err == nil {
		r.err = errArtifactValue
	}
	return rl
}

// --- code artifact codec ----------------------------------------------------

func encodeCodeArtifact(a *codeArtifact) []byte {
	size := 12 + len(a.sites)*siteBinBytes + len(a.insts)*instBinBytes + len(a.relocs)*relocBinBytes
	for _, name := range a.toolNames {
		size += 4 + len(name)
	}
	w := artWriter{b: make([]byte, 0, size)}
	w.u32(artifactVersion)
	w.u32(uint32(len(a.toolNames)))
	for _, name := range a.toolNames {
		w.str(name)
	}
	w.u32(uint32(len(a.sites)))
	for i := range a.sites {
		s := &a.sites[i]
		w.u32(uint32(s.idx))
		w.bool(s.nopOnly)
		w.bool(s.inline)
		w.u32(uint32(s.saveN))
		w.u32(uint32(s.savedRegs))
		w.u32(uint32(s.insts.n))
		for _, in := range of(s.insts, a.insts) {
			w.inst(in)
		}
		w.u32(uint32(s.relocs.n))
		for _, rl := range of(s.relocs, a.relocs) {
			w.u8(uint8(rl.kind))
			w.u32(uint32(rl.slot))
			w.i64(rl.aux)
		}
	}
	return w.b
}

func decodeCodeArtifact(b []byte) (*codeArtifact, error) {
	r := &artReader{b: b}
	if v := r.u32(); r.err == nil && v != artifactVersion {
		return nil, fmt.Errorf("nvbit: code artifact version %d, want %d", v, artifactVersion)
	}
	a := &codeArtifact{}
	if n := r.count(5); n > 0 {
		a.toolNames = make([]string, n)
		for i := range a.toolNames {
			a.toolNames[i] = r.str()
		}
	}
	// Walk the sites once for the totals, so the shared arrays are made at
	// their final size and only after every count was checked against the
	// bytes that follow it.
	nSites := r.count(siteBinBytes)
	m, nInsts, nRelocs := *r, 0, 0
	for i := 0; i < nSites; i++ {
		m.take(siteBinBytes - 8) // all of a site but its two counts
		k := m.count(instBinBytes)
		m.take(k * instBinBytes)
		nInsts += k
		k = m.count(relocBinBytes)
		m.take(k * relocBinBytes)
		nRelocs += k
	}
	if m.err != nil {
		return nil, m.err
	}
	a.sites = make([]siteArtifact, 0, nSites)
	a.insts = make([]sass.Inst, 0, nInsts)
	a.relocs = make([]reloc, 0, nRelocs)
	for i := 0; i < nSites && r.err == nil; i++ {
		s := siteArtifact{idx: int(r.u32()), nopOnly: r.bool(), inline: r.bool(), saveN: int(r.u32()), savedRegs: int(r.u32())}
		i0, r0 := len(a.insts), len(a.relocs)
		for k := r.count(instBinBytes); k > 0; k-- {
			a.insts = append(a.insts, r.inst())
		}
		for k := r.count(relocBinBytes); k > 0; k-- {
			rl := r.reloc()
			if rl.slot >= len(a.insts)-i0 {
				return nil, fmt.Errorf("nvbit: artifact reloc slot %d out of range", rl.slot)
			}
			if rl.kind == relocToolFn && (rl.aux < 0 || rl.aux >= int64(len(a.toolNames))) {
				return nil, fmt.Errorf("nvbit: artifact reloc tool index %d out of range", rl.aux)
			}
			a.relocs = append(a.relocs, rl)
		}
		a.addSite(s, i0, r0)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("nvbit: %d trailing bytes after code artifact", len(b)-r.off)
	}
	return a, nil
}
