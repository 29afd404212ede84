package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
)

// LaunchFlushHook returns the flush hook the attachment would hand a launch
// whose enter callback ended now; leak tests read it.
func (n *NVBit) LaunchFlushHook() gpu.FlushHook { return n.launchFlushHook() }

// OwnedSpans returns the device memory the attachment owns, in allocation
// order.
func (n *NVBit) OwnedSpans() []gpu.AllocSpan { return n.spans }

// SetPerSiteVisits makes the Code Generator emit one trampoline per
// instrumented instruction — the build every coalescing differential compares
// with. Set it before the first launch; it is not part of the cache key, so
// leave the cache off.
func (n *NVBit) SetPerSiteVisits(on bool) { n.perSiteVisits = on }

// CodeArtifacts re-runs the device-independent half of the Code Generator
// over every function that carries an instrumentation plan and returns each
// one's encoded artifact by function name. The plan stays attached to a
// function after it has been instrumented, so this works both before and after
// the launch that materialized it.
func (n *NVBit) CodeArtifacts() (map[string][]byte, error) {
	out := make(map[string][]byte)
	for f, fs := range n.funcs {
		planned := false
		for _, i := range fs.insts {
			planned = planned || i.hasWork()
		}
		if !planned {
			continue
		}
		art, err := n.buildArtifact(fs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.Name, err)
		}
		out[f.Name] = encodeCodeArtifact(art)
	}
	return out, nil
}

// CodeKeys returns the cache key of every instrumented function, in hex by
// function name.
func (n *NVBit) CodeKeys() map[string]string {
	out := make(map[string]string)
	for f, fs := range n.funcs {
		if fs.instrumented {
			out[f.Name] = n.codeKey(fs).String()
		}
	}
	return out
}

// CanonicalCodeArtifact decodes an encoded artifact and renders it site by
// site, every field at full width and a relative branch's original immediate
// repeated in its relocation: the bytes artifactVersion 2 stored, which
// testdata/codegen_golden.txt was recorded over, with the instructions a site
// covers beyond its first in the return jump's relocation (zero in version 2,
// which had no such sites). Version 2 baked ArgDevPtr addresses in as
// constants, so each is rendered as this attachment's address and its
// relocation is left out. The golden pins what the Code Generator produced,
// so it reads this rendering and a change of wire format leaves it alone.
func (n *NVBit) CanonicalCodeArtifact(blob []byte) ([]byte, error) {
	a := new(codeArtifact)
	if err := decodeCodeArtifact(blob, a); err != nil {
		return nil, err
	}
	for _, s := range a.sites {
		insts := of(s.insts, a.insts)
		for _, rl := range of(s.relocs, a.relocs) {
			if rl.kind == relocAddr {
				if err := n.resolveAddr(insts[rl.slot:], a.addrs[rl.aux]); err != nil {
					return nil, err
				}
			}
		}
	}
	le := binary.LittleEndian
	flag := func(b []byte, v bool) []byte {
		if v {
			return append(b, 1)
		}
		return append(b, 0)
	}
	b := le.AppendUint32(nil, 2)
	b = le.AppendUint32(b, uint32(len(a.toolNames)))
	for _, name := range a.toolNames {
		b = append(le.AppendUint32(b, uint32(len(name))), name...)
	}
	b = le.AppendUint32(b, uint32(len(a.sites)))
	for _, s := range a.sites {
		b = flag(flag(le.AppendUint32(b, uint32(s.idx)), s.nopOnly), s.inline)
		b = le.AppendUint32(le.AppendUint32(b, uint32(s.saveN)), uint32(s.savedRegs))
		insts := of(s.insts, a.insts)
		b = le.AppendUint32(b, uint32(len(insts)))
		for _, in := range insts {
			b = flag(append(b, uint8(in.Op), uint8(in.Pred)), in.PredNeg)
			b = append(b, uint8(in.Dst), uint8(in.Src1), uint8(in.Src2), uint8(in.Src3), uint8(in.Mods))
			b = le.AppendUint64(b, uint64(in.Imm))
		}
		relocs := of(s.relocs, a.relocs)
		addrRelocs := 0
		for _, rl := range relocs {
			if rl.kind == relocAddr {
				addrRelocs++
			}
		}
		b = le.AppendUint32(b, uint32(len(relocs)-addrRelocs))
		for _, rl := range relocs {
			if rl.kind == relocAddr {
				continue
			}
			aux := int64(rl.aux)
			switch rl.kind {
			case relocRelBranch:
				aux = insts[rl.slot].Imm
			case relocRetJump:
				aux = int64(s.cover - 1)
			}
			b = le.AppendUint64(le.AppendUint32(append(b, uint8(rl.kind)), uint32(rl.slot)), uint64(aux))
		}
	}
	return b, nil
}

// CodeKey returns the cache key f's current plan would be looked up under.
func (n *NVBit) CodeKey(f *driver.Function) string { return n.codeKey(n.funcs[f]).String() }

// ArtifactDigests returns one "<function> <SHA-256 of the artifact's canonical
// rendering>" line per function of CodeArtifacts, sorted.
func (n *NVBit) ArtifactDigests() ([]string, error) {
	code, err := n.CodeArtifacts()
	var out []string
	for name, blob := range code {
		canon, cerr := n.CanonicalCodeArtifact(blob)
		if cerr != nil {
			return nil, fmt.Errorf("%s: %w", name, cerr)
		}
		out = append(out, fmt.Sprintf("%s %x", name, sha256.Sum256(canon)))
	}
	sort.Strings(out)
	return out, err
}

// RecodeCodeArtifact decodes a blob and, when it is accepted, reports whether
// encoding the result gives the blob back.
func RecodeCodeArtifact(b []byte) (accepted, same bool) {
	a := new(codeArtifact)
	err := decodeCodeArtifact(b, a)
	return err == nil, err == nil && bytes.Equal(encodeCodeArtifact(a), b)
}

// VisitSpans returns, for f's current plan, the first word and the instruction
// count of every visit the Code Generator would make, in program order.
func (n *NVBit) VisitSpans(f *driver.Function) ([][2]int, error) {
	_, visits, err := n.planVisits(n.funcs[f])
	out := make([][2]int, len(visits))
	for k, v := range visits {
		out[k] = [2]int{v.first, v.cover}
	}
	return out, err
}

// ArtifactShape returns the largest instruction count any site of an encoded
// artifact covers, the number of its owned-address relocations and of its
// tool functions.
func ArtifactShape(blob []byte) (maxCover, addrRelocs, tools int, err error) {
	a := new(codeArtifact)
	if err := decodeCodeArtifact(blob, a); err != nil {
		return 0, 0, 0, err
	}
	for _, s := range a.sites {
		maxCover = max(maxCover, s.cover)
	}
	for _, rl := range a.relocs {
		if rl.kind == relocAddr {
			addrRelocs++
		}
	}
	return maxCover, addrRelocs, len(a.toolNames), nil
}

// AnalyzedFuncs returns how many functions the attachment instrumented and
// how many of them hold the liveness fixed point's result, which a function
// computes at most once (funcState.liveness).
func (n *NVBit) AnalyzedFuncs() (instrumented, analyzed int) {
	for _, fs := range n.funcs {
		if fs.instrumented {
			instrumented++
			if fs.live != nil {
				analyzed++
			}
		}
	}
	return instrumented, analyzed
}

// DecodeOver decodes blob twice, into a new artifact and into one that priors
// were decoded into first, in turn, as the workspace's artifact is function
// after function, and reports whether the two agree: both refuse blob, or
// both accept it and are equal element for element.
func DecodeOver(priors [][]byte, blob []byte) bool {
	fresh, reused := new(codeArtifact), new(codeArtifact)
	for _, prior := range priors {
		if err := decodeCodeArtifact(prior, reused); err != nil {
			panic(err)
		}
	}
	errFresh, errReused := decodeCodeArtifact(blob, fresh), decodeCodeArtifact(blob, reused)
	if errFresh != nil || errReused != nil {
		return (errFresh == nil) == (errReused == nil)
	}
	return slices.Equal(fresh.toolNames, reused.toolNames) && slices.Equal(fresh.sites, reused.sites) &&
		slices.Equal(fresh.insts, reused.insts) && slices.Equal(fresh.relocs, reused.relocs) &&
		slices.Equal(fresh.addrs, reused.addrs)
}
