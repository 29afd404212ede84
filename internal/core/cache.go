package core

import (
	"time"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/jitcache"
	"nvbitgo/internal/ptx"
	"nvbitgo/internal/sass"
)

// This file wires the content-addressed instrumentation cache
// (internal/jitcache) into the JIT pipeline. It holds two kinds of object:
// compiled modules (compileModule, at the end of this file) and, one per
// instrumented function, the Code Generator's device-independent artifact
// (trampoline bodies plus relocations, see artifact.go), keyed by everything
// that determines the generated code: function bytes, HAL identity, the
// tool's registered PTX sources, the function's register requirement, the
// injection mode, and the complete instrumentation plan down to each
// argument's kind and constant. A hit skips code generation (and with it any
// liveness analysis a trampoline would need), decodes the stored bytes into
// the attachment's workspace and goes straight to materialization.
// Disassembly is not cached: the lift costs about what a lookup does, and the
// tool callback runs on every attach anyway (its plan is this attach's, with
// this attach's addresses).
//
// Because the key covers the full plan — including ArgConst constants — a
// cached artifact can never be served to an attach whose plan differs: the
// key simply misses. That is the invariant that makes the baked-in constants
// in artifacts safe, and it is why the plan is hashed argument by argument
// rather than summarized. The one thing of the plan the key does not hold is
// where the attachment's own memory landed: an ArgDevPtr address is hashed as
// its span's ordinal in allocation order, the span's size and the offset, plus
// the form its load takes (loadForm), and the artifact leaves the address to
// a relocation. Two sessions whose tool state landed at different addresses
// therefore share one entry, and its code at each is what an uncached build
// there gives.
//
// The key domain carries a schema version; artifactVersion is additionally
// mixed into the key so a codec change makes old entries unreachable. Schema
// v2 hashes the plan — the bulk of a key — in fields as wide as their types:
// a byte for a flag, a predicate or an argument kind, four for a word index,
// a count, a register or a constant bank (of which generated code keeps the
// low bits only), eight for what a tool may set to any value. Schema v3 hashes
// the same fields: it marks the generator that coalesces visits (coalesce.go),
// whose output for an unchanged plan differs from its predecessor's, so no
// entry made before it is found. Schema v4 drops the four guard bytes per call
// that predicate-matched calls, since removed, added to the plan. Schema v5
// marks the generator that no longer pads an ordered function's save set.
// Schema v6 hashes an ArgDevPtr argument as (span ordinal, span size, offset,
// load form) instead of its address.
const codeKeyDomain = "nvbitgo/code/v6"

// codeKey fingerprints one function plus its instrumentation plan.
func (n *NVBit) codeKey(fs *funcState) jitcache.Key {
	h := jitcache.NewHasher(codeKeyDomain)
	// The hardware identity generated code depends on: instruction encoding
	// family, instruction width, register file, ABI and save-routine shape —
	// plus the artifact codec version.
	hal := n.hal
	h.Int(int(hal.Family()))
	h.Int(hal.InstBytes)
	h.Int(hal.RegsPerThread)
	h.Int(hal.ABIVersion)
	h.Bool(hal.SaveBarrierState)
	h.Int(hal.SaveGranularity)
	h.Int(artifactVersion)
	// The injection mode decides the codegen strategy per site (trampoline,
	// full-save ablation, or inline splicing), so artifacts generated under
	// different modes never alias.
	h.Int(int(n.injectMode))
	// MaxRegs comes from compiler metadata, not the code bytes: two
	// byte-identical functions can declare different register budgets, and
	// the budget feeds save-set sizing and the inline dead-register pool.
	h.Int(fs.f.MaxRegs())
	// Tool identity: the registered PTX sources determine every tool
	// function's register budget, parameter ABI and generated body.
	h.Int(len(n.loader.sources))
	for _, src := range n.loader.sources {
		h.String(src)
	}
	h.Bytes(fs.origCode)
	// The full plan, in program order.
	for _, i := range fs.insts {
		if !i.hasWork() {
			continue
		}
		h.Uint32(uint32(i.idx))
		h.Uint8(flagByte(i.removeOrig))
		n.hashCalls(h, &fs.plan, i.before)
		n.hashCalls(h, &fs.plan, i.after)
	}
	return h.Sum()
}

func flagByte(v bool) uint8 {
	if v {
		return 1
	}
	return 0
}

// hashCalls hashes the list of calls that starts at link head in p: its
// length, then each call's tool function and arguments.
func (n *NVBit) hashCalls(h *jitcache.Hasher, p *plan, head int32) {
	h.Uint32(uint32(p.count(head)))
	for c := head; c != 0; c = p.calls[c].next {
		h.String(n.callNames[p.calls[c].name])
		h.Uint32(uint32(p.calls[c].n))
		for _, a := range p.argsOf(c) {
			h.Uint8(uint8(a.kind))
			if a.kind == argDevPtr {
				// An address no span holds fails code generation, so
				// nothing is stored under the key it gets here.
				h.Uint32(uint32(a.span))
				if a.span >= 0 {
					h.Uint64(n.spans[a.span].Size)
				}
				h.Uint64(uint64(a.off))
				h.Uint8(loadForm(n.hal.family, a.imm))
				continue
			}
			h.Uint32(uint32(a.reg))
			h.Uint64(a.imm)
			h.Uint32(uint32(a.bank))
			h.Int(a.off)
			h.Uint8(uint8(a.pred))
			h.Uint8(flagByte(a.predNeg))
		}
	}
}

// instrument runs the Code Generator (paper Section 5.1, Figure 4) for one
// function with pending instrumentation: it obtains the function's
// device-independent artifact and materializes it on this attach's device.
// Without a cache the artifact is built. With one it is resolved through Do,
// which runs the build only for the winner of a miss — concurrent attaches
// coalesce onto a single generation; the artifact is a pure function of the
// key's inputs, so they can share it bit for bit. An entry that passes the
// store's integrity checksum but not decode is a codec skew the versioned key
// should have prevented: it is evicted and, no device state having been
// touched, the artifact is built as if no cache were attached.
//
// Phase accounting: building and materializing land in CodeGen, exactly as
// without a cache; key derivation, the probe and the store land in
// CacheLookup; a hit's decode and materialization land in CacheHit. On a
// fully warm run CodeGen is therefore zero.
func (n *NVBit) instrument(fs *funcState) error {
	var (
		art *codeArtifact
		err error
		hit bool
		gen time.Duration // building and encoding inside Do
	)
	if n.cache != nil {
		t0 := time.Now()
		key := n.codeKey(fs)
		var data []byte
		data, hit, err = n.cache.Do(key, func() (blob []byte, berr error) {
			g0 := time.Now()
			if art, berr = n.buildArtifact(fs); berr == nil {
				blob = encodeCodeArtifact(art)
			}
			gen = time.Since(g0)
			return blob, berr
		})
		n.stats.CacheLookups++
		n.stats.CacheLookup += time.Since(t0) - gen
		if hit {
			h0 := time.Now()
			art = &n.ws.art
			if err = decodeCodeArtifact(data, art); err != nil {
				n.cache.Delete(key)
				art, hit, data, err = nil, false, nil, nil
			}
			n.stats.CacheHit += time.Since(h0)
		}
		if hit {
			n.stats.CacheHits++
			n.stats.CacheBytesRead += len(data)
		} else {
			n.stats.CacheMisses++
			n.stats.CacheBytesWritten += len(data)
		}
	}
	m0 := time.Now()
	if art == nil && err == nil {
		art, err = n.buildArtifact(fs)
	}
	if err == nil {
		err = n.materializeArtifact(fs, art)
	}
	if hit {
		n.stats.CacheHit += time.Since(m0)
	} else {
		n.stats.CodeGen += gen + time.Since(m0)
	}
	return err
}

// moduleKeyDomain is the key domain of compiled modules, the second kind of
// object in the cache. Its key also carries ptx.CompilerVersion and
// driver.CubinVersion, so a compiler or image-format change makes old
// entries unreachable.
const moduleKeyDomain = "nvbitgo/module/v1"

// moduleKey fingerprints one PTX compile: everything ptx.Compile reads.
func moduleKey(name, src string, family sass.Family) jitcache.Key {
	h := jitcache.NewHasher(moduleKeyDomain)
	h.Int(ptx.CompilerVersion)
	h.Int(driver.CubinVersion)
	h.Int(int(family))
	h.String(name)
	h.String(src)
	return h.Sum()
}

// compileModule is the scope's compiler while the attachment has a cache
// (driver.Tenant.SetCompiler), as the driver's compute cache is for real
// PTX: the application's PTX loads and the tool loader compile through it.
// A module is stored as its device binary with line tables
// (driver.BuildCubin); a hit hands the driver the parsed image, whose code
// is not decoded until the lifter reads it back from device memory. A miss
// returns the binary it assembled. A module the image format cannot hold is
// compiled and not stored, and an entry that passes the store's checksum
// but does not parse as this module is evicted and compiled afresh, so a
// cached load never differs from an uncached one.
func (n *NVBit) compileModule(name, src string, family sass.Family) (*driver.Cubin, error) {
	key := moduleKey(name, src, family)
	var cm *driver.Cubin
	data, hit, _ := n.cache.Do(key, func() ([]byte, error) {
		var err error
		if cm, err = driver.Compile(name, src, family); err != nil {
			return nil, err
		}
		return driver.BuildCubin(cm, false)
	})
	n.stats.ModuleLookups++
	if hit {
		if c, err := driver.ParseCubin(data); err == nil && c.Name == name && c.Family == family {
			n.stats.ModuleHits++
			return c, nil
		}
		n.cache.Delete(key)
	}
	n.stats.ModuleCompiles++
	if cm == nil {
		// The entry was bad, or a compile failed (this call's, or the one
		// it waited on), whose error compiling again returns.
		return driver.Compile(name, src, family)
	}
	return cm, nil // stored, unless BuildCubin refused the image
}
