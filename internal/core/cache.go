package core

import (
	"fmt"
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
// argument's kind and immediate. A hit skips liveness analysis and code
// generation and goes straight to materialization. Disassembly is not cached:
// the lift costs about what a lookup does, and the tool callback runs on every
// attach anyway (its plan can embed fresh device addresses).
//
// Because the key covers the full plan — including ArgConst immediates such
// as device addresses of tool state — a cached artifact can never be served
// to an attach whose plan differs: the key simply misses. That is the
// invariant that makes the baked-in immediates in artifacts safe, and it is
// why the plan is hashed argument by argument rather than summarized.
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
const codeKeyDomain = "nvbitgo/code/v5"

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
		hashCalls(h, i.before)
		hashCalls(h, i.after)
	}
	return h.Sum()
}

func flagByte(v bool) uint8 {
	if v {
		return 1
	}
	return 0
}

func hashCalls(h *jitcache.Hasher, calls []*callRequest) {
	h.Uint32(uint32(len(calls)))
	for _, cr := range calls {
		h.String(cr.funcName)
		h.Uint32(uint32(len(cr.args)))
		for _, a := range cr.args {
			h.Uint8(uint8(a.kind))
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
			if art, err = decodeCodeArtifact(data); err != nil {
				n.cache.Delete(key)
				hit, data, err = false, nil, nil
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
// (driver.BuildCubin); a hit rebuilds the same ptx.Module from it, which
// still loads as PTX. A miss returns the module it compiled, undecoded. A
// module the image format cannot hold is compiled and not stored, and an
// entry that passes the store's checksum but does not parse back to this
// module is evicted and compiled afresh, so a cached load never differs from
// an uncached one.
func (n *NVBit) compileModule(name, src string, family sass.Family) (*ptx.Module, error) {
	key := moduleKey(name, src, family)
	var (
		pm  *ptx.Module
		ran bool
	)
	data, hit, err := n.cache.Do(key, func() ([]byte, error) {
		ran = true
		var err error
		if pm, err = ptx.Compile(name, src, family); err != nil {
			return nil, err
		}
		return driver.BuildCubin(pm, false)
	})
	n.stats.ModuleLookups++
	if hit {
		if pm, err = cachedModule(data, name, family); err == nil {
			n.stats.ModuleHits++
			return pm, nil
		}
		n.cache.Delete(key)
	}
	n.stats.ModuleCompiles++
	if !ran {
		// The entry was bad, or the generation this call waited on failed.
		return ptx.Compile(name, src, family)
	}
	if pm != nil {
		err = nil // an image BuildCubin refused is just not stored
	}
	return pm, err
}

// cachedModule rebuilds a module from its cached device binary.
func cachedModule(image []byte, name string, family sass.Family) (*ptx.Module, error) {
	cm, err := driver.ParseCubin(image)
	if err != nil {
		return nil, err
	}
	if cm.Name != name || cm.Family != family {
		return nil, fmt.Errorf("nvbit: cached module %q for %v, want %q for %v", cm.Name, cm.Family, name, family)
	}
	return driver.CubinModule(cm)
}
