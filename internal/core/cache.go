package core

import (
	"time"

	"nvbitgo/internal/jitcache"
	"nvbitgo/internal/sass"
)

// This file wires the content-addressed instrumentation cache
// (internal/jitcache) into the JIT pipeline. Two object kinds are cached:
//
//   - lift objects — the Instruction Lifter's disassembly output (SASS text
//     and basic-block partition), keyed by the function's code bytes and the
//     HAL identity. The tool callback still runs on every attach (it must:
//     its plan can embed fresh device addresses), but runs against cached
//     disassembly instead of re-formatting every instruction.
//
//   - code objects — the Code Generator's device-independent artifact
//     (trampoline bodies plus relocations, see artifact.go), keyed by
//     everything that determines the generated code: function bytes, HAL
//     identity, the tool's registered PTX sources, the function's register
//     requirement, the injection mode, and the complete instrumentation plan
//     down to each argument's kind and immediate. A hit skips liveness
//     analysis and code generation and goes straight to materialization.
//
// Because a code key covers the full plan — including ArgConst immediates
// such as device addresses of tool state — a cached artifact can never be
// served to an attach whose plan differs: the key simply misses. That is the
// invariant that makes the baked-in immediates in artifacts safe, and it is
// why the plan is hashed argument by argument rather than summarized.
//
// Key domains carry a schema version; artifactVersion is additionally mixed
// into every key so a codec change makes old entries unreachable.
const (
	liftKeyDomain = "nvbitgo/lift/v1"
	codeKeyDomain = "nvbitgo/code/v1"
)

// hashHAL folds the hardware identity every cached object depends on:
// instruction encoding family, instruction width, register file, ABI and
// save-routine shape — plus the artifact codec version.
func (n *NVBit) hashHAL(h *jitcache.Hasher) {
	hal := n.hal
	h.Int(int(hal.Family()))
	h.Int(hal.InstBytes)
	h.Int(hal.RegsPerThread)
	h.Int(hal.ABIVersion)
	h.Bool(hal.SaveBarrierState)
	h.Int(hal.SaveGranularity)
	h.Int(artifactVersion)
}

// liftKey fingerprints one function for the lift-object cache.
func (n *NVBit) liftKey(raw []byte) jitcache.Key {
	h := jitcache.NewHasher(liftKeyDomain)
	n.hashHAL(h)
	h.Bytes(raw)
	return h.Sum()
}

// codeKey fingerprints one function plus its instrumentation plan for the
// code-object cache.
func (n *NVBit) codeKey(fs *funcState) jitcache.Key {
	h := jitcache.NewHasher(codeKeyDomain)
	n.hashHAL(h)
	// The injection mode decides the codegen strategy per site (trampoline,
	// full-save ablation, or inline splicing), so artifacts generated under
	// different modes never alias.
	h.Int(int(n.injectMode))
	// MaxRegs comes from compiler metadata, not the code bytes: two
	// byte-identical functions can declare different register budgets, and
	// the budget feeds save-set sizing and the capture scratch register.
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
		h.Int(i.idx)
		h.Bool(i.removeOrig)
		hashCalls(h, i.before)
		hashCalls(h, i.after)
	}
	return h.Sum()
}

func hashCalls(h *jitcache.Hasher, calls []*callRequest) {
	h.Int(len(calls))
	for _, cr := range calls {
		h.String(cr.funcName)
		h.Bool(cr.guarded)
		h.Int(int(cr.guardP))
		h.Bool(cr.guardNeg)
		h.Bool(cr.useSite)
		h.Int(len(cr.args))
		for _, a := range cr.args {
			h.Int(int(a.kind))
			h.Int(a.reg)
			h.Uint64(a.imm)
			h.Int(a.bank)
			h.Int(a.off)
			h.Int(int(a.pred))
			h.Bool(a.predNeg)
		}
	}
}

// throughCache resolves one cached object, the template both object kinds
// share. t0 is when the caller started fingerprinting, so that key
// derivation and probing land in CacheLookup — net of build, which runs only
// for the winner of a miss (Do coalesces concurrent attaches onto a single
// generation; the result is a pure function of the key's inputs, so they can
// share it bit for bit) and whose duration comes back as genDur for the
// caller to attribute to the phase it replaces. A hit's decode lands in
// CacheHit. A nil object with a nil error means the entry passed the store's
// integrity checksum but not decode — a codec skew the versioned keys should
// have prevented: it has been evicted, no device state was touched, and the
// caller falls back to its uncached path.
func throughCache[T any](n *NVBit, t0 time.Time, key jitcache.Key, build func() (*T, []byte, error), decode func([]byte) (*T, bool)) (obj *T, hit bool, genDur time.Duration, err error) {
	n.stats.CacheLookups++
	data, hit, err := n.cache.Do(key, func() ([]byte, error) {
		g0 := time.Now()
		built, blob, berr := build()
		obj, genDur = built, time.Since(g0)
		return blob, berr
	})
	n.stats.CacheLookup += time.Since(t0) - genDur
	if err != nil || !hit {
		n.stats.CacheMisses++
		n.stats.CacheBytesWritten += len(data)
		return obj, false, genDur, err
	}
	h0 := time.Now()
	obj, ok := decode(data)
	n.stats.CacheHit += time.Since(h0)
	if !ok {
		n.cache.Delete(key)
		n.stats.CacheMisses++
		return nil, false, 0, nil
	}
	n.stats.CacheHits++
	n.stats.CacheBytesRead += len(data)
	return obj, true, 0, nil
}

// instrument is the cache-aware entry point the Code Loader calls for a
// function with pending instrumentation. Without a cache it is exactly
// generate. With one, it resolves the function's code object through the
// cache and materializes the artifact on this attach's device.
//
// Phase accounting: a hit's artifact decode and materialization land in
// CacheHit; a miss's generation and materialization land in CodeGen, exactly
// as if no cache were attached. On a fully warm run CodeGen is therefore
// zero.
func (n *NVBit) instrument(fs *funcState) error {
	if n.cache == nil {
		return n.generate(fs)
	}
	t0 := time.Now()
	art, hit, genDur, err := throughCache(n, t0, n.codeKey(fs), func() (*codeArtifact, []byte, error) {
		art, err := n.buildArtifact(fs)
		if err != nil {
			return nil, nil, err
		}
		return art, encodeCodeArtifact(art), nil
	}, func(data []byte) (*codeArtifact, bool) {
		art, err := decodeCodeArtifact(data)
		return art, err == nil
	})
	if err != nil {
		return err
	}
	if art == nil {
		return n.generate(fs)
	}
	m0 := time.Now()
	err = n.materializeArtifact(fs, art)
	if hit {
		n.stats.CacheHit += time.Since(m0)
	} else {
		n.stats.CodeGen += genDur + time.Since(m0)
	}
	return err
}

// liftThroughCache resolves one function's lift object through the cache.
// It returns nil when the cached payload cannot be used (the caller then
// lifts inline). A miss's generation lands in Disassemble — it is the
// nvdisasm-equivalent work.
func (n *NVBit) liftThroughCache(raw []byte, insts []sass.Inst) *liftArtifact {
	t0 := time.Now()
	art, _, genDur, _ := throughCache(n, t0, n.liftKey(raw), func() (*liftArtifact, []byte, error) {
		art := buildLiftArtifact(insts)
		return art, encodeLiftArtifact(art), nil
	}, func(data []byte) (*liftArtifact, bool) {
		art, err := decodeLiftArtifact(data)
		return art, err == nil && validLiftArtifact(art, len(insts))
	})
	n.stats.Disassemble += genDur
	return art
}
