package main

import (
	"bytes"
	"time"

	"nvbitgo/gpusim"
	"nvbitgo/internal/tools/instrcount"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

// specSuite is the shared body of spec_native and spec_instr: the fifteen
// specaccel benchmarks run back to back, each on a fresh Volta device under
// the sequential scheduler.
type specSuite struct {
	e     *env
	size  specaccel.Size
	instr bool // attach instrcount at every instruction
	// native holds the per-benchmark reference taken in set-up; spec_native
	// takes none at Large (it would double the run) and compares against
	// golden.json and its own first iteration instead.
	native map[string]nativeRef
	first  simCounts // spec_native: what iteration 0 counted
	counts simCounts
}

type nativeRef struct {
	out []byte
	st  gpusim.Stats
}

// checkGolden compares one native run with golden.json. A changed output is
// a failure; changed cycle or instruction counts are only reported, since a
// change to the cycle model moves them on purpose while a host-speed change
// must not.
func (s *specSuite) checkGolden(name string, size specaccel.Size, out []byte, st gpusim.Stats) bool {
	g := s.e.golden.Spec[size.String()][name]
	if st.Cycles != g.Cycles || st.WarpInstrs != g.WarpInstrs {
		s.e.notef("CHANGED %s/%s: native cycles %d (golden %d), warp instrs %d (golden %d)",
			name, size, st.Cycles, g.Cycles, st.WarpInstrs, g.WarpInstrs)
	}
	if sha(out) != g.SHA256 {
		s.e.notef("%s/%s: native output differs from golden.json", name, size)
		return false
	}
	return true
}

func setupSpecNative(e *env) (instance, error) {
	s := &specSuite{e: e, size: specaccel.Large}
	// Untimed warm-up at Small: fills the PTX compiler's and the
	// simulator's lazily built tables, and checks the Small goldens.
	for _, b := range suite {
		out, st, err := nativeRun(b, specaccel.Small)
		if err != nil {
			return nil, err
		}
		if !s.checkGolden(b.Name, specaccel.Small, out, st) {
			e.checkFailures++
		}
	}
	return s, nil
}

func setupSpecInstr(e *env) (instance, error) {
	s := &specSuite{e: e, size: specaccel.Small, instr: true, native: map[string]nativeRef{}}
	for _, b := range suite {
		out, st, err := nativeRun(b, specaccel.Small)
		if err != nil {
			return nil, err
		}
		if !s.checkGolden(b.Name, specaccel.Small, out, st) {
			e.checkFailures++
		}
		s.native[b.Name] = nativeRef{out: out, st: st}
	}
	return s, nil
}

func (s *specSuite) iterate(i int, t *tracer) (iterResult, error) {
	sc, done := t.root(i)
	t0 := time.Now()
	var c simCounts
	failed := 0
	for _, b := range suite {
		ok, err := s.runOne(sc, b, &c)
		if err != nil {
			return iterResult{}, err
		}
		if !ok {
			failed = 1
		}
	}
	d := time.Since(t0)
	done()
	if s.instr {
		c.slowdown /= float64(len(suite))
	} else {
		// No tool: the reference is this workload's own first iteration, so
		// the ratio reads 1 unless native simulated time stops repeating.
		if i == 0 {
			s.first = c
		}
		c.cyclesNative, c.warpInstrsNative = s.first.cyclesInstr, s.first.warpInstrsInstr
		c.slowdown = float64(c.cyclesInstr) / float64(c.cyclesNative)
	}
	s.counts = c
	return iterResult{wall: d, ops: 1, failed: failed, window: d}, nil
}

// runOne runs one benchmark of the suite and checks its output.
func (s *specSuite) runOne(sc scope, b *specaccel.Benchmark, c *simCounts) (ok bool, err error) {
	var tool *instrcount.Tool
	var attach nvbit.Tool
	if s.instr {
		tool = instrcount.New()
		attach = tool
	}
	api, ctx, nv, err := openDevice(sc, attach)
	if err != nil {
		return false, err
	}
	defer api.Close()
	out, err := b.RunCapture(traced(ctx, sc, false, nv), s.size)
	if err != nil {
		return false, err
	}
	st := api.Device().Stats()
	c.cyclesInstr += st.Cycles
	c.warpInstrsInstr += st.WarpInstrs
	if !s.instr {
		return s.checkGolden(b.Name, s.size, out, st), nil
	}
	ok = true
	ref := s.native[b.Name]
	c.cyclesNative += ref.st.Cycles
	c.warpInstrsNative += ref.st.WarpInstrs
	c.slowdown += float64(st.Cycles) / float64(ref.st.Cycles)
	if !bytes.Equal(out, ref.out) {
		s.e.notef("%s: instrumented output differs from the native run", b.Name)
		ok = false
	}
	if got := tool.Total(nv); got != ref.st.ThreadInstrs {
		s.e.notef("%s: instrcount counted %d thread instructions, native executed %d", b.Name, got, ref.st.ThreadInstrs)
		ok = false
	}
	return ok, nil
}

func (s *specSuite) sim() simCounts { return s.counts }
func (s *specSuite) close()         {}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
