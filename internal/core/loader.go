package core

import (
	"fmt"
	"time"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
)

// EnableInstrumented selects, at run time, whether the instrumented or the
// original version of a function runs on its next launches
// (nvbit_enable_instrumented, Listing 6). The choice persists until changed.
// The actual code swap happens at the exit of the driver callback, and its
// cost is identical to a host-to-device copy of the function's code size
// (Section 5.1).
func (n *NVBit) EnableInstrumented(f *driver.Function, enable bool) error {
	fs, err := n.state(f)
	if err != nil {
		return err
	}
	fs.enabled = enable
	fs.enabledExplicit = true
	return nil
}

// OnCTAExit runs fn at the exit of every CTA of the launch whose callback is
// running, with the CTA's linear index. It needs the sequential scheduler,
// which runs a launch's CTAs one at a time in index order: no warp is
// resident when fn runs, so a code version fn selects with
// EnableInstrumented is swapped in there (the same copy, no re-JIT) and the
// launch's next CTA runs it. One launch can thus run some CTAs instrumented
// and the rest native. New instrumentation fn requests waits for the next
// launch. fn ends with its launch, and a launch without one runs no hook.
// OnCTAExit is for a kernel launch's enter callback, once per launch; under
// SchedulerParallelSM, whose CTAs retire concurrently, it returns an error.
func (n *NVBit) OnCTAExit(fn func(cta int)) error {
	switch {
	case !n.inUserCallback:
		return fmt.Errorf("nvbit: OnCTAExit outside a kernel launch callback")
	case n.Device().Config().Scheduler != gpu.SchedulerSequential:
		return fmt.Errorf("nvbit: OnCTAExit needs the sequential scheduler (parallel SMs retire CTAs concurrently)")
	case n.ctaExit != nil:
		return fmt.Errorf("nvbit: OnCTAExit already set for this launch")
	}
	n.ctaExit, n.ctaNext = fn, 0
	n.setFlushHooks()
	return nil
}

// atCTAExit is the flush hook OnCTAExit installs. At a CTA's exit it runs
// the callback, then makes resident the code version each function asks for.
func (n *NVBit) atCTAExit(_ int, point gpu.FlushPoint) {
	if point != gpu.FlushCTA {
		return
	}
	cta := n.ctaNext
	n.ctaNext++
	n.ctaExit(cta)
	for _, fs := range n.funcs {
		if want := fs.enabled && fs.instrumented; want != fs.resident {
			if err := n.swapIn(fs, want); err != nil {
				panic(fmt.Sprintf("nvbit: switching %s after CTA %d: %v", fs.f.Name, cta, err))
			}
		}
	}
}

// endCTAExit removes the OnCTAExit callback of the launch that ended.
func (n *NVBit) endCTAExit() {
	if n.ctaExit != nil {
		n.ctaExit = nil
		n.setFlushHooks()
	}
}

// ResetInstrumented discards a function's instrumentation: the original code
// is restored and all pending requests are dropped
// (nvbit_reset_instrumented). Trampolines remain GPU-resident, exactly as in
// the paper — they are only reclaimed on module unload, which the simulator
// does not model.
func (n *NVBit) ResetInstrumented(f *driver.Function) error {
	fs, ok := n.funcs[f]
	if !ok {
		return nil
	}
	if fs.resident {
		if err := n.swapIn(fs, false); err != nil {
			return err
		}
	}
	for _, i := range fs.insts {
		i.before, i.after = nil, nil
		i.removeOrig = false
		i.lastInserted = nil
	}
	fs.instrCode = nil
	fs.instrumented = false
	fs.enabled = false
	fs.enabledExplicit = false
	fs.dirty = false
	return nil
}

// finalizeAll runs at the exit of a launch-related driver callback: the
// launched function is finalized first, then every other function carrying
// pending instrumentation or a stale resident version — tools may have
// instrumented related (callee) device functions or other kernels from the
// same callback, and their code generation happens now too.
func (n *NVBit) finalizeAll(launched *driver.Function) error {
	if err := n.finalize(launched); err != nil {
		return err
	}
	for f, fs := range n.funcs {
		if f == launched {
			continue
		}
		if fs.dirty || (fs.enabled && fs.instrumented) != fs.resident {
			if err := n.finalize(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// finalize invokes the Code Generator for newly requested instrumentation on
// one function and the Code Loader/Unloader to make the requested code
// version resident.
func (n *NVBit) finalize(f *driver.Function) error {
	fs, ok := n.funcs[f]
	if !ok {
		return nil // never inspected: original code runs untouched
	}
	if fs.dirty {
		if fs.instrumented {
			return fmt.Errorf("nvbit: %s: new instrumentation on an already-instrumented function; call ResetInstrumented first", f.Name)
		}
		hadWork := false
		for _, i := range fs.insts {
			if i.hasWork() {
				hadWork = true
				break
			}
		}
		if hadWork {
			if err := n.instrument(fs); err != nil {
				return err
			}
			// Freshly instrumented functions default to enabled unless
			// the tool explicitly chose a version.
			if !fs.enabledExplicit {
				fs.enabled = true
			}
		} else {
			fs.dirty = false
		}
	}
	want := fs.enabled && fs.instrumented
	if want != fs.resident {
		if err := n.swapIn(fs, want); err != nil {
			return err
		}
	}
	return nil
}

// swapIn writes the selected code version over the function's load address.
// Both versions have the exact same number of bytes and occupy the exact
// same location in GPU memory, so absolute jumps targeting the function keep
// working regardless of which version is running.
func (n *NVBit) swapIn(fs *funcState, instrumented bool) error {
	start := time.Now()
	code := fs.origCode
	if instrumented {
		code = fs.instrCode
	}
	if len(code) != len(fs.origCode) {
		return fmt.Errorf("nvbit: internal error: code version size mismatch (%d vs %d)", len(code), len(fs.origCode))
	}
	err := n.Device().WriteCode(fs.f.Addr, code)
	n.stats.Swap += time.Since(start)
	n.stats.SwapBytes += len(code)
	if err != nil {
		return err
	}
	fs.resident = instrumented
	return nil
}
