package core_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/sass"
	"nvbitgo/internal/tools/instrcount"
	"nvbitgo/internal/tools/itrace"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

// ctaExitPanics is a tool whose OnCTAExit callback panics in every launch.
type ctaExitPanics struct{ nvbit.Tool }

func (t ctaExitPanics) AtCUDACall(n *nvbit.NVBit, exit bool, cbid nvbit.CBID, name string, p *nvbit.CallParams) {
	t.Tool.AtCUDACall(n, exit, cbid, name, p)
	if !exit && cbid == nvbit.CBLaunchKernel {
		if err := n.OnCTAExit(func(int) { panic("tool bug in OnCTAExit") }); err != nil {
			panic(err)
		}
	}
}

// within runs fn and fails the test unless it returns within d.
func within(t *testing.T, d time.Duration, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(d):
		t.Fatalf("%s: still waiting after %v", what, d)
	}
}

// TestCTAExitPanicFailsOnlyItsLaunch: two sessions share one device, and
// session A's OnCTAExit callback panics. A's launch fails with
// ErrToolCallback and no panic escapes it; it gives the device back, so
// session B's launches, during and after A's, run to the end and nothing is
// left waiting at the gate; A still closes, and its device memory returns.
func TestCTAExitPanicFailsOnlyItsLaunch(t *testing.T) {
	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	dev := api.Device()
	base := dev.Allocations()
	a, err := nvbit.OpenSession(api, ctaExitPanics{itrace.New(1 << 12)})
	if err != nil {
		t.Fatal(err)
	}
	var owned []gpu.AllocSpan // A's channel memory
	for _, s := range dev.Allocations() {
		if !slices.Contains(base, s) {
			owned = append(owned, s)
		}
	}
	b, err := nvbit.OpenSession(api, instrcount.New())
	if err != nil {
		t.Fatal(err)
	}
	bench := sessionBenchmark("ostencil")
	runB := func() error { return bench.Run(b.Ctx(), specaccel.Small) }

	bDone := make(chan error, 1)
	go func() { bDone <- runB() }()
	aErr := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("a panic escaped session A's launch: %v", r)
			}
		}()
		return bench.Run(a.Ctx(), specaccel.Small)
	}()
	if !errors.Is(aErr, nvbit.ErrToolCallback) || !strings.Contains(aErr.Error(), "tool bug in OnCTAExit") {
		t.Errorf("session A's run: %v, want ErrToolCallback from its OnCTAExit callback", aErr)
	}
	within(t, 30*time.Second, "session B's run beside A's", func() error { return <-bDone })
	within(t, 30*time.Second, "session B's run after A's", runB)
	if n := api.Gate().Waiting(); n != 0 {
		t.Fatalf("%d operations waiting at the gate", n)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("closing session A: %v", err)
	}
	for _, s := range dev.Allocations() {
		if slices.Contains(owned, s) {
			t.Errorf("session A's %d bytes at %#x outlived its Close", s.Size, s.Base)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCodeSpaceExhaustionIsTyped: on a device with little code space,
// distinct kernels loaded and launched under instrcount use it up, and the
// launch whose instrumentation no longer fits fails with an error that is
// both ErrToolCallback and gpu.ErrOutOfCodeSpace. The launch gives the device
// back: the context's next call runs.
func TestCodeSpaceExhaustionIsTyped(t *testing.T) {
	cfg := gpu.DefaultConfig(sass.Volta)
	cfg.CodeBytes = 128 << 10
	api, err := driver.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	if _, err := nvbit.Attach(api, instrcount.New()); err != nil {
		t.Fatal(err)
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.MemAlloc(4 * 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if i == 64 {
			t.Fatal("64 instrumented kernels fit in the code space")
		}
		var src strings.Builder
		fmt.Fprintf(&src, ".visible .entry k%d(.param .u64 out)\n{\n\t.reg .u32 %%r<2>;\n\t.reg .u64 %%rd<4>;\n", i)
		src.WriteString("\tmov.u32 %r0, %tid.x;\n")
		for j := 0; j < 32+i; j++ {
			fmt.Fprintf(&src, "\tadd.u32 %%r0, %%r0, %d;\n", j)
		}
		src.WriteString("\tld.param.u64 %rd0, [out];\n\tmov.u32 %r1, %tid.x;\n\tmul.wide.u32 %rd2, %r1, 4;\n\tadd.u64 %rd0, %rd0, %rd2;\n\tst.global.u32 [%rd0], %r0;\n\texit;\n}\n")
		mod, err := ctx.ModuleLoadPTX(fmt.Sprintf("k%d", i), src.String())
		if err != nil {
			t.Fatalf("loading kernel %d: %v", i, err)
		}
		f, err := mod.GetFunction(fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatal(err)
		}
		params, err := driver.PackParams(f, out)
		if err != nil {
			t.Fatal(err)
		}
		err = ctx.LaunchKernel(f, gpu.D1(1), gpu.D1(32), 0, params)
		if err == nil {
			continue
		}
		if !errors.Is(err, nvbit.ErrToolCallback) || !errors.Is(err, nvbit.ErrOutOfCodeSpace) {
			t.Fatalf("launch %d: %v, want ErrToolCallback and ErrOutOfCodeSpace", i, err)
		}
		break
	}
	within(t, 10*time.Second, "a memory copy after the failed launch", func() error {
		return ctx.MemcpyDtoH(make([]byte, 4), out)
	})
	if n := api.Gate().Waiting(); n != 0 {
		t.Fatalf("%d operations waiting at the gate", n)
	}
}
