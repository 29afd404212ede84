// Package gpusim is the application-facing public API of the simulated GPU
// stack: it is what a CUDA application would link against. It wraps the
// simulated device, the CUDA-driver analog, the PTX JIT path, and the cubin
// loader behind a small surface.
//
// Typical use:
//
//	sim, _ := gpusim.New(gpusim.Volta)
//	ctx, _ := sim.CtxCreate()
//	mod, _ := ctx.ModuleLoadPTX("app", ptxSource)
//	fn, _ := mod.GetFunction("kernel")
//	buf, _ := ctx.MemAlloc(1 << 20)
//	params, _ := gpusim.PackParams(fn, buf, uint32(n))
//	ctx.LaunchKernel(fn, gpusim.D1(blocks), gpusim.D1(256), 0, params)
package gpusim

import (
	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/sass"
)

// Architecture families.
const (
	Kepler  = sass.Kepler
	Maxwell = sass.Maxwell
	Pascal  = sass.Pascal
	Volta   = sass.Volta
)

// Scheduler kinds for Config.Scheduler: sequential is the deterministic
// reference backend, parallel runs one worker goroutine per SM (see
// docs/scheduler.md for the determinism contract).
const (
	SchedulerSequential = gpu.SchedulerSequential
	SchedulerParallelSM = gpu.SchedulerParallelSM
)

// ParseScheduler maps a command-line name ("sequential", "parallel") to a
// SchedulerKind.
var ParseScheduler = gpu.ParseScheduler

// Re-exported stack types.
type (
	// Family is a GPU architecture family.
	Family = sass.Family
	// SchedulerKind selects the CTA execution backend.
	SchedulerKind = gpu.SchedulerKind
	// Config describes the simulated device.
	Config = gpu.Config
	// Stats are device execution statistics.
	Stats = gpu.Stats
	// Dim3 is a CUDA-style extent.
	Dim3 = gpu.Dim3
	// API is the driver instance.
	API = driver.API
	// Context is the CUcontext analog.
	Context = driver.Context
	// Module is the CUmodule analog.
	Module = driver.Module
	// Function is the CUfunction analog.
	Function = driver.Function
)

// New creates a driver on a default-configured device of the given family.
func New(f Family) (*API, error) { return driver.New(gpu.DefaultConfig(f)) }

// NewWithConfig creates a driver on a custom-configured device.
func NewWithConfig(cfg Config) (*API, error) { return driver.New(cfg) }

// DefaultConfig returns the default device configuration for a family.
func DefaultConfig(f Family) Config { return gpu.DefaultConfig(f) }

// D1 builds a one-dimensional extent.
func D1(n int) Dim3 { return gpu.D1(n) }

// PackParams marshals typed kernel arguments into a raw parameter block.
var PackParams = driver.PackParams

// CompileToCubin compiles PTX source ahead of time (the ptxas path) and
// serializes it into a device binary for the family. Setting strip drops
// line information, like building without -lineinfo. This is how the
// reproduction's "precompiled accelerated library" ships binary-only
// kernels.
func CompileToCubin(name, src string, f Family, strip bool) ([]byte, error) {
	c, err := driver.Compile(name, src, f)
	if err != nil {
		return nil, err
	}
	return driver.BuildCubin(c, strip)
}
