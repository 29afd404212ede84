package main

import (
	"nvbitgo/gpusim"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

// suite is the specaccel suite, built once; running a benchmark only reads
// it, so concurrent sessions share the entries.
var suite = specaccel.Benchmarks()

func specBenchmark(name string) *specaccel.Benchmark {
	for _, b := range suite {
		if b.Name == name {
			return b
		}
	}
	panic("specaccel has no benchmark " + name)
}

const (
	spanDeviceNew = "gpusim.New"
	spanAttach    = "nvbit.Attach"
)

// openDevice creates a fresh default Volta device and a context on it, each
// call under a span of sc. A tool that is not nil is attached in between:
// the framework binds its HAL when the context is created. The caller closes
// the API.
func openDevice(sc scope, tool nvbit.Tool, opts ...nvbit.Option) (api *gpusim.API, ctx *gpusim.Context, nv *nvbit.NVBit, err error) {
	if err = sc.do(layerGPU, spanDeviceNew, func(scope) (err error) {
		api, err = gpusim.New(gpusim.Volta)
		return err
	}); err != nil {
		return nil, nil, nil, err
	}
	if tool != nil {
		if err = sc.do(layerCore, spanAttach, func(scope) (err error) {
			nv, err = nvbit.Attach(api, tool, opts...)
			return err
		}); err != nil {
			api.Close()
			return nil, nil, nil, err
		}
	}
	if ctx, err = api.CtxCreate(); err != nil {
		api.Close()
		return nil, nil, nil, err
	}
	return api, ctx, nv, nil
}

// nativeRun executes one benchmark on a fresh uninstrumented device and
// returns its captured output and device statistics.
func nativeRun(b *specaccel.Benchmark, size specaccel.Size) ([]byte, gpusim.Stats, error) {
	api, ctx, _, err := openDevice(scope{}, nil)
	if err != nil {
		return nil, gpusim.Stats{}, err
	}
	defer api.Close()
	out, err := b.RunCapture(ctx, size)
	return out, api.Device().Stats(), err
}
