package main

import (
	"time"

	"nvbitgo/gpusim"
	"nvbitgo/internal/tools/memtrace"
	"nvbitgo/internal/workloads/mlsuite"
	"nvbitgo/nvbit"
)

// memtraceRecordBytes is the size of one memtrace record on the channel:
// six header words and 32 lane addresses.
const memtraceRecordBytes = 280

// alexNetRun runs mlsuite's AlexNet on a fresh device, under tool when it is
// not nil, with the parallel scheduler trace_stream uses.
func alexNetRun(sc scope, tool nvbit.Tool) (gpusim.Stats, error) {
	api, ctx, nv, err := openDevice(sc, tool, nvbit.WithScheduler(gpusim.SchedulerParallelSM))
	if err != nil {
		return gpusim.Stats{}, err
	}
	defer api.Close()
	if tool == nil {
		api.Device().SetScheduler(gpusim.SchedulerParallelSM) // no attach carried the option
	}
	// mlsuite drives a *driver.Context itself, so the whole schedule is one
	// gpu span; the JIT it triggered is split out from the phase counters.
	err = sc.do(layerGPU, "mlsuite.Run", func(s scope) error {
		var before nvbit.JITStats
		start := int64(0)
		if s.t != nil {
			start = s.t.now()
		}
		_, err := mlsuite.Run(ctx, nil, mlsuite.Networks()[0])
		if nv != nil {
			jitIntervals(s, start, before, nv.JITStats())
		}
		return err
	})
	return api.Device().Stats(), err
}

// memtraceRun is one trace_stream iteration without spans: AlexNet under a
// 4096-record blocking memtrace channel that keeps nothing.
func memtraceRun() (*memtrace.Tool, gpusim.Stats, error) {
	tool := newStreamTool()
	st, err := alexNetRun(scope{}, tool)
	return tool, st, err
}

func newStreamTool() *memtrace.Tool {
	tool := memtrace.New(4096)
	tool.Keep = false
	tool.Policy = nvbit.ChannelBlock
	return tool
}

type streamWorkload struct {
	e      *env
	native gpusim.Stats
	counts simCounts
}

func setupTraceStream(e *env) (instance, error) {
	st, err := alexNetRun(scope{}, nil)
	if err != nil {
		return nil, err
	}
	return &streamWorkload{e: e, native: st}, nil
}

func (w *streamWorkload) iterate(i int, t *tracer) (iterResult, error) {
	sc, done := t.root(i)
	t0 := time.Now()
	tool := newStreamTool()
	st, err := alexNetRun(sc, tool)
	if err != nil {
		return iterResult{}, err
	}
	d := time.Since(t0)
	done()
	w.counts = simOf(w.native, st)
	failed := 0
	cs := tool.Stats()
	if cs.Delivered != w.e.golden.MemtraceRecords || cs.Dropped != 0 || cs.BytesShipped != cs.Delivered*memtraceRecordBytes {
		w.e.notef("memtrace delivered %d records (golden %d), dropped %d, shipped %d bytes",
			cs.Delivered, w.e.golden.MemtraceRecords, cs.Dropped, cs.BytesShipped)
		failed = 1
	}
	return iterResult{wall: d, ops: 1, failed: failed, window: d}, nil
}

func (w *streamWorkload) sim() simCounts { return w.counts }
func (w *streamWorkload) close()         {}
