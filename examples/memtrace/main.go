// Full memory-address tracing over the device→host streaming channel — the
// flagship channel client. Every dynamic global memory access is captured as
// a warp-level record carrying the static instruction index, opcode, warp id,
// execution mask, and all 32 effective lane addresses; records stream to the
// host through mid-kernel flushes, so the device-resident buffers can be far
// smaller than the trace.
//
// The example runs the workload once under each backpressure policy:
// ChannelDrop ships what fits and counts the loss; ChannelBlock makes full
// warps wait for the next flush and delivers the complete trace.
//
//	go run ./examples/memtrace
package main

import (
	"fmt"
	"log"

	"nvbitgo/gpusim"
	"nvbitgo/internal/tools/memtrace"
	"nvbitgo/internal/workloads/mlsuite"
	"nvbitgo/nvbit"
)

// trace runs AlexNet with the memory tracer attached, streaming records
// instead of accumulating them: OnRecord fires at flush delivery, so the
// host-side footprint stays bounded no matter how long the trace is.
func trace(policy nvbit.ChannelPolicy, capacity int) (sample []memtrace.Record, lines map[uint64]bool, st nvbit.ChannelStats, tool *memtrace.Tool) {
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		log.Fatal(err)
	}
	tool = memtrace.New(capacity)
	tool.Policy = policy
	tool.Keep = false
	lines = make(map[uint64]bool)
	tool.OnRecord = func(r memtrace.Record) {
		if len(sample) < 4 {
			sample = append(sample, r)
		}
		for lane := 0; lane < 32; lane++ {
			if r.ExecMask&(1<<lane) != 0 {
				lines[r.Addrs[lane]>>7] = true // 128-byte cache lines
			}
		}
	}
	if _, err := nvbit.Attach(api, tool, nvbit.WithScheduler(gpusim.SchedulerParallelSM)); err != nil {
		log.Fatal(err)
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := mlsuite.Run(ctx, nil, mlsuite.Networks()[0] /* AlexNet */); err != nil {
		log.Fatal(err)
	}
	st = tool.Stats()
	return sample, lines, st, tool
}

func main() {
	// A deliberately tiny channel: the aggregate capacity is far below the
	// trace length, so the stream only completes through mid-kernel flushes.
	const capacity = 4096

	var delivered uint64
	for _, policy := range []nvbit.ChannelPolicy{nvbit.ChannelDrop, nvbit.ChannelBlock} {
		sample, lines, st, tool := trace(policy, capacity)
		delivered = st.Delivered
		fmt.Printf("policy %v: %d warp-level accesses delivered, %d dropped\n",
			policy, st.Delivered, st.Dropped)
		fmt.Printf("  channel: %d flushes (%d sweep, %d drain), %d bytes shipped\n",
			st.Flushes, st.TickFlushes, st.DrainFlushes, st.BytesShipped)
		fmt.Printf("  footprint: %d distinct 128-byte lines touched\n", len(lines))
		if policy == nvbit.ChannelBlock {
			fmt.Println("  first records of the (complete) trace:")
			for _, r := range sample {
				fmt.Printf("    %-12s inst %2d warp %3d mask %08x lane0 addr %#x\n",
					tool.KernelName(r.KernelID), r.InstIdx, r.WarpID, r.ExecMask, r.Addrs[0])
			}
		}
	}
	fmt.Printf("\nthe trace is %.1fx the channel capacity: mid-kernel flushes recycle the\n",
		float64(delivered)/capacity)
	fmt.Println("tiny buffers. If a burst ever outruns a flush, Drop counts the loss")
	fmt.Println("exactly while Block paces warps against the flushes for zero loss.")
}
