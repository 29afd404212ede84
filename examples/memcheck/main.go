// Device-memory checking with dynamic binary instrumentation — the
// compute-sanitizer/cuda-memcheck use case. The simulated hardware only
// traps accesses that leave the device heap entirely; an off-by-one overrun
// into the allocator's free space or a read through a stale pointer executes
// silently. The memcheck tool instruments every global load and store,
// streams the effective lane addresses to the host through a channel, and
// validates them against the driver's allocation table at each launch exit —
// catching exactly the bugs the hardware cannot.
//
//	go run ./examples/memcheck
package main

import (
	"fmt"
	"log"
	"os"

	"nvbitgo/gpusim"
	"nvbitgo/internal/tools/memcheck"
	"nvbitgo/nvbit"
)

// copyKernel copies n 4-byte elements from src to dst, one per thread. The
// bug is in the launch geometry, not the kernel: launching more threads than
// elements overruns both buffers.
const copyKernel = `
.visible .entry copy(.param .u64 src, .param .u64 dst)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	mov.u32 %r4, %ctaid.x;
	mov.u32 %r5, %ntid.x;
	mov.u32 %r6, %tid.x;
	mad.lo.u32 %r0, %r4, %r5, %r6;
	shl.b32 %r1, %r0, 2;
	cvt.u64.u32 %rd4, %r1;
	ld.param.u64 %rd0, [src];
	add.u64 %rd0, %rd0, %rd4;
	ld.param.u64 %rd2, [dst];
	add.u64 %rd2, %rd2, %rd4;
	ld.global.u32 %r3, [%rd0];
	st.global.u32 [%rd2], %r3;
	exit;
}
`

func main() {
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		log.Fatal(err)
	}
	tool := memcheck.New(1 << 18)
	if _, err := nvbit.Attach(api, tool); err != nil {
		log.Fatal(err)
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		log.Fatal(err)
	}
	mod, err := ctx.ModuleLoadPTX("app", copyKernel)
	if err != nil {
		log.Fatal(err)
	}
	f, err := mod.GetFunction("copy")
	if err != nil {
		log.Fatal(err)
	}

	const elems = 192 // 768 bytes per buffer
	src, err := ctx.MemAlloc(elems * 4)
	if err != nil {
		log.Fatal(err)
	}
	dst, err := ctx.MemAlloc(elems * 4)
	if err != nil {
		log.Fatal(err)
	}
	launch := func(label string, s, d uint64, threads int) {
		params, err := gpusim.PackParams(f, s, d)
		if err != nil {
			log.Fatal(err)
		}
		if err := ctx.LaunchKernel(f, gpusim.D1(threads/32), gpusim.D1(32), 0, params); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %d accesses checked, %d violations so far\n",
			label, tool.Checked, tool.TotalViolations)
	}

	// A correct launch: every lane stays inside its buffer.
	launch("clean copy:", src, dst, elems)

	// Bug 1 — overrun: one CTA too many. The extra 32 lanes read and write
	// past both buffers; the hardware executes all of it without trapping.
	launch("overrun (1 extra CTA):", src, dst, elems+32)

	// Bug 2 — use-after-free: the destination is freed, but a stale pointer
	// to it is used again. The bytes are still in the heap, so only the
	// allocation table knows they are dead.
	if err := ctx.MemFree(dst); err != nil {
		log.Fatal(err)
	}
	launch("use-after-free:", src, dst, elems)

	fmt.Println()
	tool.Report(os.Stdout)
	fmt.Println("\nthe hardware trapped none of these: every address stayed inside")
	fmt.Println("the device heap. only the allocation table can tell them apart.")
}
