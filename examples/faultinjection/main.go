// Fault-injection sweep — the SASSIFI/NVBitFI-style resilience study the
// paper cites as an NVBit use case. The victim kernel first runs under the
// injector disarmed, which counts its dynamic thread-instruction population;
// then every dynamic instruction is injected with a single-bit flip in its
// destination register (after the instruction executes, through the NVBit
// device API) and the run's outcome is classified the way resilience studies
// do:
//
//	masked  — output identical to the golden run (the fault was benign)
//	SDC     — silent data corruption (wrong output, no error)
//	DUE     — detected unrecoverable error (the launch trapped)
//
// The statistical version of this sweep — seeded sampling over a large
// space, worker pools, resumable state — lives in internal/campaign; this
// example shows the per-injection machinery on an exhaustively small victim.
//
//	go run ./examples/faultinjection
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"nvbitgo/gpusim"
	"nvbitgo/internal/tools/faultinject"
	"nvbitgo/nvbit"
)

// The victim kernel: a tiny computation whose address arithmetic, data
// values and predicates are all fault targets. One warp keeps the dynamic
// instruction space small enough to sweep exhaustively.
const victimPTX = `
.visible .entry victim(.param .u64 data, .param .u64 out)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<6>;
	.reg .pred %p<2>;
	mov.u32 %r0, %laneid;
	ld.param.u64 %rd0, [data];
	mul.wide.u32 %rd2, %r0, 4;
	add.u64 %rd0, %rd0, %rd2;
	ld.global.u32 %r1, [%rd0];
	mul.lo.u32 %r2, %r1, 3;
	add.u32 %r2, %r2, %r0;
	ld.param.u64 %rd4, [out];
	add.u64 %rd4, %rd4, %rd2;
	st.global.u32 [%rd4], %r2;
	exit;
}
`

// run executes the victim in a fresh simulator with tool attached (nil for
// the bare golden run) and returns the output, or the launch error (a DUE).
func run(tool nvbit.Tool) (out []uint32, err error) {
	api, e := gpusim.New(gpusim.Volta)
	if e != nil {
		log.Fatal(e)
	}
	if tool != nil {
		if _, e := nvbit.Attach(api, tool,
			nvbit.WithScheduler(nvbit.SchedulerSequential)); e != nil {
			log.Fatal(e)
		}
	}
	ctx, e := api.CtxCreate()
	if e != nil {
		log.Fatal(e)
	}
	mod, e := ctx.ModuleLoadPTX("victim", victimPTX)
	if e != nil {
		log.Fatal(e)
	}
	f, e := mod.GetFunction("victim")
	if e != nil {
		log.Fatal(e)
	}
	data, _ := ctx.MemAlloc(4 * 32)
	res, _ := ctx.MemAlloc(4 * 32)
	host := make([]byte, 4*32)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(host[4*i:], uint32(i*5+1))
	}
	if e := ctx.MemcpyHtoD(data, host); e != nil {
		log.Fatal(e)
	}
	params, _ := gpusim.PackParams(f, data, res)
	if err = ctx.LaunchKernel(f, gpusim.D1(1), gpusim.D1(32), 0, params); err != nil {
		return nil, err // DUE
	}
	if e := ctx.MemcpyDtoH(host, res); e != nil {
		log.Fatal(e)
	}
	out = make([]uint32, 32)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(host[4*i:])
	}
	return out, nil
}

func same(a, b []uint32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func main() {
	golden, err := run(nil)
	if err != nil {
		log.Fatal(err)
	}

	// Profile pass: the injector disarmed only counts the dynamic
	// thread-instruction population.
	prof := faultinject.New(faultinject.Injection{Group: faultinject.GroupAll, Target: faultinject.NoTarget})
	if _, err := run(prof); err != nil {
		log.Fatal(err)
	}
	res, err := prof.Result()
	if err != nil {
		log.Fatal(err)
	}
	space := res.Executed

	// The kernel is one warp, so with the sequential scheduler the dynamic
	// order is 32 lanes per eligible instruction: target site*32+5 hits
	// lane 5 of each static site. Sweeping one lane per site keeps the
	// exhaustive table readable; the full space would be 3x32 larger.
	const lane = 5
	sites := space / 32
	var masked, sdc, due int
	fmt.Printf("sweep: %d eligible sites (of %d dynamic instructions) x 3 bits, lane %d\n\n",
		sites, space, lane)
	fmt.Printf("%-7s %-5s %-4s %-8s %s\n", "target", "site", "bit", "outcome", "corruption")
	for site := uint64(0); site < sites; site++ {
		target := site*32 + lane
		for _, bit := range []uint{0, 15, 31} {
			tool := faultinject.New(faultinject.Injection{
				Group:  faultinject.GroupAll,
				Target: target,
				Model:  faultinject.ModelFlip,
				Bit:    bit,
			})
			faulty, err := run(tool)
			var outcome string
			switch {
			case err != nil:
				outcome = "DUE"
				due++
			case same(golden, faulty):
				outcome = "masked"
				masked++
			default:
				outcome = "SDC"
				sdc++
			}
			detail := ""
			if r, rerr := tool.Result(); rerr == nil && r.Fired {
				detail = fmt.Sprintf("%#08x -> %#08x", r.Old, r.New)
				fmt.Printf("%-7d %-5d %-4d %-8s %s\n", target, r.Site, bit, outcome, detail)
			} else {
				fmt.Printf("%-7d %-5s %-4d %-8s\n", target, "?", bit, outcome)
			}
		}
	}
	total := masked + sdc + due
	fmt.Printf("\n%d injections: %d masked (%.0f%%), %d SDC (%.0f%%), %d DUE (%.0f%%)\n",
		total, masked, 100*float64(masked)/float64(total),
		sdc, 100*float64(sdc)/float64(total),
		due, 100*float64(due)/float64(total))
	fmt.Println("\nfaults in address arithmetic tend to trap (DUE), faults in data")
	fmt.Println("values corrupt silently (SDC), and faults in dead registers mask.")
}
