package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// genKernel is one generated PTX kernel of the jit_cold / jit_warm
// application.
type genKernel struct {
	Name   string
	Source string
	Body   int // PTX body instructions after the prologue
}

const (
	genKernels = 40
	genMinBody = 50
	genMaxBody = 800
)

// genPrologue computes the global thread id and exits every thread at or
// past n, so a launch with n=0 retires each warp after the bounds check and
// the run prices JIT work, not execution.
const genPrologue = `	.reg .u32 %r<16>;
	.reg .u64 %rd<6>;
	.reg .f32 %f<8>;
	.reg .pred %p<3>;
	mov.u32 %r0, %ctaid.x;
	mov.u32 %r1, %ntid.x;
	mov.u32 %r2, %tid.x;
	mad.lo.u32 %r3, %r0, %r1, %r2;
	ld.param.u32 %r4, [n];
	setp.ge.u32 %p0, %r3, %r4;
	@%p0 exit;
	ld.param.u64 %rd0, [data];
	mul.wide.u32 %rd2, %r3, 4;
	add.u64 %rd4, %rd0, %rd2;
`

// Body instruction kinds. Every kernel draws the same share of each kind
// (genMix, of every 20 instructions), so two seeds give kernels of equal JIT
// cost that differ in order, registers, offsets and branch distances: the
// end-to-end numbers stay comparable across seeds while the bytes the cache
// fingerprints do not repeat.
const (
	kLoad = iota
	kStore
	kFma
	kMad
	kAdd
	kFadd
	kBranch // setp + guarded forward bra: two instructions
	numKinds
)

var genMix = [numKinds]int{kLoad: 3, kStore: 2, kFma: 4, kMad: 4, kAdd: 3, kFadd: 2, kBranch: 1}

// generateKernels returns the seeded application: genKernels kernels whose
// body lengths are the same evenly spaced ladder from genMinBody to
// genMaxBody for every seed, assigned to kernels in seeded order.
func generateKernels(seed int64) []genKernel {
	rng := rand.New(rand.NewSource(seed))
	sizes := make([]int, genKernels)
	for i := range sizes {
		sizes[i] = genMinBody + i*(genMaxBody-genMinBody)/(genKernels-1)
	}
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	out := make([]genKernel, genKernels)
	for i, n := range sizes {
		name := fmt.Sprintf("gk%02d", i)
		out[i] = genKernel{Name: name, Source: generateKernel(rng, name, n), Body: n}
	}
	return out
}

func generateKernel(rng *rand.Rand, name string, body int) string {
	// The kind sequence is the fixed mix repeated to length, then shuffled.
	var kinds []int
	for n := 0; n < body; {
		for k, share := range genMix {
			for s := 0; s < share && n < body; s++ {
				kinds = append(kinds, k)
				n++
				if k == kBranch {
					n++
				}
			}
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	r := func() string { return fmt.Sprintf("%%r%d", 5+rng.Intn(11)) }
	f := func() string { return fmt.Sprintf("%%f%d", rng.Intn(8)) }
	off := func() int { return 4 * rng.Intn(256) }

	var b strings.Builder
	fmt.Fprintf(&b, ".visible .entry %s(.param .u64 data, .param .u32 n)\n{\n", name)
	b.WriteString(genPrologue)
	// pending holds forward-branch labels and how many more instructions
	// pass before each is placed; branches never go backwards, so every
	// kernel terminates on any input.
	type label struct{ id, in int }
	var pending []label
	labels := 0
	for _, k := range kinds {
		switch k {
		case kLoad:
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&b, "\tld.global.u32 %s, [%%rd4+%d];\n", r(), off())
			} else {
				fmt.Fprintf(&b, "\tld.global.f32 %s, [%%rd4+%d];\n", f(), off())
			}
		case kStore:
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&b, "\tst.global.u32 [%%rd4+%d], %s;\n", off(), r())
			} else {
				fmt.Fprintf(&b, "\tst.global.f32 [%%rd4+%d], %s;\n", off(), f())
			}
		case kFma:
			fmt.Fprintf(&b, "\tfma.rn.f32 %s, %s, %s, %s;\n", f(), f(), f(), f())
		case kMad:
			fmt.Fprintf(&b, "\tmad.lo.u32 %s, %s, %s, %s;\n", r(), r(), r(), r())
		case kAdd:
			fmt.Fprintf(&b, "\tadd.u32 %s, %s, %s;\n", r(), r(), r())
		case kFadd:
			fmt.Fprintf(&b, "\tadd.f32 %s, %s, %s;\n", f(), f(), f())
		case kBranch:
			p := 1 + rng.Intn(2)
			fmt.Fprintf(&b, "\tsetp.lt.u32 %%p%d, %s, %s;\n", p, r(), r())
			fmt.Fprintf(&b, "\t@%%p%d bra L%d;\n", p, labels)
			pending = append(pending, label{id: labels, in: 1 + rng.Intn(12)})
			labels++
		}
		kept := pending[:0]
		for _, l := range pending {
			if l.in--; l.in <= 0 {
				fmt.Fprintf(&b, "L%d:\n", l.id)
			} else {
				kept = append(kept, l)
			}
		}
		pending = kept
	}
	for _, l := range pending {
		fmt.Fprintf(&b, "L%d:\n", l.id)
	}
	b.WriteString("\texit;\n}\n")
	return b.String()
}
