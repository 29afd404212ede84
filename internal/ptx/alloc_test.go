package ptx_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"nvbitgo/internal/ptx"
	"nvbitgo/internal/sass"
)

// benchKernels are kernels of the jit_cold / jit_warm shape, ~430 body
// statements each.
func benchKernels(n int) (srcs []string, bytes int) {
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < n; i++ {
		src := genKernel(rng, fmt.Sprintf("bk%02d", i), 430)
		srcs, bytes = append(srcs, src), bytes+len(src)
	}
	return srcs, bytes
}

// TestCompileAllocBudget pins what the front end allocates: heap objects and
// bytes per emitted instruction. The statement scanner, the operand arena
// and the indexed register table exist to keep both flat in the number of
// statements; a per-statement or per-operand allocation shows here.
func TestCompileAllocBudget(t *testing.T) {
	const maxObjects, maxBytes = 0.5, 150.0
	srcs, _ := benchKernels(4)
	insts := 0
	compile := func() {
		insts = 0
		for _, src := range srcs {
			m, err := ptx.Compile("k", src, sass.Volta)
			if err != nil {
				t.Fatal(err)
			}
			insts += len(m.Funcs[0].Insts)
		}
	}
	objects := testing.AllocsPerRun(10, compile)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	compile()
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc - before.TotalAlloc)
	perObj, perByte := objects/float64(insts), bytes/float64(insts)
	t.Logf("%d instructions: %.3f objects and %.1f B per instruction", insts, perObj, perByte)
	if perObj > maxObjects || perByte > maxBytes {
		t.Errorf("%.3f objects and %.1f B per emitted instruction, budget %.1f and %.0f", perObj, perByte, maxObjects, maxBytes)
	}
}

var compiled *ptx.Module

func BenchmarkCompile(b *testing.B) {
	srcs, bytes := benchKernels(8)
	b.SetBytes(int64(bytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			m, err := ptx.Compile("k", src, sass.Volta)
			if err != nil {
				b.Fatal(err)
			}
			compiled = m
		}
	}
}

// TestCompileConcurrent: nvbitd compiles from one goroutine per session, so
// the front end's tables are shared and its arenas must not be. Run under
// -race in CI.
func TestCompileConcurrent(t *testing.T) {
	srcs, _ := benchKernels(3)
	want := make([]*ptx.Module, len(srcs))
	for i, src := range srcs {
		m, err := ptx.Compile("k", src, sass.Kepler)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, src := range srcs {
				m, err := ptx.Compile("k", src, sass.Kepler)
				if err != nil || !reflect.DeepEqual(m, want[i]) {
					t.Errorf("concurrent compile of kernel %d differs (%v)", i, err)
				}
			}
		}()
	}
	wg.Wait()
}
