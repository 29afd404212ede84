// Command bench is the repository's benchmark: seven fixed-size workloads
// over the whole stack, each reporting the end-to-end numbers a tool user
// sees (untraced) and one number per layer (traced). See README.md.
//
//	bash bench/run.sh --workload jit_cold --seed 1 --seconds 8 --trace 0
//	bash bench/run.sh -seed 1 -out result.json      (every workload, both passes)
//	bash bench/run.sh -compare old.json new.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

var workloads = []*workload{
	{name: "spec_native", iters10s: 4, setupReps: 5, setup: setupSpecNative,
		why: "15 specaccel benchmarks at Large with no tool: the simulator does ~95% of the work and the JIT none, so it shows simulator hot-path changes and must not move for JIT changes"},
	{name: "spec_instr", iters10s: 4, setupReps: 5, setup: setupSpecInstr,
		why: "same suite at Small under instrcount at every instruction, default injection mode, no cache: instrumented execution dominates and JIT is <1%; carries the Fig 8 slowdown"},
	{name: "jit_cold", iters10s: 120, setupReps: 15, setup: func(e *env) (instance, error) { return setupJIT(e, false) },
		why: "40 seeded generated kernels (50-800 instructions) loaded, instrumented and launched once with an empty cache: PTX compile, lift, codegen and cache fills are the run, execution is negligible"},
	{name: "jit_warm", iters10s: 160, setupReps: 5, setup: func(e *env) (instance, error) { return setupJIT(e, true) },
		why: "same 40 kernels with a new cache object over a primed directory, as a re-run pays: disk-tier reads and no codegen, so a codegen speed-up must not move it"},
	{name: "trace_stream", iters10s: 18, setupReps: 15, setup: setupTraceStream,
		why: "memtrace over AlexNet with a 4096-record blocking channel and the parallel scheduler: the only workload the channel and the parallel scheduler carry"},
	{name: "daemon_mix", iters10s: 8, setupReps: 3, setup: setupDaemonMix,
		why: "an epoch of 20 remote sessions (4 tools x 5 benchmarks, seeded order) by closed-loop clients against an in-process nvbitd: wire framing, gate fair share, session open/close, mem-tier cache hits"},
	{name: "fi_campaign", iters10s: 14, setupReps: 5, setup: setupFICampaign,
		why: "plan, run and report a 24-run fault-injection campaign per iteration: many short instrumented runs on fresh simulators plus per-run results.json rewrites"},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload in this process; empty runs all, each in a child process")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", runSeconds, "length of the measured part; it scales the fixed iteration counts")
		trace    = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the spans to this file")
		out      = flag.String("out", "", "when running all workloads, write the combined result to this file")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 past a bound")
		goldenTo = flag.String("update-golden", "", "recompute the golden references and write them to this file")
		manifest = flag.Bool("benchmark-json", false, "print BENCHMARK.json as the tables in this package define it")
	)
	flag.Parse()
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)

	switch {
	case *manifest:
		fmt.Println(benchmarkJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: -compare old.json new.json")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
	case *goldenTo != "":
		tmp := mustTempDir()
		err := updateGolden(*goldenTo, tmp)
		os.RemoveAll(tmp)
		if err != nil {
			fatalf("%v", err)
		}
	case *name == "":
		if err := runAll(*seed, *seconds, *out); err != nil {
			fatalf("%v", err)
		}
	default:
		w := findWorkload(*name)
		if w == nil {
			fatalf("unknown workload %q", *name)
		}
		g, err := loadGolden()
		if err != nil {
			fatalf("%v", err)
		}
		tmp := mustTempDir()
		e := &env{seed: *seed, procs: procs, tmp: tmp, golden: g, iters: itersFor(w, *seconds, *trace == 1)}
		res, err := measure(w, e, *trace == 1, *traceOut)
		os.RemoveAll(tmp)
		if err != nil {
			fatalf("%v", err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

// runSeconds is the -seconds the driver passes: the iteration counts it
// yields fill about eight seconds of measuring on two vCPUs.
const runSeconds = 8

// benchmarkJSON renders the repository's BENCHMARK.json from the workload
// and metric tables, so the contract file cannot drift from the program.
func benchmarkJSON() string {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []named         `json:"workloads"`
		EndToEnd   []boundedMetric `json:"end_to_end"`
		PerLayer   []metricDef     `json:"per_layer"`
	}{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"},
		RunSeconds: runSeconds, EndToEnd: endToEnd, PerLayer: perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, named{w.name, w.why})
	}
	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	return string(data)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// mustTempDir makes the run's scratch directory in the working directory,
// which is the checkout: the benchmark writes nowhere else. The relative
// name also keeps unix socket paths under the 108-byte limit.
func mustTempDir() string {
	dir, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		fatalf("%v", err)
	}
	return dir
}

// runFile is what -out writes and -compare reads.
type runFile struct {
	Seed      int64                   `json:"seed"`
	Seconds   int                     `json:"seconds"`
	Host      hostInfo                `json:"host"`
	Workloads map[string]*workloadRun `json:"workloads"`
}

type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// workloadRun is one workload's two passes.
type workloadRun struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer"`
}

// runAll runs every workload twice, untraced then traced, each pass in a
// child process of its own so no workload inherits another's heap, caches or
// goroutines.
func runAll(seed int64, seconds int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := runFile{
		Seed: seed, Seconds: seconds,
		Host:      hostInfo{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()},
		Workloads: map[string]*workloadRun{},
	}
	allCorrect := true
	for _, w := range workloads {
		run := &workloadRun{Correct: true}
		for trace := 0; trace <= 1; trace++ {
			res, err := runChild(self, w.name, seed, seconds, trace)
			if err != nil {
				return err
			}
			run.Correct = run.Correct && res.Correct
			if trace == 0 {
				run.Attempted, run.Failed, run.EndToEnd = res.Attempted, res.Failed, res.Metrics
			} else {
				run.Failed += res.Failed
				run.PerLayer = res.Metrics
			}
		}
		allCorrect = allCorrect && run.Correct
		file.Workloads[w.name] = run
	}
	if out != "" {
		data, err := json.MarshalIndent(&file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !allCorrect {
		return fmt.Errorf("a workload failed its checks")
	}
	return nil
}

// runChild runs one pass of one workload in a child process, echoes what it
// printed, and decodes its last line.
func runChild(self, name string, seed int64, seconds, trace int) (*result, error) {
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s (trace %d): no result line: %v (%v)", name, trace, err, runErr)
	}
	return &res, nil
}
