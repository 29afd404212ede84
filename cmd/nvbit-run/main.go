// Command nvbit-run launches a workload with an NVBit tool attached — the
// analog of LD_PRELOAD-ing a tool's shared library under an application:
//
//	nvbit-run -tool instrcount -workload specaccel:cg -size medium
//	nvbit-run -tool memdiv -workload ml:ResNet
//	nvbit-run -tool ophisto -workload specaccel:ostencil
//	nvbit-run -trace out.json -metrics -tool ophisto
//	nvbit-run -connect /run/nvbitd.sock -tool itrace -workload specaccel:cg
//
// Every flag has an NVBIT_* environment fallback (flag wins over the
// environment, the environment over the default): -tool falls back to
// NVBIT_TOOL, -jit-cache to NVBIT_JIT_CACHE, and so on — see
// docs/nvbit-run.md for the full table, which is generated from the same
// declarations the parser uses.
//
// With -connect the workload runs as one session of an nvbitd daemon
// instead of on an in-process device: the tool is injected daemon-side and
// the session's report comes back over the socket, byte-identical to a
// standalone run's (docs/nvbitd.md).
//
// Exit codes are uniform across tools:
//
//	0  the workload ran to completion and no tool reported a violation
//	1  the workload failed (launch fault, driver error, I/O failure)
//	2  a tool reported a violation (e.g. memcheck found invalid accesses)
//	64 command-line usage error
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"nvbitgo/internal/campaign"
	"nvbitgo/internal/cliconf"
	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/nvbitd"
	"nvbitgo/internal/profile"
	"nvbitgo/internal/sass"
	"nvbitgo/internal/tools/registry"
	"nvbitgo/internal/workloads/mlsuite"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

// Uniform exit codes (documented in -help).
const (
	exitOK        = 0
	exitFailure   = 1
	exitViolation = 2
	exitUsage     = 64
)

// appConfig is every nvbit-run flag, declared through one cliconf.Set so
// each gets its NVBIT_* environment fallback and a row in the generated
// docs table.
type appConfig struct {
	tool         *string
	out          *string
	backpressure *string
	traceJSON    *string
	metrics      *bool
	jitCacheDir  *string
	workload     *string
	connect      *string
	fiGroup      *string
	fiModel      *string
	fiTarget     *uint64
	fiBit        *uint
	fiValue      *uint
	campaignDir  *string
	campaignRuns *int
	campaignMax  *int
	seed         *uint64
	workers      *int
	sizeName     *string
	familyName   *string
	schedName    *string
	injectName   *string
	cpuProfile   *string

	// honoured is the mode table: the modes that read each flag. A flag set
	// on the command line or through its NVBIT_* variable in any other mode
	// is refused (exit 64); docs/nvbit-run.md's Modes column is drawn from it.
	honoured map[string]modes
}

// modes is a set of the ways nvbit-run runs: standalone (in-process, the
// default), connect (-connect) and campaign (-campaign). Which tools read a
// session's spec flags is the registry's to say (registry.New).
type modes uint8

const (
	modeStandalone modes = 1 << iota
	modeConnect
	modeCampaign

	session = modeStandalone | modeConnect // a workload run under a tool
	every   = session | modeCampaign
)

// newFlags declares the flag surface on fs, each flag with the modes that
// read it. flags_test.go keeps docs/nvbit-run.md's table in sync with these
// declarations.
func newFlags(fs *flag.FlagSet) (*appConfig, *cliconf.Set) {
	cc := cliconf.New(fs)
	honoured := map[string]modes{}
	on := func(m modes, name string) string { honoured[name] = m; return name }
	c := &appConfig{
		honoured:     honoured,
		tool:         cc.String(on(session, "tool"), "", "tool: "+strings.Join(registry.Names(), ", ")),
		out:          cc.String(on(session, "out"), "", "write tool reports to this file instead of stdout"),
		backpressure: cc.String(on(session, "backpressure"), "drop", "drop or block when a channel's buffers fill"),
		traceJSON:    cc.String(on(modeStandalone, "trace"), "", "write a chrome://tracing activity timeline (JSON) to this file"),
		metrics:      cc.Bool(on(modeStandalone, "metrics"), false, "print the per-kernel metrics table after the run"),
		jitCacheDir:  cc.String(on(modeStandalone, "jit-cache"), "", "persist compiled and instrumented code to this directory and reuse it across runs"),
		workload:     cc.String(on(every, "workload"), "specaccel:ostencil", "workload: specaccel:<name> or ml:<Network>"),
		connect:      cc.String(on(modeConnect, "connect"), "", "run as a session of the nvbitd daemon at this unix socket instead of in-process"),
		fiGroup:      cc.String(on(every, "fi-group"), "gpr", "fault injection: instruction group (gpr, fp32, fp64, ld, all)"),
		fiModel:      cc.String(on(every, "fi-model"), "flip", "fault injection: injection model (flip, flip2, rand, zero; campaigns also accept mix)"),
		fiTarget:     cc.Uint64(on(session, "fi-target"), 0, "fault injection: dynamic thread-instruction index to corrupt"),
		fiBit:        cc.Uint(on(session, "fi-bit"), 0, "fault injection: bit position for flip/flip2 models"),
		fiValue:      cc.Uint(on(session, "fi-value"), 0, "fault injection: replacement value for the rand model"),
		campaignDir:  cc.String(on(modeCampaign, "campaign"), "", "fault-injection campaign directory: plan a campaign there if absent, resume it otherwise"),
		campaignRuns: cc.Int(on(modeCampaign, "campaign-runs"), 1000, "campaign: planned number of injection runs"),
		campaignMax:  cc.Int(on(modeCampaign, "campaign-max-runs"), 0, "campaign: stop this invocation after N runs (0 = finish the campaign)"),
		seed:         cc.Uint64(on(modeCampaign, "seed"), 1, "campaign: manifest RNG seed"),
		workers:      cc.Int(on(modeCampaign, "workers"), 4, "campaign: parallel simulator instances"),
		sizeName:     cc.String(on(every, "size"), "medium", "specaccel size: small, medium, large"),
		familyName:   cc.String(on(modeStandalone, "family"), "volta", "device family"),
		schedName:    cc.String(on(modeStandalone, "scheduler"), "sequential", "CTA scheduler: sequential or parallel (one worker per SM)"),
		injectName:   cc.String(on(session, "inject"), "trampoline", "injection codegen mode: trampoline, full-save, or inline"),
		cpuProfile:   cc.String(on(every, "cpuprofile"), "", "write a CPU profile of the run to this file (go tool pprof)"),
	}
	return c, cc
}

// refusal says why a mode refuses a flag.
var refusal = map[modes]string{
	modeStandalone: "in a standalone run: docs/nvbit-run.md lists the modes that read it",
	modeConnect:    "with -connect: the daemon owns its devices (see docs/nvbitd.md)",
	modeCampaign:   "with -campaign: campaigns run their victims on simulator instances of their own (see docs/faultinjection.md)",
}

// refuse returns a usage error naming the first flag, in name order, that
// the user set and mode m does not read.
func (c *appConfig) refuse(fs *flag.FlagSet, cc *cliconf.Set, m modes) error {
	var err error
	fs.VisitAll(func(f *flag.Flag) {
		if err == nil && c.honoured[f.Name]&m == 0 && cc.Explicit(f.Name) {
			err = fmt.Errorf("-%s is not available %s", f.Name, refusal[m])
		}
	})
	return err
}

// stopProfile finishes the -cpuprofile file. os.Exit runs no deferred calls
// and a CPU profile is only complete once stopped, so every exit after the
// flags are parsed goes through exit.
var stopProfile = func() {}

func exit(code int) {
	stopProfile()
	os.Exit(code)
}

func main() {
	// A ContinueOnError flag set: the flag package's default behavior exits
	// with status 2 on a bad flag, which would collide with the
	// tool-violation code; usage errors exit 64 instead (EX_USAGE).
	fs := flag.NewFlagSet("nvbit-run", flag.ContinueOnError)
	c, cc := newFlags(fs)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: nvbit-run [flags]")
		fs.PrintDefaults()
		fmt.Fprintln(fs.Output(), `
output:
  tool reports go to stdout by default; -out <file> redirects them (the
  workload/JIT summary lines stay on stdout, diagnostics on stderr)

environment:
  every flag falls back to NVBIT_<FLAG> (uppercased, dashes to
  underscores) when not given on the command line; see docs/nvbit-run.md

exit codes:
  0   workload completed, no tool violations
  1   workload failed (launch fault, driver error, I/O failure)
  2   a tool reported a violation (e.g. memcheck invalid accesses)
  64  command-line usage error`)
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		if err == flag.ErrHelp {
			os.Exit(exitOK)
		}
		os.Exit(exitUsage)
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "nvbit-run:", err)
		exit(exitFailure)
	}
	usage := func(err error) {
		fmt.Fprintln(os.Stderr, "nvbit-run:", err)
		exit(exitUsage)
	}

	if err := cc.Resolve(); err != nil {
		usage(err)
	}
	m := modeStandalone
	switch {
	case *c.campaignDir != "":
		m = modeCampaign
	case *c.connect != "":
		m = modeConnect
	}
	// Outside a campaign the run builds its tool here, which parses and
	// validates the session's spec, in connect mode before the daemon does:
	// the registry refuses a spec flag the tool does not read.
	var spec nvbitd.OpenSpec
	var inst *registry.Instance
	if m != modeCampaign {
		if *c.fiValue > math.MaxUint32 {
			usage(fmt.Errorf("-fi-value %d does not fit the 32-bit register it replaces", *c.fiValue))
		}
		spec = nvbitd.OpenSpec{Tool: *c.tool, Options: registry.Options{
			Policy: *c.backpressure, Inject: *c.injectName,
			FIGroup: *c.fiGroup, FIModel: *c.fiModel,
			FITarget: *c.fiTarget, FIBit: *c.fiBit, FIValue: uint32(*c.fiValue),
		}}
		var err error
		if inst, err = registry.New(spec.Tool, spec.Options); err != nil {
			usage(err)
		}
		spec.Tool = inst.Name // a daemon is sent "none", as before, not ""
	}
	if err := c.refuse(fs, cc, m); err != nil {
		usage(err)
	}
	// A cache keeps instrumented code, so it is for tools that inject some.
	if cc.Explicit("jit-cache") && !slices.Contains(registry.ReadsOf(inst.Name), "inject") {
		usage(fmt.Errorf("-jit-cache is not available with -tool %s: it instruments nothing", inst.Name))
	}
	if *c.cpuProfile != "" {
		f, err := os.Create(*c.cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fail(err)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "nvbit-run:", err)
			}
		}
	}

	size, err := specaccel.ParseSize(*c.sizeName)
	if err != nil {
		usage(err)
	}
	fam, err := sass.ParseFamily(*c.familyName)
	if err != nil {
		usage(err)
	}
	sched, err := gpu.ParseScheduler(*c.schedName)
	if err != nil {
		usage(err)
	}

	// Campaign mode: no single workload run, no tool injection here — the
	// campaign engine executes the victim once per planned injection in its
	// own simulator instances (Volta, sequential scheduler, watchdog).
	if m == modeCampaign {
		kind, name, _ := strings.Cut(*c.workload, ":")
		if kind != "specaccel" {
			usage(fmt.Errorf("campaigns run specaccel victims, got workload %q", *c.workload))
		}
		cfg := campaign.Config{
			Benchmark: name,
			Size:      *c.sizeName,
			Group:     *c.fiGroup,
			Model:     *c.fiModel,
			Runs:      *c.campaignRuns,
			Seed:      *c.seed,
		}
		cmp, err := campaign.Open(*c.campaignDir, cfg)
		if err != nil {
			fail(err)
		}
		start := time.Now()
		done, err := cmp.Run(*c.workers, *c.campaignMax)
		if err != nil {
			fail(err)
		}
		fmt.Printf("campaign %s: %d runs this invocation (%.2fs wall, %d workers)\n",
			*c.campaignDir, done, time.Since(start).Seconds(), *c.workers)
		fmt.Print(cmp.Report())
		exit(exitOK)
	}

	// Tool reports go to -out when given; everything else stays on stdout.
	var reportW io.Writer = os.Stdout
	var outFile *os.File
	if *c.out != "" {
		f, err := os.Create(*c.out)
		if err != nil {
			fail(err)
		}
		outFile = f
		reportW = f
	}

	if m == modeConnect {
		runConnected(c, spec, size, reportW, outFile, fail, usage)
		return
	}

	devCfg := gpu.DefaultConfig(fam)
	devCfg.Scheduler = sched
	api, err := driver.New(devCfg)
	if err != nil {
		fail(err)
	}
	tracing := *c.traceJSON != "" || *c.metrics

	opts := []nvbit.Option{nvbit.WithInjectionMode(inst.Inject)}
	if tracing {
		opts = append(opts, nvbit.WithTracing(0))
	}
	var jc *nvbit.JITCache
	if *c.jitCacheDir != "" {
		if jc, err = nvbit.NewJITCache(*c.jitCacheDir, 0); err != nil {
			fail(err)
		}
		opts = append(opts, nvbit.WithJITCache(jc))
	}
	tool := inst.Name != "none"
	var nv *nvbit.NVBit
	if tool {
		if nv, err = nvbit.Attach(api, inst.Tool, opts...); err != nil {
			fail(err)
		}
	} else if tracing {
		api.Scope0().SetCollector(profile.NewCollector(0))
	}

	ctx, err := api.CtxCreate()
	if err != nil {
		fail(err)
	}

	start := time.Now()
	runWorkload(ctx, *c.workload, size, fail, usage)
	elapsed := time.Since(start)
	api.Close()

	st := api.Device().Stats()
	fmt.Printf("workload %s: %d launches, %d warp instructions, %d cycles, %.2fs wall\n",
		*c.workload, st.Launches, st.WarpInstrs, st.Cycles, elapsed.Seconds())
	violations := false
	if tool {
		v, err := inst.Report(reportW, nv)
		if err != nil {
			fail(err)
		}
		violations = v
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			fail(err)
		}
	}
	if nv != nil {
		js := nv.JITStats()
		fmt.Printf("jit: lifted %d funcs / %d instrs, %d trampolines for %d sites (%.1f sites per visit, %.1f saved regs per site), %d inlined sites, %v total (%v disasm)\n",
			js.FunctionsLifted, js.InstrsLifted, js.Visits, js.TrampolinesEmitted, js.SitesPerVisit(), js.AvgSavedRegs(), js.InlinedSites, js.Total().Round(time.Microsecond), js.Disassemble.Round(time.Microsecond))
		if jc != nil {
			fmt.Printf("jit-cache: %d lookups, %d hits, %d misses (%.1f%% hit ratio), %d modules (%d reused, %d compiled), %d bytes in, %d bytes out, lookup %v, hit %v, codegen %v\n",
				js.CacheLookups, js.CacheHits, js.CacheMisses, 100*js.CacheHitRatio(),
				js.ModuleLookups, js.ModuleHits, js.ModuleCompiles,
				js.CacheBytesRead, js.CacheBytesWritten,
				js.CacheLookup.Round(time.Microsecond), js.CacheHit.Round(time.Microsecond), js.CodeGen.Round(time.Microsecond))
		}
	}
	if prof := api.Scope0().Collector(); prof != nil {
		if *c.metrics {
			fmt.Print(profile.FormatMetrics(prof.Metrics()))
		}
		if *c.traceJSON != "" {
			recs := prof.Records()
			f, err := os.Create(*c.traceJSON)
			if err != nil {
				fail(err)
			}
			if err := profile.WriteChromeTrace(f, recs); err != nil {
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
			fmt.Printf("activity timeline: %d records written to %s (%d dropped)\n",
				len(recs), *c.traceJSON, prof.Dropped())
		}
	}
	if violations {
		exit(exitViolation)
	}
	stopProfile()
}

// runWorkload dispatches the -workload argument onto a launcher. The ml
// suite needs an in-process *driver.Context (its layers call into the
// device directly), so it is dispatched separately below.
func runWorkload(ctx *driver.Context, workload string, size specaccel.Size, fail, usage func(error)) {
	kind, name, _ := strings.Cut(workload, ":")
	switch kind {
	case "specaccel":
		b, err := specaccel.Find(name)
		if err != nil {
			usage(err)
		}
		if err := b.Run(ctx, size); err != nil {
			fail(err)
		}
	case "ml":
		var net *mlsuite.Network
		for _, cand := range mlsuite.Networks() {
			if cand.Name == name {
				cp := cand
				net = &cp
			}
		}
		if net == nil {
			usage(fmt.Errorf("unknown ML network %q", name))
		}
		if _, err := mlsuite.Run(ctx, nil, *net); err != nil {
			fail(err)
		}
	default:
		usage(fmt.Errorf("unknown workload kind %q (want specaccel: or ml:)", kind))
	}
}

// runConnected executes the workload as one session of an nvbitd daemon.
func runConnected(c *appConfig, spec nvbitd.OpenSpec, size specaccel.Size, reportW io.Writer, outFile *os.File, fail, usage func(error)) {
	kind, name, _ := strings.Cut(*c.workload, ":")
	if kind != "specaccel" {
		usage(fmt.Errorf("connect mode runs specaccel workloads, got %q (the ml suite needs an in-process device)", *c.workload))
	}
	b, err := specaccel.Find(name)
	if err != nil {
		usage(err)
	}
	sess, err := nvbitd.Dial(*c.connect, spec)
	if err != nil {
		fail(err)
	}
	defer sess.Close()

	start := time.Now()
	if err := b.Run(sess, size); err != nil {
		fail(err)
	}
	elapsed := time.Since(start)
	r, err := sess.Report()
	if err != nil {
		fail(err)
	}
	fmt.Printf("workload %s: %d launches, %d session cycles (nvbitd session %d), %.2fs wall\n",
		*c.workload, r.Launches, r.Cycles, sess.Session(), elapsed.Seconds())
	if _, err := io.WriteString(reportW, r.Text); err != nil {
		fail(err)
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			fail(err)
		}
	}
	if r.Violation {
		exit(exitViolation)
	}
	exit(exitOK)
}
