// Command nvbitd is the multi-tenant instrumentation daemon: it owns a
// pool of simulated devices and serves concurrent nvbit-run -connect
// sessions over a unix socket (docs/nvbitd.md). Each session picks a tool
// from the same registry nvbit-run uses, gets its own context and channel
// streams, and competes for SM capacity under the driver's fair-share
// gate; when the admission queue is full, new work is load-shed with a
// typed overload error rather than queued without bound.
//
// Every flag has an NVBIT_* environment fallback (flag > env > default),
// like nvbit-run.
//
// Exit codes:
//
//	0  clean shutdown (SIGINT/SIGTERM)
//	1  startup or serve failure
//	64 command-line usage error
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"nvbitgo/internal/cliconf"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/nvbitd"
	"nvbitgo/internal/sass"
)

const (
	exitOK      = 0
	exitFailure = 1
	exitUsage   = 64
)

// daemonConfig is every nvbitd flag; flags_test.go keeps the table in
// docs/nvbitd.md in sync with these declarations.
type daemonConfig struct {
	socket     *string
	devices    *int
	queueLimit *int
	familyName *string
	schedName  *string
	cacheDir   *string
	quiet      *bool
}

func newFlags(fs *flag.FlagSet) (*daemonConfig, *cliconf.Set) {
	cc := cliconf.New(fs)
	c := &daemonConfig{
		socket:     cc.String("socket", "nvbitd.sock", "unix socket path to serve on"),
		devices:    cc.Int("devices", 1, "device-pool size; sessions are placed on the least-loaded device"),
		queueLimit: cc.Int("queue-limit", -1, "admission queue bound per device before load-shedding (-1 = driver default)"),
		familyName: cc.String("family", "volta", "device family for every pool device"),
		schedName:  cc.String("scheduler", "sequential", "CTA scheduler: sequential or parallel (one worker per SM)"),
		cacheDir:   cc.String("jit-cache", "", "persist compiled and instrumented code to this directory, shared by all sessions"),
		quiet:      cc.Bool("quiet", false, "suppress per-session log lines"),
	}
	return c, cc
}

func main() {
	fs := flag.NewFlagSet("nvbitd", flag.ContinueOnError)
	c, cc := newFlags(fs)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: nvbitd [flags]")
		fs.PrintDefaults()
		fmt.Fprintln(fs.Output(), `
clients connect with: nvbit-run -connect <socket> [-tool ...] [-workload ...]

exit codes:
  0   clean shutdown (SIGINT/SIGTERM)
  1   startup or serve failure
  64  command-line usage error`)
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		if err == flag.ErrHelp {
			os.Exit(exitOK)
		}
		os.Exit(exitUsage)
	}
	usage := func(err error) {
		fmt.Fprintln(os.Stderr, "nvbitd:", err)
		os.Exit(exitUsage)
	}
	if err := cc.Resolve(); err != nil {
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
	if *c.devices < 1 {
		usage(fmt.Errorf("-devices must be at least 1, got %d", *c.devices))
	}

	logger := log.New(os.Stderr, "nvbitd: ", log.LstdFlags)
	cfg := nvbitd.Config{
		Family:     fam,
		Scheduler:  sched,
		Devices:    *c.devices,
		QueueLimit: *c.queueLimit,
		CacheDir:   *c.cacheDir,
	}
	if !*c.quiet {
		cfg.Log = logger
	}
	srv, err := nvbitd.NewServer(cfg)
	if err != nil {
		logger.Println(err)
		os.Exit(exitFailure)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		logger.Printf("received %v, shutting down", s)
		srv.Close()
	}()

	logger.Printf("serving %d %s device(s) on %s (scheduler %v, queue limit %d)",
		*c.devices, *c.familyName, *c.socket, sched, *c.queueLimit)
	if err := srv.ListenAndServe(*c.socket); err != nil {
		logger.Println(err)
		os.Exit(exitFailure)
	}
	os.Exit(exitOK)
}
