package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"nvbitgo/gpusim"
	"nvbitgo/internal/core"
	"nvbitgo/internal/driver"
	"nvbitgo/internal/nvbitd"
	"nvbitgo/internal/tools/registry"
	"nvbitgo/internal/workloads/specaccel"
)

// daemonTools are the tools daemon_mix sessions attach. memcheck, memtrace
// and itrace are left out because a pool device cannot serve them in a mix:
// memcheck exhausts device memory after three sessions, and two concurrent
// sessions of either channel tool ask for more buffer memory than the 64 MB
// device has.
var daemonTools = []string{"none", "instrcount", "ophisto", "memdiv"}

// daemonBenchmarks are the specaccel benchmarks the sessions run: one short
// kernel, one long compute kernel, two kernels launched often, four kernels,
// and twenty kernels launched once each (the JIT cache's worst case).
var daemonBenchmarks = []string{"ostencil", "omriq", "cg", "clvrleaf", "ilbdc"}

// sessionKind is one tool on one specaccel benchmark at Small.
type sessionKind struct {
	tool  string
	bench *specaccel.Benchmark
}

func (k sessionKind) key() string { return k.tool + "/" + k.bench.Name }

// daemonKinds is every daemon tool on every daemon benchmark: the twenty
// sessions of one epoch. One server serves one epoch and is then replaced:
// a pool device never reclaims code space, and a fresh daemon fails with
// "out of code space" after 52 to 61 instrumented sessions.
func daemonKinds() []sessionKind {
	var out []sessionKind
	for _, name := range daemonBenchmarks {
		for _, t := range daemonTools {
			out = append(out, sessionKind{t, specBenchmark(name)})
		}
	}
	return out
}

// standaloneReport runs the kind in-process in its own session on a fresh
// device and returns the tool's report: what a daemon session's report must
// equal byte for byte.
func standaloneReport(k sessionKind) (string, error) {
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		return "", err
	}
	defer api.Close()
	inst, err := registry.New(k.tool, registry.Options{})
	if err != nil {
		return "", err
	}
	sess, err := core.OpenSession(api, inst.Tool)
	if err != nil {
		return "", err
	}
	if err := k.bench.Run(sess.Ctx(), specaccel.Small); err != nil {
		return "", err
	}
	if err := sess.Close(); err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if _, err := inst.Report(&buf, sess.NVBit()); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// daemon is one running nvbitd server on a unix socket.
type daemon struct {
	srv  *nvbitd.Server
	sock string
	errc chan error
}

// startDaemon starts a one-device server whose JIT cache lives in cacheDir.
func startDaemon(sock, cacheDir string) (*daemon, error) {
	srv, err := nvbitd.NewServer(nvbitd.Config{Family: gpusim.Volta, Devices: 1, QueueLimit: -1, CacheDir: cacheDir})
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, sock: sock, errc: make(chan error, 1)}
	go func() { d.errc <- srv.ListenAndServe(sock) }()
	// The server is up when a connection is accepted; the socket file alone
	// appears at bind, before listen, and a dial in between is refused. The
	// probe connection closes without opening a session.
	for {
		if conn, err := net.Dial("unix", sock); err == nil {
			return d, conn.Close()
		}
		select {
		case err := <-d.errc:
			return nil, fmt.Errorf("nvbitd: serve: %w", err)
		case <-time.After(200 * time.Microsecond):
		}
	}
}

func (d *daemon) stop() error {
	d.srv.Close()
	return <-d.errc
}

// sessionOutcome is what one remote session returned.
type sessionOutcome struct {
	report *nvbitd.ReportResult
	out    []byte
}

// runSession is one complete remote session: open, the benchmark through
// the RemoteSession, report, close.
func runSession(sc scope, sock string, k sessionKind) (o sessionOutcome, err error) {
	var s *nvbitd.RemoteSession
	if err = sc.do(layerNvbitd, "rpc.open", func(scope) (err error) {
		s, err = nvbitd.Dial(sock, nvbitd.OpenSpec{Tool: k.tool})
		return err
	}); err != nil {
		return o, err
	}
	defer sc.do(layerNvbitd, "rpc.close", func(scope) error { return s.Close() })
	if o.out, err = k.bench.RunCapture(traced(s, sc, true, nil), specaccel.Small); err != nil {
		return o, err
	}
	err = sc.do(layerNvbitd, "rpc.report", func(scope) (err error) {
		o.report, err = s.Report()
		return err
	})
	return o, err
}

type daemonWorkload struct {
	e        *env
	live     map[string]string // standalone report text of the kinds run in set-up
	first    *daemon           // started in set-up, serves epoch 0
	cacheDir string
	rng      *rand.Rand

	mu         sync.Mutex
	cycles     map[string]uint64
	shed       int
	mismatches int
}

// daemonLiveBenchmark is the benchmark whose four session kinds set-up also
// runs standalone, so a report is compared with live text and not only with
// golden.json's hash; running all twenty would triple set-up.
const daemonLiveBenchmark = "cg"

func setupDaemonMix(e *env) (instance, error) {
	w := &daemonWorkload{e: e, live: map[string]string{}, cycles: map[string]uint64{},
		cacheDir: e.scratch("daemon-cache"), rng: rand.New(rand.NewSource(e.seed))}
	if err := os.RemoveAll(w.cacheDir); err != nil {
		return nil, err
	}
	for _, tool := range daemonTools {
		k := sessionKind{tool, specBenchmark(daemonLiveBenchmark)}
		text, err := standaloneReport(k)
		if err != nil {
			return nil, err
		}
		if sha([]byte(text)) != e.golden.DaemonReports[k.key()] {
			e.failf("%s: standalone report differs from golden.json", k.key())
		}
		w.live[k.key()] = text
	}
	var err error
	w.first, err = startDaemon(w.sock(0), w.cacheDir)
	return w, err
}

func (w *daemonWorkload) sock(epoch int) string {
	return w.e.scratch(fmt.Sprintf("nvbitd-%d.sock", epoch))
}

// iterate serves one epoch: the twenty kinds in the seed's next order, by a
// closed loop of e.procs clients, each opening its next session when its
// previous one has closed. Every epoch is the same multiset of sessions, so
// epochs compare with each other and across seeds; the seed decides the
// order and with it which sessions contend for the device.
func (w *daemonWorkload) iterate(i int, t *tracer) (iterResult, error) {
	d := w.first
	w.first = nil
	if d == nil {
		var err error
		if d, err = startDaemon(w.sock(i), w.cacheDir); err != nil {
			return iterResult{}, err
		}
	}
	kinds := daemonKinds()
	w.rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
	base := i * len(kinds)
	next := make(chan int)
	opMs := make([]float64, len(kinds))
	failed := make([]bool, len(kinds))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < w.e.procs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				sc, done := t.root(base + j)
				t0 := time.Now()
				o, err := runSession(sc, d.sock, kinds[j])
				opMs[j] = ms(time.Since(t0))
				done()
				failed[j] = !w.check(kinds[j], o, err)
			}
		}()
	}
	for j := range kinds {
		next <- j
	}
	close(next)
	wg.Wait()
	window := time.Since(start)
	if err := d.stop(); err != nil {
		return iterResult{}, err
	}
	r := iterResult{wall: window, opMs: opMs, ops: len(kinds), window: window}
	for _, f := range failed {
		if f {
			r.failed++
		}
	}
	return r, nil
}

// check verifies one session: it completed, its output is the native
// output, and its report is the standalone report.
func (w *daemonWorkload) check(k sessionKind, o sessionOutcome, err error) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		if errors.Is(err, driver.ErrDeviceOverloaded) {
			w.shed++
		}
		w.e.notef("session %s: %v", k.key(), err)
		return false
	}
	ok := true
	if sha(o.out) != w.e.golden.Spec[specaccel.Small.String()][k.bench.Name].SHA256 {
		w.e.notef("session %s: output differs from the native run in golden.json", k.key())
		ok = false
	}
	text, live := w.live[k.key()]
	if sha([]byte(o.report.Text)) != w.e.golden.DaemonReports[k.key()] || (live && o.report.Text != text) {
		w.e.notef("session %s: report differs from the standalone report", k.key())
		w.mismatches++
		ok = false
	}
	w.cycles[k.key()] = o.report.Cycles
	return ok
}

// sim averages, over the instrumented kinds that ran, the cycles the gate
// charged the session over those it charged the same benchmark under no tool.
func (w *daemonWorkload) sim() simCounts {
	var c simCounts
	n := 0
	for _, k := range daemonKinds() {
		native, instr := w.cycles["none/"+k.bench.Name], w.cycles[k.key()]
		if k.tool == "none" || native == 0 || instr == 0 {
			continue
		}
		c.cyclesNative += native
		c.cyclesInstr += instr
		c.slowdown += float64(instr) / float64(native)
		n++
	}
	if n > 0 {
		c.slowdown /= float64(n)
	}
	return c
}

// layerMetrics adds what only the daemon workload measures: its own
// sessions' shed and mismatch counts, and the two-second exhaustion probe.
func (w *daemonWorkload) layerMetrics(m metrics) error {
	m["nvbitd.shed_count"] = float64(w.shed)
	m["nvbitd.report_mismatch"] = float64(w.mismatches)
	n, err := sessionsToExhaustion(w.e)
	m["nvbitd.sessions_to_exhaustion"] = float64(n)
	return err
}

// sessionsToExhaustion counts sequential instrcount sessions of ostencil one
// fresh pool device serves before the first fails. A pool device never
// reclaims code space, so today the answer is 59; the count is recorded,
// not gated, and is why daemon_mix replaces its server every epoch.
func sessionsToExhaustion(e *env) (int, error) {
	cacheDir := e.scratch("exhaustion-cache")
	defer os.RemoveAll(cacheDir)
	d, err := startDaemon(e.scratch("exhaustion.sock"), cacheDir)
	if err != nil {
		return 0, err
	}
	defer d.stop()
	kind := sessionKind{"instrcount", specBenchmark("ostencil")}
	const limit = 256
	for n := 0; n < limit; n++ {
		if _, err := runSession(scope{}, d.sock, kind); err != nil {
			return n, nil
		}
	}
	return limit, nil
}

func (w *daemonWorkload) close() {
	if w.first != nil {
		w.first.stop()
	}
	os.RemoveAll(w.cacheDir)
}
