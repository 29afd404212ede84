package nvbitd_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"nvbitgo/internal/core"
	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/nvbitd"
	"nvbitgo/internal/sass"
	"nvbitgo/internal/tools/registry"
	"nvbitgo/internal/workloads/specaccel"
)

// startServer launches a daemon on a fresh unix socket and returns the
// socket path.
func startServer(t *testing.T, cfg nvbitd.Config) string {
	t.Helper()
	_, sock := startServerOn(t, cfg)
	return sock
}

// startServerOn is startServer for tests that also inspect the server.
func startServerOn(t *testing.T, cfg nvbitd.Config) (*nvbitd.Server, string) {
	t.Helper()
	srv, err := nvbitd.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "nvbitd.sock")
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(sock) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-errc; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	// Wait for the socket to appear.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s, err := nvbitd.Dial(sock, nvbitd.OpenSpec{Tool: "instrcount"}); err == nil {
			s.Close()
			return srv, sock
		} else if time.Now().After(deadline) {
			t.Fatalf("daemon did not come up: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func findBenchmark(t *testing.T, name string) *specaccel.Benchmark {
	t.Helper()
	b, err := specaccel.Find(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// standaloneReport runs the benchmark with the tool attached in-process on
// a fresh device and returns the tool's report — the reference a daemon
// session's report must match byte for byte.
func standaloneReport(t *testing.T, tool, bench string) string {
	t.Helper()
	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	inst, err := registry.New(tool, registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.OpenSession(api, inst.Tool)
	if err != nil {
		t.Fatal(err)
	}
	if err := findBenchmark(t, bench).Run(sess.Ctx(), specaccel.Small); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := inst.Report(&buf, sess.NVBit()); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

type toolRun struct{ tool, bench string }

// runConcurrently opens one daemon session per tool/workload pair, so they
// all hold their tool state at once, runs them concurrently and checks each
// session's report against a standalone in-process run of the same pair.
func runConcurrently(t *testing.T, sock string, cases []toolRun) {
	t.Helper()
	sessions := make([]*nvbitd.RemoteSession, len(cases))
	for i, c := range cases {
		s, err := nvbitd.Dial(sock, nvbitd.OpenSpec{Tool: c.tool})
		if err != nil {
			t.Fatalf("%s: open with %d sessions already open: %v", c.tool, i, err)
		}
		defer s.Close()
		sessions[i] = s
	}
	reports := make([]string, len(cases))
	var wg sync.WaitGroup
	for i, c := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := sessions[i]
			if err := findBenchmark(t, c.bench).Run(s, specaccel.Small); err != nil {
				t.Errorf("%s: run: %v", c.tool, err)
				return
			}
			r, err := s.Report()
			if err != nil {
				t.Errorf("%s: report: %v", c.tool, err)
				return
			}
			if r.Launches == 0 || r.Cycles == 0 {
				t.Errorf("%s: empty session accounting: %+v", c.tool, r)
			}
			reports[i] = r.Text
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, c := range cases {
		want := standaloneReport(t, c.tool, c.bench)
		if reports[i] != want {
			t.Errorf("%s/%s report differs from standalone:\ndaemon:\n%s\nstandalone:\n%s",
				c.tool, c.bench, reports[i], want)
		}
	}
}

// TestConcurrentSessionsMatchStandalone places two concurrent sessions of
// different tools on a two-device pool.
func TestConcurrentSessionsMatchStandalone(t *testing.T) {
	sock := startServer(t, nvbitd.Config{Family: sass.Volta, Devices: 2, QueueLimit: -1})
	runConcurrently(t, sock, []toolRun{{"itrace", "cg"}, {"memtrace", "olbm"}})
}

// TestCachedSessionsMatchStandalone: with a cache directory, concurrent
// sessions loading the same modules compile them through the shared cache
// once, cold and then warm, and still report what a standalone run does.
func TestCachedSessionsMatchStandalone(t *testing.T) {
	sock := startServer(t, nvbitd.Config{Family: sass.Volta, Devices: 2, QueueLimit: -1, CacheDir: t.TempDir()})
	cases := []toolRun{{"itrace", "cg"}, {"instrcount", "cg"}}
	runConcurrently(t, sock, cases)
	runConcurrently(t, sock, cases)
}

// TestTraceSessionsShareOneDevice runs two concurrent trace sessions on one
// pool device. Each channel holds one record buffer per SM (itrace 16 MiB,
// memtrace 17.5 MiB), so any two of them fit the default 64 MB device.
func TestTraceSessionsShareOneDevice(t *testing.T) {
	sock := startServer(t, nvbitd.Config{Family: sass.Volta, Devices: 1, QueueLimit: -1})
	for _, pair := range [][]toolRun{
		{{"itrace", "cg"}, {"memtrace", "cg"}},
		{{"memtrace", "cg"}, {"memtrace", "cg"}},
	} {
		runConcurrently(t, sock, pair)
	}
}

// TestSessionOpenDuringPeerLaunches opens sessions on a one-device pool while
// another session's kernels run there. Opening applies the daemon's scheduler
// and watchdog to the shared device, which must never happen under a peer's
// launch; this is the -race regression for that, and the running session's
// report must still match standalone.
func TestSessionOpenDuringPeerLaunches(t *testing.T) {
	sock := startServer(t, nvbitd.Config{Family: sass.Volta, Devices: 1, QueueLimit: -1})

	done := make(chan struct{})
	var report string
	go func() {
		defer close(done)
		s, err := nvbitd.Dial(sock, nvbitd.OpenSpec{Tool: "instrcount"})
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		defer s.Close()
		if err := findBenchmark(t, "cg").Run(s, specaccel.Small); err != nil {
			t.Errorf("run: %v", err)
			return
		}
		r, err := s.Report()
		if err != nil {
			t.Errorf("report: %v", err)
			return
		}
		report = r.Text
	}()
	for opened := 0; ; opened++ {
		select {
		case <-done:
			if opened == 0 {
				t.Fatal("no session was opened while the peer ran")
			}
			if want := standaloneReport(t, "instrcount", "cg"); !t.Failed() && report != want {
				t.Errorf("report differs from standalone:\ndaemon:\n%s\nstandalone:\n%s", report, want)
			}
			return
		default:
		}
		s, err := nvbitd.Dial(sock, nvbitd.OpenSpec{Tool: "none"})
		if err != nil {
			t.Fatalf("dial during peer launches: %v", err)
		}
		s.Close()
	}
}

// TestRunCaptureOverDaemon checks the data-path ops (alloc, h2d, launch,
// d2h) by comparing a benchmark's captured output buffer across remote and
// local execution.
func TestRunCaptureOverDaemon(t *testing.T) {
	sock := startServer(t, nvbitd.Config{Family: sass.Volta, QueueLimit: -1})
	b := findBenchmark(t, "ostencil")

	s, err := nvbitd.Dial(sock, nvbitd.OpenSpec{Tool: "instrcount"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	remote, err := b.RunCapture(s, specaccel.Small)
	if err != nil {
		t.Fatal(err)
	}

	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	local, err := b.RunCapture(ctx, specaccel.Small)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remote, local) {
		t.Fatalf("remote capture differs from local (%d vs %d bytes)", len(remote), len(local))
	}
}

// spinPTX is a one-parameter arithmetic loop used to keep the device gate
// owned for a while.
const spinPTX = `
.visible .entry spin(.param .u32 iters)
{
	.reg .u32 %r<4>;
	.reg .f32 %f<4>;
	.reg .pred %p<2>;
	ld.param.u32 %r0, [iters];
	mov.u32 %f0, 1.5;
	mov.u32 %f1, 0.5;
SLOOP:
	fma.rn.f32 %f1, %f1, %f0, %f0;
	sub.u32 %r0, %r0, 1;
	setp.gt.u32 %p0, %r0, 0;
	@%p0 bra SLOOP;
	exit;
}
`

// TestOverloadShedsTyped drives the daemon past its admission queue bound
// (zero: no waiting allowed) and checks that the victim request is
// rejected with the typed overload error while the admitted session's
// launch completes.
func TestOverloadShedsTyped(t *testing.T) {
	sock := startServer(t, nvbitd.Config{Family: sass.Volta, QueueLimit: 0})

	// Both sessions open and stage their work before the gate is held:
	// session opens are themselves gated, so they must happen while the
	// device is idle.
	owner, err := nvbitd.Dial(sock, nvbitd.OpenSpec{Tool: "instrcount"})
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	victim, err := nvbitd.Dial(sock, nvbitd.OpenSpec{Tool: "instrcount"})
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()

	mod, err := owner.ModuleLoadPTX("spin.ptx", spinPTX)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := mod.GetFunction("spin")
	if err != nil {
		t.Fatal(err)
	}
	params, err := driver.PackParams(fn, uint32(300))
	if err != nil {
		t.Fatal(err)
	}

	// Owner holds the gate with a long launch; the victim polls with a
	// gated allocation until it is shed.
	launchDone := make(chan error, 1)
	launch := func() {
		go func() {
			launchDone <- owner.LaunchKernel(fn, gpu.D1(8), gpu.D1(256), 0, params)
		}()
	}
	launch()

	var shedErr error
	deadline := time.Now().Add(30 * time.Second)
poll:
	for {
		select {
		case err := <-launchDone:
			// The launch finished before the victim collided with it, or was
			// itself shed because it arrived while the victim's allocation
			// held the gate (the queue limit is 0 for everyone). Either way
			// the gate is free again: relaunch.
			if err != nil && !errors.Is(err, driver.ErrDeviceOverloaded) {
				t.Fatalf("owner launch failed: %v", err)
			}
			launch()
		default:
		}
		if _, err := victim.MemAlloc(64); err != nil {
			shedErr = err
			break poll
		}
		if time.Now().After(deadline) {
			t.Fatal("no overload rejection observed")
		}
	}
	// The victim was shed by a launch that had been admitted.
	if err := <-launchDone; err != nil {
		t.Fatalf("owner launch failed: %v", err)
	}

	if !errors.Is(shedErr, driver.ErrDeviceOverloaded) {
		t.Fatalf("shed error is not ErrDeviceOverloaded: %v", shedErr)
	}
	ov, ok := driver.AsOverload(shedErr)
	if !ok {
		t.Fatalf("shed error is not an OverloadError: %v", shedErr)
	}
	if ov.Limit != 0 {
		t.Errorf("overload Limit = %d, want 0", ov.Limit)
	}
	if ov.Tenant != victim.Session() {
		t.Errorf("overload Tenant = %d, want %d", ov.Tenant, victim.Session())
	}

	// The shed session survives: once the device drains it can proceed.
	if _, err := victim.MemAlloc(64); err != nil {
		t.Fatalf("victim cannot proceed after shed: %v", err)
	}
	r, err := owner.Report()
	if err != nil {
		t.Fatal(err)
	}
	if r.Launches == 0 {
		t.Error("owner session recorded no launches")
	}
}

// TestSessionChurn opens and finalizes many sessions against one daemon to
// shake out per-session leaks (hooks, channels, pool accounting).
func TestSessionChurn(t *testing.T) {
	sock := startServer(t, nvbitd.Config{Family: sass.Volta, QueueLimit: -1})
	b := findBenchmark(t, "ostencil")
	for i := 0; i < 20; i++ {
		tool := []string{"instrcount", "ophisto", "memdiv", "memcheck"}[i%4]
		s, err := nvbitd.Dial(sock, nvbitd.OpenSpec{Tool: tool})
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if err := b.Run(s, specaccel.Small); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if _, err := s.Report(); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
}

// TestFinishedSessionLeavesNoGateCost: a session's report carries the
// cycles the gate charged it, and once its connection ends the gate holds
// no cost for it.
func TestFinishedSessionLeavesNoGateCost(t *testing.T) {
	srv, sock := startServerOn(t, nvbitd.Config{Family: sass.Volta, QueueLimit: -1})
	s, err := nvbitd.Dial(sock, nvbitd.OpenSpec{Tool: "instrcount"})
	if err != nil {
		t.Fatal(err)
	}
	if err := findBenchmark(t, "ostencil").Run(s, specaccel.Small); err != nil {
		t.Fatal(err)
	}
	r, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 {
		t.Fatal("the report charged the session no cycles")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if c := srv.PoolGate(0).Cost(s.Session()); c != 0 {
		t.Fatalf("the gate still charges the finished session %d cycles", c)
	}
}

// freeingLauncher frees what the workload allocated once it has run, so a
// session's own buffers do not show up as leaks of the daemon.
type freeingLauncher struct {
	*nvbitd.RemoteSession
	allocs []uint64
}

func (l *freeingLauncher) MemAlloc(n uint64) (uint64, error) {
	addr, err := l.RemoteSession.MemAlloc(n)
	l.allocs = append(l.allocs, addr)
	return addr, err
}

// TestMemcheckSessionsReturnDeviceMemory serves eight memcheck sessions in a
// row from one pool device: each must open (the checker's record buffers
// are returned when its session ends, so the device never fills up), report
// exactly what a standalone run reports, and leave the device's allocation
// table as it found it.
func TestMemcheckSessionsReturnDeviceMemory(t *testing.T) {
	srv, sock := startServerOn(t, nvbitd.Config{Family: sass.Volta, Devices: 1, QueueLimit: -1})
	want := standaloneReport(t, "memcheck", "cg")
	before := srv.PoolDevice(0).Allocations()
	for i := 0; i < 8; i++ {
		s, err := nvbitd.Dial(sock, nvbitd.OpenSpec{Tool: "memcheck"})
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		l := &freeingLauncher{RemoteSession: s}
		if err := findBenchmark(t, "cg").Run(l, specaccel.Small); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		for _, addr := range l.allocs {
			if err := s.MemFree(addr); err != nil {
				t.Fatalf("session %d: %v", i, err)
			}
		}
		r, err := s.Report()
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if r.Text != want {
			t.Errorf("session %d report differs from standalone:\ndaemon:\n%s\nstandalone:\n%s", i, r.Text, want)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if got := srv.PoolDevice(0).Allocations(); !slices.Equal(got, before) {
			t.Fatalf("after session %d the device holds %v, want %v", i, got, before)
		}
	}
}

// TestUnreportedSessionsFreeBeforeCloseReturns serves twenty memtrace
// sessions in a row from one pool device, each closed without Report. The
// daemon detaches such a session itself, and it must have done so — the
// channel's record buffers freed — by the time the client's Close returns,
// or a client that opens again at once can find the device still full.
func TestUnreportedSessionsFreeBeforeCloseReturns(t *testing.T) {
	srv, sock := startServerOn(t, nvbitd.Config{Family: sass.Volta, Devices: 1, QueueLimit: -1})
	before := srv.PoolDevice(0).Allocations()
	for i := 0; i < 20; i++ {
		s, err := nvbitd.Dial(sock, nvbitd.OpenSpec{Tool: "memtrace"})
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		l := &freeingLauncher{RemoteSession: s}
		if err := findBenchmark(t, "cg").Run(l, specaccel.Small); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		for _, addr := range l.allocs {
			if err := s.MemFree(addr); err != nil {
				t.Fatalf("session %d: %v", i, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if got := srv.PoolDevice(0).Allocations(); !slices.Equal(got, before) {
			t.Fatalf("when session %d's Close returned the device held %v, want %v", i, got, before)
		}
	}
}

// TestRefusedConnectionsLeaveNoEntry: a connection that never becomes a
// session — its first frame is unreadable, is not an open, or asks for an open
// the daemon refuses — must leave the server's connection table when it ends,
// or a daemon that runs forever grows by one closed socket per bad client.
func TestRefusedConnectionsLeaveNoEntry(t *testing.T) {
	srv, sock := startServerOn(t, nvbitd.Config{Family: sass.Volta, QueueLimit: -1})
	frame := func(header string) []byte {
		pre := binary.BigEndian.AppendUint32(nil, uint32(len(header)))
		return append(append(pre, 0, 0, 0, 0), header...)
	}
	refused := [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, // a header length no frame may have
		frame(`{"op":`),
		frame(`{"op":"memalloc","n":64}`),
		frame(`{"op":"open","tool":"no-such-tool"}`),
		frame(`{"op":"open","tool":"itrace","policy":"bogus"}`),
		frame(`{"op":"open","tool":"instrcount","inject":"bogus"}`),
		frame(`{"op":"open","tool":"faultinject","fiModel":"flip2","fiBit":31}`), // OpenSession fails
	}
	for i := 0; i < 200; i++ {
		conn, err := net.Dial("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(refused[i%len(refused)]); err != nil {
			t.Fatal(err)
		}
		// The daemon answers, or not, and hangs up.
		if _, err := io.ReadAll(conn); err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		conn.Close()
	}
	// A handler drops its entry as it returns, which the peer cannot see.
	for deadline := time.Now().Add(5 * time.Second); srv.Conns() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("server still tracks %d connections after 200 refused ones", srv.Conns())
		}
	}

	s, err := nvbitd.Dial(sock, nvbitd.OpenSpec{Tool: "instrcount"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := findBenchmark(t, "ostencil").Run(s, specaccel.Small); err != nil {
		t.Fatal(err)
	}
	if r, err := s.Report(); err != nil || r.Launches == 0 || r.Text == "" {
		t.Fatalf("session after the refused ones: report %+v, error %v", r, err)
	}
}

// TestOpenRefusesFieldsTheToolIgnores: the daemon judges an open's spec where
// nvbit-run does, in the registry. A field the tool does not read, set to
// other than its default, refuses the open, naming the tool and the field,
// and binds no hook on the pool device. The spec every field at its default
// spelled out, which nvbit-run sends, still opens and reports.
func TestOpenRefusesFieldsTheToolIgnores(t *testing.T) {
	srv, sock := startServerOn(t, nvbitd.Config{Family: sass.Volta, Devices: 1, QueueLimit: -1})
	hooks := srv.PoolHookCount(0)
	_, err := nvbitd.Dial(sock, nvbitd.OpenSpec{Tool: "instrcount", Options: registry.Options{Policy: "block"}})
	if want := "tool instrcount does not read policy"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("open of instrcount with policy block: err = %v, want %q", err, want)
	}
	if got := srv.PoolHookCount(0); got != hooks {
		t.Errorf("a refused open left %d hooks bound, want %d", got, hooks)
	}

	s, err := nvbitd.Dial(sock, nvbitd.DefaultsSpec)
	if err != nil {
		t.Fatalf("open of %+v: %v", nvbitd.DefaultsSpec, err)
	}
	defer s.Close()
	if err := findBenchmark(t, "cg").Run(s, specaccel.Small); err != nil {
		t.Fatal(err)
	}
	r, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	if want := standaloneReport(t, nvbitd.DefaultsSpec.Tool, "cg"); r.Text != want {
		t.Errorf("report %q, want standalone's %q", r.Text, want)
	}
}

// TestBadRequests exercises protocol error paths.
func TestBadRequests(t *testing.T) {
	sock := startServer(t, nvbitd.Config{Family: sass.Volta, QueueLimit: -1})

	if _, err := nvbitd.Dial(sock, nvbitd.OpenSpec{Tool: "no-such-tool"}); err == nil {
		t.Error("opening an unknown tool succeeded")
	}
	if _, err := nvbitd.Dial(sock, nvbitd.OpenSpec{Tool: "itrace", Options: registry.Options{Policy: "bogus"}}); err == nil {
		t.Error("opening with a bogus policy succeeded")
	}
	if _, err := nvbitd.Dial(sock, nvbitd.OpenSpec{Tool: "faultinject", Options: registry.Options{FIModel: "flip2", FIBit: 31}}); err == nil {
		t.Error("opening with a fault spec the device would rewrite succeeded")
	}

	s, err := nvbitd.Dial(sock, nvbitd.OpenSpec{Tool: "instrcount"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.MemFree(0xdead); err == nil {
		t.Error("freeing an unallocated address succeeded")
	}
	if _, err := s.Report(); err != nil {
		t.Fatal(err)
	}
	// After finalization only close is allowed.
	if _, err := s.MemAlloc(64); err == nil {
		t.Error("op after report succeeded")
	}
}
