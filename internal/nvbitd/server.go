package nvbitd

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"sync"

	"nvbitgo/internal/core"
	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/jitcache"
	"nvbitgo/internal/sass"
	"nvbitgo/internal/tools/registry"
)

// Config parameterizes a daemon instance.
type Config struct {
	// Family selects the simulated device family for every pool device.
	Family sass.Family
	// Scheduler is the CTA scheduler every session runs under (the
	// scheduler is a device-wide knob, so the daemon owns it, not the
	// client).
	Scheduler gpu.SchedulerKind
	// Devices is the device-pool size. Sessions are placed on the pool
	// device with the fewest live sessions; sessions sharing a device
	// contend for its SM capacity under the driver gate's fair-share
	// schedule. Zero means one device.
	Devices int
	// QueueLimit bounds each device gate's waiter queue: an operation
	// arriving when QueueLimit tenants are already waiting is load-shed
	// with a typed overload error instead of queued. Negative keeps the
	// driver default.
	QueueLimit int
	// CacheDir, when non-empty, backs a persistent JIT cache shared by
	// every session of every pool device.
	CacheDir string
	// Log receives one line per session open/close and per error; nil
	// discards.
	Log *log.Logger
}

// Server owns the device pool and serves sessions over a listener.
type Server struct {
	cfg   Config
	cache *jitcache.Cache

	mu     sync.Mutex
	pool   []*poolSlot
	ln     net.Listener
	conns  map[net.Conn]bool
	closed bool

	wg sync.WaitGroup
}

type poolSlot struct {
	api      *driver.API
	sessions int // live sessions placed here (under Server.mu)
}

// NewServer builds the device pool. Every pool device gets its own
// driver.API (and therefore its own gate); the JIT cache is shared.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Devices <= 0 {
		cfg.Devices = 1
	}
	s := &Server{cfg: cfg, conns: make(map[net.Conn]bool)}
	if cfg.CacheDir != "" {
		c, err := jitcache.New(cfg.CacheDir, 0)
		if err != nil {
			return nil, err
		}
		s.cache = c
	}
	for i := 0; i < cfg.Devices; i++ {
		api, err := driver.New(gpu.DefaultConfig(cfg.Family))
		if err != nil {
			s.closePool()
			return nil, err
		}
		if cfg.QueueLimit >= 0 {
			api.Gate().SetQueueLimit(cfg.QueueLimit)
		}
		s.pool = append(s.pool, &poolSlot{api: api})
	}
	return s, nil
}

// ListenAndServe listens on a unix socket at path (removing a stale socket
// file first) and serves until Close.
func (s *Server) ListenAndServe(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("nvbitd: removing stale socket: %w", err)
	}
	ln, err := net.Listen("unix", path)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections until the listener closes. Each connection is
// one session, handled on its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("nvbitd: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = true
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops accepting, severs live connections, waits for handlers, and
// tears down the device pool.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	s.closePool()
	return nil
}

func (s *Server) closePool() {
	for _, p := range s.pool {
		p.api.Close()
	}
	s.pool = nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

// place picks the pool device with the fewest live sessions.
func (s *Server) place() *poolSlot {
	s.mu.Lock()
	defer s.mu.Unlock()
	best := s.pool[0]
	for _, p := range s.pool[1:] {
		if p.sessions < best.sessions {
			best = p
		}
	}
	best.sessions++
	return best
}

func (s *Server) release(p *poolSlot) {
	s.mu.Lock()
	p.sessions--
	s.mu.Unlock()
}

// session is the per-connection server state.
type session struct {
	srv      *Server
	slot     *poolSlot
	sess     *core.Session
	inst     *registry.Instance
	mods     map[uint64]*driver.Module
	nextMod  uint64
	launches uint64
	reported bool
}

// handle runs one connection: an open frame, then a request loop. However it
// ends — an unreadable first frame and a refused open included — the
// connection is closed and leaves the server's table.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	var req request
	if _, err := readFrame(conn, &req); err != nil {
		return
	}
	if req.Op != opOpen {
		writeFrame(conn, &response{Err: fmt.Sprintf("nvbitd: first request must be open, got %q", req.Op)}, nil)
		return
	}
	ss, resp := s.open(req.OpenSpec)
	if resp.Err != "" {
		writeFrame(conn, resp, nil)
		return
	}
	end := sync.OnceFunc(func() {
		if !ss.reported {
			ss.sess.Close()
		}
		// The report has read the session's cost; the gate need not keep it.
		ss.slot.api.Gate().Forget(ss.sess.Ctx().Scope())
		s.release(ss.slot)
		s.logf("session %d closed (%s)", ss.sess.Ctx().Scope(), ss.inst.Name)
	})
	defer end()
	s.logf("session %d open: tool %s on device %d", ss.sess.Ctx().Scope(), ss.inst.Name, ss.slotIndex())
	if err := writeFrame(conn, resp, nil); err != nil {
		return
	}

	for {
		var req request
		body, err := readFrame(conn, &req)
		if err != nil {
			return // EOF or broken peer: deferred cleanup detaches the session
		}
		if req.Op == opClose {
			// Detach first: when the client's Close returns, the session's
			// device memory and its pool slot are free again.
			end()
			writeFrame(conn, &response{}, nil)
			return
		}
		resp, respBody := ss.dispatch(&req, body)
		if err := writeFrame(conn, resp, respBody); err != nil {
			return
		}
	}
}

func (ss *session) slotIndex() int {
	for i, p := range ss.srv.pool {
		if p == ss.slot {
			return i
		}
	}
	return -1
}

// open builds the tool from the registry and opens a session for it on the
// least-loaded pool device.
func (s *Server) open(spec OpenSpec) (*session, *response) {
	inst, err := registry.New(spec.Tool, spec.Options)
	if err != nil {
		return nil, &response{Err: err.Error()}
	}
	slot := s.place()
	opts := []core.Option{core.WithScheduler(s.cfg.Scheduler), core.WithInjectionMode(inst.Inject)}
	if s.cache != nil {
		opts = append(opts, core.WithJITCache(s.cache))
	}
	sess, err := core.OpenSession(slot.api, inst.Tool, opts...)
	if err != nil {
		s.release(slot)
		return nil, &response{Err: err.Error()}
	}
	ss := &session{srv: s, slot: slot, sess: sess, inst: inst, mods: make(map[uint64]*driver.Module)}
	return ss, &response{Session: sess.Ctx().Scope()}
}

// dispatch executes one post-open request other than close, which handle
// answers itself.
func (ss *session) dispatch(req *request, body []byte) (*response, []byte) {
	if ss.reported {
		return &response{Err: fmt.Sprintf("nvbitd: session already finalized, %q refused", req.Op)}, nil
	}
	ctx := ss.sess.Ctx()
	switch req.Op {
	case opLoadPTX:
		mod, err := ctx.ModuleLoadPTX(req.Name, string(body))
		if err != nil {
			return errResponse(err), nil
		}
		ss.nextMod++
		id := ss.nextMod
		ss.mods[id] = mod
		resp := &response{Module: id}
		for _, f := range mod.Functions() {
			resp.Funcs = append(resp.Funcs, wireFunc{
				Name: f.Name, Entry: f.Entry, Params: f.Params,
				ParamBytes: f.ParamBytes, SharedBytes: f.SharedBytes,
			})
		}
		return resp, nil
	case opMemAlloc:
		addr, err := ctx.MemAlloc(req.N)
		if err != nil {
			return errResponse(err), nil
		}
		return &response{Addr: addr}, nil
	case opMemFree:
		if err := ctx.MemFree(req.Addr); err != nil {
			return errResponse(err), nil
		}
		return &response{}, nil
	case opH2D:
		if err := ctx.MemcpyHtoD(req.Addr, body); err != nil {
			return errResponse(err), nil
		}
		return &response{}, nil
	case opD2H:
		if req.N > maxFrame {
			return &response{Err: fmt.Sprintf("nvbitd: d2h of %d bytes exceeds frame limit", req.N)}, nil
		}
		buf := make([]byte, req.N)
		if err := ctx.MemcpyDtoH(buf, req.Addr); err != nil {
			return errResponse(err), nil
		}
		return &response{}, buf
	case opLaunch:
		mod, ok := ss.mods[req.Module]
		if !ok {
			return &response{Err: fmt.Sprintf("nvbitd: unknown module handle %d", req.Module)}, nil
		}
		f, err := mod.GetFunction(req.Func)
		if err != nil {
			return errResponse(err), nil
		}
		if err := ctx.LaunchKernel(f, req.Grid, req.Block, req.Shared, body); err != nil {
			return errResponse(err), nil
		}
		ss.launches++
		return &response{}, nil
	case opReport:
		// Finalizing detaches the session hook: the tool's AtTerm runs,
		// draining its channels, and the gate's per-tenant cost is the
		// session's cycle footprint.
		scope := ctx.Scope()
		if err := ss.sess.Close(); err != nil {
			ss.reported = true
			return errResponse(err), nil
		}
		ss.reported = true
		var buf bytes.Buffer
		violation, err := ss.inst.Report(&buf, ss.sess.NVBit())
		if err != nil {
			return errResponse(err), nil
		}
		return &response{
			Violation: violation,
			Launches:  ss.launches,
			Cycles:    ss.slot.api.Gate().Cost(scope),
		}, buf.Bytes()
	default:
		return &response{Err: fmt.Sprintf("nvbitd: unknown op %q", req.Op)}, nil
	}
}

// errResponse converts a server-side error, preserving load-shed typing.
func errResponse(err error) *response {
	resp := &response{Err: err.Error()}
	if ov, ok := driver.AsOverload(err); ok {
		resp.Overload = &overloadInfo{Tenant: ov.Tenant, Waiting: ov.Waiting, Limit: ov.Limit}
	}
	return resp
}
