package nvbitd

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/tools/registry"
)

// OpenSpec is what a client asks of the daemon when opening a session: a
// registry tool name and the session's other choices, which the registry
// parses daemon-side. It is the open frame's header, field for field.
type OpenSpec struct {
	Tool string `json:"tool,omitempty"` // registry tool name; "" is none
	registry.Options
}

// ReportResult is the session's finalized outcome.
type ReportResult struct {
	Text      string // the tool's report, byte-identical to a standalone run's
	Violation bool   // the tool found violations (exit-code-2 condition)
	Launches  uint64 // kernel launches the session performed
	Cycles    uint64 // device cycles the gate charged to this session
}

// RemoteSession is one session on an nvbitd daemon. It implements
// driver.Launcher, so workloads written against the local driver replay
// against the daemon unchanged. Methods must not be called concurrently:
// like a *driver.Context, a session serves one workload goroutine.
type RemoteSession struct {
	conn net.Conn
	mu   sync.Mutex // serializes request/response exchanges

	session  uint64
	mods     map[*driver.Module]uint64
	reported bool
	closed   bool
}

var _ driver.Launcher = (*RemoteSession)(nil)

// Dial connects to the daemon's unix socket and opens a session.
func Dial(socket string, spec OpenSpec) (*RemoteSession, error) {
	conn, err := net.Dial("unix", socket)
	if err != nil {
		return nil, fmt.Errorf("nvbitd: connecting to %s: %w", socket, err)
	}
	s := &RemoteSession{conn: conn, mods: make(map[*driver.Module]uint64)}
	resp, _, err := s.rpc(&request{Op: opOpen, OpenSpec: spec}, nil)
	if err != nil {
		conn.Close()
		return nil, err
	}
	s.session = resp.Session
	return s, nil
}

// Session returns the server-assigned session (tenant) identifier.
func (s *RemoteSession) Session() uint64 { return s.session }

// rpc performs one request/response exchange, converting an Err response
// into a Go error (typed when the server shed load).
func (s *RemoteSession) rpc(req *request, body []byte) (*response, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, errors.New("nvbitd: session closed")
	}
	if err := writeFrame(s.conn, req, body); err != nil {
		return nil, nil, err
	}
	var resp response
	rbody, err := readFrame(s.conn, &resp)
	if err != nil {
		return nil, nil, err
	}
	if resp.Err != "" {
		if ov := resp.Overload; ov != nil {
			return nil, nil, &driver.OverloadError{Tenant: ov.Tenant, Waiting: ov.Waiting, Limit: ov.Limit}
		}
		return nil, nil, errors.New(resp.Err)
	}
	return &resp, rbody, nil
}

// ModuleLoadPTX ships the PTX source to the daemon, which JIT-compiles and
// loads it into the session's context. The returned module is detached:
// its functions carry the parameter tables needed for client-side
// PackParams, while instrumentation and execution stay server-side.
func (s *RemoteSession) ModuleLoadPTX(name, source string) (*driver.Module, error) {
	resp, _, err := s.rpc(&request{Op: opLoadPTX, Name: name}, []byte(source))
	if err != nil {
		return nil, err
	}
	funcs := make([]*driver.Function, 0, len(resp.Funcs))
	for _, wf := range resp.Funcs {
		funcs = append(funcs, &driver.Function{
			Name: wf.Name, Entry: wf.Entry, Params: wf.Params,
			ParamBytes: wf.ParamBytes, SharedBytes: wf.SharedBytes,
		})
	}
	mod := driver.NewDetachedModule(name, funcs)
	s.mu.Lock()
	s.mods[mod] = resp.Module
	s.mu.Unlock()
	return mod, nil
}

// MemAlloc reserves device memory in the session's context.
func (s *RemoteSession) MemAlloc(n uint64) (uint64, error) {
	resp, _, err := s.rpc(&request{Op: opMemAlloc, N: n}, nil)
	if err != nil {
		return 0, err
	}
	return resp.Addr, nil
}

// MemFree releases a device allocation.
func (s *RemoteSession) MemFree(addr uint64) error {
	_, _, err := s.rpc(&request{Op: opMemFree, Addr: addr}, nil)
	return err
}

// MemcpyHtoD copies host bytes to device memory.
func (s *RemoteSession) MemcpyHtoD(dst uint64, src []byte) error {
	_, _, err := s.rpc(&request{Op: opH2D, Addr: dst}, src)
	return err
}

// MemcpyDtoH copies device memory back to the host.
func (s *RemoteSession) MemcpyDtoH(dst []byte, src uint64) error {
	_, body, err := s.rpc(&request{Op: opD2H, Addr: src, N: uint64(len(dst))}, nil)
	if err != nil {
		return err
	}
	if len(body) != len(dst) {
		return fmt.Errorf("nvbitd: d2h returned %d bytes, want %d", len(body), len(dst))
	}
	copy(dst, body)
	return nil
}

// LaunchKernel launches a kernel of a module previously loaded through
// this session. A load-shed rejection comes back as a *driver.OverloadError
// (errors.Is(err, driver.ErrDeviceOverloaded) holds); the session survives
// it and may retry.
func (s *RemoteSession) LaunchKernel(f *driver.Function, grid, block gpu.Dim3, sharedBytes int, params []byte) error {
	s.mu.Lock()
	id, ok := s.mods[f.Module]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("nvbitd: function %s belongs to a module not loaded through this session", f.Name)
	}
	_, _, err := s.rpc(&request{
		Op: opLaunch, Module: id, Func: f.Name,
		Grid: grid, Block: block, Shared: sharedBytes,
	}, params)
	return err
}

// Report finalizes the session — the daemon detaches its hook, firing the
// tool's AtTerm and draining its channels — and returns the tool's report.
// After Report only Close is valid.
func (s *RemoteSession) Report() (*ReportResult, error) {
	resp, body, err := s.rpc(&request{Op: opReport}, nil)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.reported = true
	s.mu.Unlock()
	return &ReportResult{
		Text:      string(body),
		Violation: resp.Violation,
		Launches:  resp.Launches,
		Cycles:    resp.Cycles,
	}, nil
}

// Close ends the session and the connection. Closing without Report
// detaches the session server-side (its tool's AtTerm still runs); the
// report is then lost. The daemon replies once the session's device memory
// is free, so Close returns after that. Close is idempotent.
func (s *RemoteSession) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conn := s.conn
	s.mu.Unlock()
	// Best-effort polite close; the server also handles a bare EOF.
	writeFrame(conn, &request{Op: opClose}, nil)
	var resp response
	readFrame(conn, &resp)
	return conn.Close()
}
