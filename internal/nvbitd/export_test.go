package nvbitd

import (
	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
)

// PoolDevice exposes pool device i; leak tests read its allocation table.
func (s *Server) PoolDevice(i int) *gpu.Device { return s.pool[i].api.Device() }

// PoolGate exposes pool device i's admission gate; leak tests read its
// per-session costs.
func (s *Server) PoolGate(i int) *driver.Gate { return s.pool[i].api.Gate() }

// PoolHookCount is how many scopes have a hook bound on pool device i.
func (s *Server) PoolHookCount(i int) int { return s.pool[i].api.HookCount() }

// DefaultsSpec is the spec nvbit-run sends for a run with every flag at its
// default, each field's default spelled out (openFrames' first entry).
var DefaultsSpec = openFrames[0].spec

// Conns is how many connections the server is tracking.
func (s *Server) Conns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}
