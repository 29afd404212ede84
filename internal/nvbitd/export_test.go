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

// Conns is how many connections the server is tracking.
func (s *Server) Conns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}
