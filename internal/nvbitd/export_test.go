package nvbitd

import "nvbitgo/internal/gpu"

// PoolDevice exposes pool device i; leak tests read its allocation table.
func (s *Server) PoolDevice(i int) *gpu.Device { return s.pool[i].api.Device() }
