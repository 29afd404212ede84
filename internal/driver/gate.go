package driver

import (
	"errors"
	"fmt"
	"sync"
)

// ErrDeviceOverloaded is the sentinel every OverloadError wraps — the
// CUresult a real driver returns when it cannot take more work. Classify
// with errors.Is, recover the full rejection context with AsOverload.
var ErrDeviceOverloaded = errors.New("CUDA_ERROR_LAUNCH_OUT_OF_RESOURCES: device overloaded")

// OverloadError is the typed load-shedding rejection, the admission-control
// analog of gpu.Fault: when the gate's wait queue is full, device-owning
// driver calls fail fast with one of these instead of queueing without
// bound. The rejected context is NOT poisoned — the session stays healthy
// and may retry.
type OverloadError struct {
	Tenant  uint64 // scope of the rejected context (0: the process scope)
	Waiting int    // operations already queued when this one was shed
	Limit   int    // the queue bound that was hit
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("%v: %d queued (limit %d)", ErrDeviceOverloaded, e.Waiting, e.Limit)
}

// Unwrap ties every OverloadError to ErrDeviceOverloaded for errors.Is.
func (e *OverloadError) Unwrap() error { return ErrDeviceOverloaded }

// AsOverload extracts the typed overload rejection from an error chain,
// mirroring gpu.AsFault. It returns nil, false for every other error.
func AsOverload(err error) (*OverloadError, bool) {
	var e *OverloadError
	if errors.As(err, &e) {
		return e, true
	}
	return nil, false
}

// DefaultQueueLimit is the gate's wait-queue bound when the embedder does not
// tune one — deep enough that a single-session process never sheds, shallow
// enough that a runaway fan-out fails fast instead of accumulating
// goroutines.
const DefaultQueueLimit = 1024

// Gate serializes device-owning driver operations (context creation, module
// loads, memory traffic, kernel launches with their JIT window) across
// concurrent sessions. Exactly one operation owns the device at a time —
// the simulator's execution state is single-owner by design — and when
// several sessions wait, the gate admits the tenant with the least
// accumulated kernel cycles first (max-min fair share over device time;
// FIFO among ties and within a tenant). The wait queue is bounded: beyond
// the limit, Admit sheds load with a typed OverloadError instead of
// queueing.
type Gate struct {
	mu      sync.Mutex
	busy    bool
	waiters []*gateWaiter
	limit   int
	cost    map[uint64]uint64 // tenant -> accumulated cycles
	seq     uint64
}

type gateWaiter struct {
	tenant uint64
	seq    uint64
	ready  chan struct{}
}

// NewGate builds a gate with the given wait-queue bound (negative is
// clamped to zero: reject whenever the device is busy).
func NewGate(queueLimit int) *Gate {
	if queueLimit < 0 {
		queueLimit = 0
	}
	return &Gate{limit: queueLimit, cost: make(map[uint64]uint64)}
}

// SetQueueLimit retunes the wait-queue bound; already-queued waiters are
// unaffected.
func (g *Gate) SetQueueLimit(n int) {
	if n < 0 {
		n = 0
	}
	g.mu.Lock()
	g.limit = n
	g.mu.Unlock()
}

// Waiting returns the current wait-queue depth.
func (g *Gate) Waiting() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.waiters)
}

// Cost returns the cycles accumulated against a tenant so far — the
// fair-share currency.
func (g *Gate) Cost(tenant uint64) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cost[tenant]
}

// Forget drops the cost accumulated against a tenant that takes the gate no
// more, such as a finished daemon session, so a long-lived gate holds
// entries only for tenants it still serves.
func (g *Gate) Forget(tenant uint64) {
	g.mu.Lock()
	delete(g.cost, tenant)
	g.mu.Unlock()
}

// Admit blocks until the caller owns the device window, or sheds the request
// with an *OverloadError when the wait queue is full. Every successful Admit
// must be paired with exactly one Release.
func (g *Gate) Admit(tenant uint64) error {
	g.mu.Lock()
	if !g.busy {
		g.busy = true
		g.mu.Unlock()
		return nil
	}
	if len(g.waiters) >= g.limit {
		e := &OverloadError{Tenant: tenant, Waiting: len(g.waiters), Limit: g.limit}
		g.mu.Unlock()
		return e
	}
	w := &gateWaiter{tenant: tenant, seq: g.seq, ready: make(chan struct{})}
	g.seq++
	g.waiters = append(g.waiters, w)
	g.mu.Unlock()
	<-w.ready // ownership is handed over by Release
	return nil
}

// Release returns the device window, charging the finished work's cycles to
// the tenant, and hands ownership to the waiting tenant with the least
// accumulated cost.
func (g *Gate) Release(tenant uint64, cycles uint64) {
	g.mu.Lock()
	g.cost[tenant] += cycles
	if len(g.waiters) == 0 {
		g.busy = false
		g.mu.Unlock()
		return
	}
	best := 0
	for i := 1; i < len(g.waiters); i++ {
		wi, wb := g.waiters[i], g.waiters[best]
		ci, cb := g.cost[wi.tenant], g.cost[wb.tenant]
		if ci < cb || (ci == cb && wi.seq < wb.seq) {
			best = i
		}
	}
	w := g.waiters[best]
	g.waiters = append(g.waiters[:best], g.waiters[best+1:]...)
	g.mu.Unlock()
	close(w.ready)
}
