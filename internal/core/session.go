package core

import (
	"nvbitgo/internal/driver"
	"nvbitgo/internal/profile"
)

// Session is one tenant's attachment to a shared driver instance: a driver
// scope of its own holding its context, its tool, its NVBit framework state
// (JIT state, stats, HAL view), and — with WithTracing — its activity
// collector. Any number of sessions coexist on one API/device; each
// session's hook observes only its own scope's driver calls, its channels
// flush only during its own launches, and the driver's fair-share
// gate schedules the sessions' kernels onto the shared SM capacity. Attach is
// the same attachment bound to scope 0, the classic whole-process
// preloaded-tool model.
type Session struct {
	n   *NVBit
	ctx *driver.Context
}

// OpenSession attaches a tool to a fresh scope and context on the driver
// instead of to the whole process. The same options as Attach apply: the
// collector WithTracing creates belongs to the session's scope (retrieve it
// with Session.Profiler), so concurrent sessions' timelines stay separate;
// WithScheduler and WithWatchdogInterval configure the shared device — they
// are device-wide knobs — inside the driver gate's admission window, so they
// never change under another session's launch.
// The tool's AtInit fires before OpenSession returns; its AtTerm fires at
// Session.Close.
func OpenSession(api *driver.API, tool Tool, opts ...Option) (*Session, error) {
	n, ctx, err := attach(api, tool, opts, true)
	if err != nil {
		return nil, err
	}
	return &Session{n: n, ctx: ctx}, nil
}

// NVBit returns the session's framework instance — what the session's tool
// receives in its callbacks.
func (s *Session) NVBit() *NVBit { return s.n }

// Ctx returns the session's driver context. All of the session's module
// loads, memory traffic and launches go through it; its driver calls are the
// only ones the session's tool observes.
func (s *Session) Ctx() *driver.Context { return s.ctx }

// Profiler returns the session's activity collector (WithTracing); nil when
// the session does not trace.
func (s *Session) Profiler() *profile.Collector { return s.n.Profiler() }

// Close detaches the session: the tool's AtTerm fires (scoped to this
// session — no other scope sees it) and the hook is unbound. Close is
// idempotent. The context remains usable for uninstrumented driver calls
// afterwards.
func (s *Session) Close() error { return s.n.scope.Unbind(true) }
