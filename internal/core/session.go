package core

import (
	"nvbitgo/internal/driver"
	"nvbitgo/internal/profile"
)

// Session is one tenant's attachment to a shared driver instance: its own
// driver context, its own tool, its own NVBit framework state (JIT state,
// stats, HAL view), and — with WithTracing — its own private activity
// collector. Any number of sessions coexist on one API/device; each
// session's hook observes only its own context's driver calls, its channels'
// flush hooks fire only during its own launches, and the driver's fair-share
// gate schedules the sessions' kernels onto the shared SM capacity. Attach
// remains the one-session compatibility wrapper for the classic
// whole-process preloaded-tool model.
type Session struct {
	n   *NVBit
	ctx *driver.Context
}

// OpenSession attaches a tool to a fresh context on the driver instead of to
// the whole process. The same options as Attach apply, with one difference:
// WithTracing creates a session-private collector (retrieve it with
// Session.Profiler) rather than installing a device-wide one, so concurrent
// sessions' timelines stay separate. WithScheduler and WithWatchdogInterval
// still configure the shared device — they are device-wide knobs — and are
// applied inside the driver gate's admission window, so they never change
// under another session's launch.
// The tool's AtInit fires before OpenSession returns; its AtTerm fires at
// Session.Close.
func OpenSession(api *driver.API, tool Tool, opts ...Option) (*Session, error) {
	n, cfg := newNVBit(api, tool, opts)
	// The knobs are device state and launches read them: like every other
	// device-owning operation, setting them takes the gate.
	if err := api.Gate().Admit(0); err != nil {
		return nil, err
	}
	cfg.applyShared(api.Device())
	api.Gate().Release(0, 0)
	if cfg.tracing {
		n.prof = profile.NewCollector(cfg.traceBuffer)
	}
	ctx, err := api.CtxCreateScoped((*hook)(n), n.prof)
	if err != nil {
		return nil, err
	}
	n.ctx = ctx
	if err := safeAtInit(tool, n); err != nil {
		ctx.DiscardHook()
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

// Profiler returns the session's private activity collector (WithTracing),
// or the device-wide one when the session has none; nil when tracing is off
// everywhere.
func (s *Session) Profiler() *profile.Collector { return s.n.profiler() }

// Close detaches the session: the tool's AtTerm fires (scoped to this
// session — other sessions and any process-wide interposer do not see it)
// and the hook is unregistered. Close is idempotent. The context remains
// usable for uninstrumented driver calls afterwards.
func (s *Session) Close() error { return s.ctx.DetachHook() }
