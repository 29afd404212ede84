package core

import (
	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/jitcache"
	"nvbitgo/internal/profile"
)

// Option configures an Attach call. Options are the supported way to select
// per-attachment behavior (execution backend, watchdog budget, activity
// tracing); the zero-option Attach behaves exactly as before they existed.
type Option func(*attachConfig)

type attachConfig struct {
	scheduler    gpu.SchedulerKind
	setScheduler bool

	watchdog    int64
	setWatchdog bool

	tracing     bool
	traceBuffer int

	cache *jitcache.Cache

	injectMode InjectionMode
}

// WithScheduler selects the CTA-to-SM execution backend (see
// docs/scheduler.md) for the attached device.
func WithScheduler(k gpu.SchedulerKind) Option {
	return func(c *attachConfig) { c.scheduler = k; c.setScheduler = true }
}

// WithWatchdogInterval sets the launch watchdog's per-CTA warp-instruction
// budget: zero selects the default, a negative value disables the watchdog
// (see docs/faults.md).
func WithWatchdogInterval(v int64) Option {
	return func(c *attachConfig) { c.watchdog = v; c.setWatchdog = true }
}

// WithTracing gives the attachment's scope an activity-record collector,
// enabling the CUPTI-style tracing and metrics surface (NVBit.Profiler,
// docs/observability.md). bufferRecords bounds the collector's ring; zero or
// negative selects profile.DefaultCapacity. Without this option the launch
// path stays allocation-free.
func WithTracing(bufferRecords int) Option {
	return func(c *attachConfig) { c.tracing = true; c.traceBuffer = bufferRecords }
}

// WithJITCache attaches a content-addressed instrumentation cache (see
// internal/jitcache and docs/jitcache.md) to this attachment: JIT results —
// generated trampolines, and the modules the scope's PTX loads and the tool's
// functions compile to — are stored under fingerprints of their inputs and
// reused across functions, attaches and (with a disk-backed cache)
// processes. The same Cache may be shared by concurrent attaches; the cache
// coalesces racing generations so each unique function is JITted once.
func WithJITCache(c *jitcache.Cache) Option {
	return func(cfg *attachConfig) { cfg.cache = c }
}

// WithInjectionMode selects the Code Generator's injection strategy for this
// attachment: trampoline (default), full-save (ablation baseline), or inline
// (splice eligible tool bodies into dead registers; see docs/tools.md). The
// mode is fixed for the life of the attachment.
func WithInjectionMode(m InjectionMode) Option {
	return func(c *attachConfig) { c.injectMode = m }
}

func collect(opts []Option) attachConfig {
	var cfg attachConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// apply configures the device and the scope an attachment is about to bind
// to. The knobs are device state and launches read them: like every other
// device-owning operation, setting them takes the gate. Tracing gives the
// scope a collector unless it already has one.
func (c *attachConfig) apply(api *driver.API, scope *driver.Tenant) error {
	if err := api.Gate().Admit(scope.ID); err != nil {
		return err
	}
	if c.setScheduler {
		api.Device().SetScheduler(c.scheduler)
	}
	if c.setWatchdog {
		api.Device().SetWatchdogInterval(c.watchdog)
	}
	api.Gate().Release(scope.ID, 0)
	if c.tracing && scope.Collector() == nil {
		scope.SetCollector(profile.NewCollector(c.traceBuffer))
	}
	return nil
}

// Profiler returns the activity collector this attachment's records go to —
// its scope's; nil when tracing is off. Tools and launchers use it to
// subscribe to records, drain the timeline, or read the per-kernel metrics
// table.
func (n *NVBit) Profiler() *profile.Collector { return n.scope.Collector() }
