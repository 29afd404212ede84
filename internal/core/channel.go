package core

import (
	"nvbitgo/internal/channel"
	"nvbitgo/internal/gpu"
)

// OpenChannel opens a device→host streaming record channel on the current
// device and registers the device function that pushes into it
// (cfg.ToolPTX, with the channel's claim and commit fragments written in) —
// the framework-level entry point tools use from AtInit. The channel belongs
// to the attachment: its mid-kernel flush hooks run only in the attachment's
// scope's launches, its drain records go to that scope's collector, and the
// framework closes it when the attachment ends — after the tool's AtTerm, or
// when AtInit fails. Tools only Drain it, between launches.
func (n *NVBit) OpenChannel(cfg channel.Config) (*channel.Channel, error) {
	cfg.Profiler = n.scope.Collector()
	src, err := cfg.ExpandToolPTX()
	if err != nil {
		return nil, err
	}
	ch, err := channel.Open(n.api.Device(), cfg)
	if err != nil {
		return nil, err
	}
	if err := n.RegisterToolPTX(src); err != nil {
		ch.Close()
		return nil, err
	}
	n.channels = append(n.channels, ch)
	n.setFlushHooks()
	return ch, nil
}

// closeChannels ends the attachment's channels: their hooks leave the scope
// and their device buffers are released.
func (n *NVBit) closeChannels() {
	for _, ch := range n.channels {
		ch.Close()
	}
	n.channels = nil
	n.setFlushHooks()
}

// setFlushHooks installs the attachment's flush hooks on its scope: one per
// open channel and, while a launch has an OnCTAExit callback, the CTA hook.
// The slice is a fresh one each time, as SetFlushHooks wants.
func (n *NVBit) setFlushHooks() {
	var hooks []gpu.FlushHook
	for _, ch := range n.channels {
		hooks = append(hooks, ch.OnFlushPoint)
	}
	if n.ctaExit != nil {
		hooks = append(hooks, n.atCTAExit)
	}
	n.scope.SetFlushHooks(hooks)
}
