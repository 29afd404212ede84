package core

import (
	"slices"

	"nvbitgo/internal/channel"
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
	// Clip forces a fresh slice: SetFlushHooks wants one nothing writes.
	n.scope.SetFlushHooks(append(slices.Clip(n.scope.FlushHooks()), ch.OnFlushPoint))
	return ch, nil
}

// closeChannels ends the attachment's channels: their hooks leave the scope
// and their device buffers are released.
func (n *NVBit) closeChannels() {
	n.scope.SetFlushHooks(nil)
	for _, ch := range n.channels {
		ch.Close()
	}
	n.channels = nil
}
