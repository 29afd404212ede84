package core

import (
	"nvbitgo/internal/channel"
	"nvbitgo/internal/gpu"
)

// OpenChannel opens a device→host streaming record channel on the current
// device and registers the device function that pushes into it
// (cfg.ToolPTX, with the channel's claim and commit fragments written in) —
// the framework-level entry point tools use from AtInit. The channel belongs
// to the attachment: it flushes mid-kernel only in the attachment's scope's
// launches, the framework drains it at the exit of each of those launches
// (before the tool's exit callback, so OnBatch has seen every record of a
// launch when the tool hears of its end), its drain records go to that
// scope's collector, and the framework closes it when the attachment ends —
// after the tool's AtTerm, or when AtInit fails.
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
	n.setFlushHook()
	return ch, nil
}

// release ends what the attachment keeps in its scope, at its end: its
// channels close and its compiler is removed.
func (n *NVBit) release() {
	n.closeChannels()
	n.scope.SetCompiler(nil)
}

// closeChannels ends the attachment's channels: their flushes leave the
// scope and their device buffers are released.
func (n *NVBit) closeChannels() {
	for _, ch := range n.channels {
		ch.Close()
	}
	n.channels = nil
	n.setFlushHook()
}

// setFlushHook installs atFlushPoint on the attachment's scope while it has
// work there — an open channel or a launch's OnCTAExit callback — and
// removes it otherwise, so the launch path stays call-free.
func (n *NVBit) setFlushHook() {
	var hook gpu.FlushHook
	if len(n.channels) > 0 || n.ctaExit != nil {
		hook = n.atFlushPoint
	}
	n.scope.SetFlushHook(hook)
}
