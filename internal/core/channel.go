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
// launch when the tool hears of its end; OnBatch borrows each batch for the
// call and copies what it keeps), its drain records go to that
// scope's collector, and the framework closes it when the attachment ends —
// after the tool's AtTerm, or when AtInit fails. Its control block is memory
// the attachment owns: tools pass ArgDevPtr(ch.CtrlAddr()).
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
	n.spans = append(n.spans, gpu.AllocSpan{Base: ch.CtrlAddr(), Size: ch.CtrlBytes()})
	return ch, nil
}

// release ends what the attachment keeps in its scope, at its end: its
// channels close (their flushes leave the scope and their device buffers
// are freed) and its compiler is removed.
func (n *NVBit) release() {
	for _, ch := range n.channels {
		ch.Close()
	}
	n.channels = nil
	n.scope.SetCompiler(nil)
}

// launchFlushHook is the flush hook of the launch whose enter callback is
// ending: atFlushPoint while the attachment has work in it — an open
// channel or the launch's OnCTAExit callback — and nil otherwise, so the
// launch path stays call-free.
func (n *NVBit) launchFlushHook() gpu.FlushHook {
	if len(n.channels) > 0 || n.ctaExit != nil {
		return n.atFlush
	}
	return nil
}
