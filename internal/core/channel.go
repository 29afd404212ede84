package core

import (
	"nvbitgo/internal/channel"
)

// OpenChannel opens a device→host streaming record channel on the current
// device (the framework-level entry point tools use from AtInit). The
// channel registers mid-kernel flush hooks with the device, so it must be
// opened — and later Drained/Closed — between launches. The channel belongs
// to the attachment's scope: its flush hooks fire only during that scope's
// launches, and its drain records go to that scope's collector.
func (n *NVBit) OpenChannel(cfg channel.Config) (*channel.Channel, error) {
	cfg.Scope = n.scope.ID
	cfg.Profiler = n.scope.Collector()
	return channel.Open(n.api.Device(), cfg)
}
