package profile

import (
	"encoding/json"
	"io"
	"strconv"
)

// The chrome://tracing "Trace Event Format": a JSON object with a
// traceEvents array of complete ("X") events whose timestamps and durations
// are microseconds. Records are mapped onto threads ("tracks") by layer —
// driver calls, the JIT pipeline, the device, and one track per SM — so a
// loaded trace shows launches, memcpys and JIT phases nesting by time on
// their own lanes.

// ChromeTrace is the top-level chrome://tracing JSON document. Exported so
// tests (and downstream consumers) can round-trip the output through
// encoding/json.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeEvent is one trace event.
type ChromeEvent struct {
	Name  string      `json:"name"`
	Cat   string      `json:"cat"`
	Phase string      `json:"ph"`
	TS    float64     `json:"ts"`  // microseconds since trace start
	Dur   float64     `json:"dur"` // microseconds
	PID   int         `json:"pid"`
	TID   string      `json:"tid"`
	Args  *ChromeArgs `json:"args,omitempty"`
}

// ChromeArgs carries the record payload into the trace viewer's detail pane.
type ChromeArgs struct {
	ID           uint64 `json:"id"`
	Parent       uint64 `json:"parent,omitempty"`
	Kernel       string `json:"kernel,omitempty"`
	SM           int    `json:"sm,omitempty"`
	Addr         uint64 `json:"addr,omitempty"`
	Bytes        uint64 `json:"bytes,omitempty"`
	Count        uint64 `json:"count,omitempty"`
	Grid         [3]int `json:"grid,omitempty"`
	Block        [3]int `json:"block,omitempty"`
	CTAs         int    `json:"ctas,omitempty"`
	WarpsRetired uint64 `json:"warpsRetired,omitempty"`
	WarpInstrs   uint64 `json:"warpInstrs,omitempty"`
	ThreadInstrs uint64 `json:"threadInstrs,omitempty"`
	Cycles       uint64 `json:"cycles,omitempty"`
	Instrumented bool   `json:"instrumented,omitempty"`
	Fault        string `json:"fault,omitempty"`
}

// chromeTID maps a record to its display track.
func chromeTID(r Record) string {
	switch r.Kind {
	case KindJITPhase:
		return "jit"
	case KindKernel:
		return "gpu"
	case KindSMSpan:
		return "gpu-sm" + strconv.Itoa(r.SM)
	case KindToolCallback:
		return "tool"
	case KindChannelFlush:
		return "channel-sm" + strconv.Itoa(r.SM)
	case KindChannelDrain:
		return "channel"
	}
	return "driver"
}

// ToChromeTrace converts records into the chrome://tracing document form.
func ToChromeTrace(recs []Record) ChromeTrace {
	events := make([]ChromeEvent, 0, len(recs))
	for _, r := range recs {
		ev := ChromeEvent{
			Name:  r.Name,
			Cat:   r.Kind.String(),
			Phase: "X",
			TS:    float64(r.Start.Nanoseconds()) / 1e3,
			Dur:   float64(r.Dur.Nanoseconds()) / 1e3,
			PID:   1,
			TID:   chromeTID(r),
			Args: &ChromeArgs{
				ID:           r.ID,
				Parent:       r.Parent,
				Kernel:       r.Kernel,
				SM:           r.SM,
				Addr:         r.Addr,
				Bytes:        r.Bytes,
				Count:        r.Count,
				Grid:         r.Grid,
				Block:        r.Block,
				CTAs:         r.CTAs,
				WarpsRetired: r.WarpsRetired,
				WarpInstrs:   r.WarpInstrs,
				ThreadInstrs: r.ThreadInstrs,
				Cycles:       r.Cycles,
				Instrumented: r.Instrumented,
				Fault:        r.Fault,
			},
		}
		if ev.Name == "" {
			ev.Name = r.Kind.String()
		}
		events = append(events, ev)
	}
	return ChromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"}
}

// WriteChromeTrace writes the records as a chrome://tracing-loadable JSON
// document.
func WriteChromeTrace(w io.Writer, recs []Record) error {
	enc := json.NewEncoder(w)
	return enc.Encode(ToChromeTrace(recs))
}
