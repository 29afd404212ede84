package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Layers a span can belong to. A span's layer is the module whose public
// function the harness called; the root span of an iteration has layerNone,
// and its self time is what no layer accounts for.
const (
	layerNone     = ""
	layerPTX      = "ptx"
	layerSASS     = "sass"
	layerCore     = "core"
	layerJITCache = "jitcache"
	layerGPU      = "gpu"
	layerDriver   = "driver"
	layerNvbitd   = "nvbitd"
	layerCampaign = "campaign"
)

var spanLayers = []string{layerPTX, layerSASS, layerCore, layerJITCache, layerGPU, layerDriver, layerNvbitd, layerCampaign}

// span is one timed call the harness made into a layer. Start and End are
// nanoseconds since the tracer was created; Parent is the index of the span
// that caused this one, -1 for an iteration's root.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Iter   int    `json:"iter"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer records
// nothing, which is the untraced pass.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) finish(id int, end int64) {
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// scope is where new spans attach: a tracer, the current parent span and the
// iteration both belong to. The zero scope is the untraced pass.
type scope struct {
	t      *tracer
	parent int
	iter   int
}

// root opens iteration iter's root span and returns the scope under it.
func (t *tracer) root(iter int) (scope, func()) {
	if t == nil {
		return scope{}, func() {}
	}
	id := t.add(span{Name: "iteration", Parent: -1, Iter: iter, Start: t.now()})
	return scope{t: t, parent: id, iter: iter}, func() { t.finish(id, t.now()) }
}

// do times f as one span of the layer and hands f the scope beneath it.
func (s scope) do(layer, name string, f func(scope) error) error {
	if s.t == nil {
		return f(s)
	}
	id := s.t.add(span{Name: name, Layer: layer, Parent: s.parent, Iter: s.iter, Start: s.t.now()})
	err := f(scope{t: s.t, parent: id, iter: s.iter})
	s.t.finish(id, s.t.now())
	return err
}

// interval records an already measured child span, such as a JIT phase read
// from the program's own counters at a span boundary.
func (s scope) interval(layer, name string, start int64, d time.Duration) {
	if s.t == nil || d <= 0 {
		return
	}
	s.t.add(span{Name: name, Layer: layer, Parent: s.parent, Iter: s.iter, Start: start, End: start + int64(d)})
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover. Children may overlap each other (concurrent clients) and are
// clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerSelf sums self time by layer, and by span name within each layer.
func layerSelf(spans []span) (byLayer, byName map[string]int64) {
	byLayer, byName = map[string]int64{}, map[string]int64{}
	for i, d := range selfTimes(spans) {
		byLayer[spans[i].Layer] += d
		byName[spans[i].Name] += d
	}
	return byLayer, byName
}
