package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced call into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the span that caused it; -1 for an op
	Op     int64  `json:"op"`     // spans of one request share it
}

// tracer records spans from the decorators in stack.go. The traced run keeps
// one op in flight, so whichever span is innermost and open when a new one
// begins is its parent, even when the call crosses from the client goroutine
// to a server goroutine. Spans stay in memory until the run ends.
type tracer struct {
	on atomic.Bool // off: begin returns -1, so one stack serves the untraced and the traced pass

	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int32
	op    int64
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index, or -1 when tracing is off. A nil
// tracer is the untraced configuration.
func (t *tracer) begin(name string) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	} else {
		t.op++
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
}

// layerTime sums one span name: calls, total duration and self time.
type layerTime struct {
	Calls   int64 `json:"calls"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// selfTimes computes per-name self time: a span's duration minus the part
// of it its child spans cover. Children of one parent never overlap here
// (one op in flight), so the covered part is the sum of their durations.
func selfTimes(spans []span) map[string]layerTime {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerTime{}
	for i, s := range spans {
		lt := out[s.Name]
		lt.Calls++
		lt.TotalNs += s.End - s.Start
		lt.SelfNs += s.End - s.Start - child[i]
		out[s.Name] = lt
	}
	return out
}

// writeTrace writes the spans to dir/trace-<workload>.json.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
