package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records one span per call into a layer's public function, from
// the benchmark's side of the call. Spans stay in memory and are written
// once, as Chrome trace-event JSON, when the run ends. A disabled tracer
// only runs the calls: end-to-end figures come from untraced runs.
type tracer struct {
	on  bool
	t0  time.Time
	ids atomic.Int64

	mu     sync.Mutex
	spans  []span
	layers map[string]*layerStat
}

type span struct {
	name       string
	id, parent int64
	// op groups the spans of one operation (a sign-off pass, a fixpoint
	// run, a served request).
	op         int64
	start, end time.Duration
	allocs     uint64
	failed     bool
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	calls, failures int
	secs            samples
	allocs          samples
}

type spanKey struct{}

type spanRef struct{ id, op int64 }

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), layers: map[string]*layerStat{}}
}

// op returns a context whose spans belong to a new operation.
func (t *tracer) op(ctx context.Context) context.Context {
	if !t.on {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, spanRef{op: t.ids.Add(1)})
}

// do runs fn inside a span called name, a child of the span in ctx.
func (t *tracer) do(ctx context.Context, name string, fn func(context.Context) error) error {
	if !t.on {
		return fn(ctx)
	}
	parent, _ := ctx.Value(spanKey{}).(spanRef)
	id := t.ids.Add(1)
	a0 := heapObjects()
	start := time.Since(t.t0)
	err := fn(context.WithValue(ctx, spanKey{}, spanRef{id: id, op: parent.op}))
	end := time.Since(t.t0)
	sp := span{name: name, id: id, parent: parent.id, op: parent.op,
		start: start, end: end, allocs: heapObjects() - a0, failed: err != nil}

	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, sp)
	ls := t.layers[name]
	if ls == nil {
		ls = &layerStat{}
		t.layers[name] = ls
	}
	ls.calls++
	if err != nil {
		ls.failures++
	}
	ls.secs = append(ls.secs, (end - start).Seconds())
	ls.allocs = append(ls.allocs, float64(sp.allocs))
	return err
}

// layer returns the aggregate for name; a layer the run never called
// reads as zero calls.
func (t *tracer) layer(name string) *layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ls := t.layers[name]; ls != nil {
		return ls
	}
	return &layerStat{}
}

// children returns the spans whose parent is id, in start order.
func (t *tracer) children(id int64) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, sp := range t.spans {
		if sp.parent == id {
			out = append(out, sp)
		}
	}
	return out
}

// named returns every span called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, sp := range t.spans {
		if sp.name == name {
			out = append(out, sp)
		}
	}
	return out
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microseconds, one thread lane per operation).
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, sp := range t.spans {
		events = append(events, chromeEvent{
			Name: sp.name, Cat: "perfbench", Ph: "X",
			Ts:  float64(sp.start.Nanoseconds()) / 1e3,
			Dur: float64((sp.end - sp.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: sp.op,
			Args: map[string]any{"id": sp.id, "parent": sp.parent, "op": sp.op,
				"allocs": sp.allocs, "failed": sp.failed},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

var allocMetrics = []string{"/gc/heap/allocs:objects", "/gc/heap/tiny/allocs:objects"}

// heapObjects is the process's cumulative count of heap allocations.
// Unlike runtime.ReadMemStats it does not stop the world, so it is cheap
// enough to read around every traced call.
func heapObjects() uint64 {
	s := make([]metrics.Sample, len(allocMetrics))
	for i, name := range allocMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	var n uint64
	for _, v := range s {
		if v.Value.Kind() == metrics.KindUint64 {
			n += v.Value.Uint64()
		}
	}
	return n
}
