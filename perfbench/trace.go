package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the
// program. Spans of one operation (a job, a request, an event) share Op;
// Parent is the ID of the enclosing span, 0 at the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Alloc is the bytes the process allocated during the span, taken
	// only for spans begun with beginAlloc.
	Alloc uint64 `json:"alloc_bytes,omitempty"`

	trackAlloc bool
	alloc0     uint64
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run measures its end-to-end
// numbers without tracing cost.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// beginAlloc is begin for a coarse stage that also records how many
// bytes the process allocated inside it.
func (t *tracer) beginAlloc(name string, parent int, op int64) int {
	if t == nil {
		return 0
	}
	id := t.begin(name, parent, op)
	a := totalAlloc()
	t.mu.Lock()
	t.spans[id-1].trackAlloc, t.spans[id-1].alloc0 = true, a
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	track := t.spans[id-1].trackAlloc
	t.mu.Unlock()
	var a uint64
	if track {
		a = totalAlloc()
	}
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = now
	if track {
		s.Alloc = a - s.alloc0
	}
	t.mu.Unlock()
}

// durations returns the lengths of every closed span called name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// allocs returns the bytes allocated in each closed span called name.
func (t *tracer) allocs(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.Alloc))
		}
	}
	return out
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeFile writes every span as JSON to path.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// spanCost measures what recording one span costs, so the traced run
// can state its own overhead.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("probe", 0, int64(i)))
	}
	return time.Since(start) / n
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
