package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval: a page view, an HTTP call inside it, or
// an origin request. Times are microseconds from the start of the
// traced window.
type span struct {
	ID      uint64  `json:"id"`
	Parent  uint64  `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// tracer keeps spans in memory; they are written out once, after the
// window.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) record(parent uint64, name string, start, end time.Time) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{
		ID: t.next, Parent: parent, Name: name,
		StartUS: float64(start.Sub(t.t0)) / float64(time.Microsecond),
		DurUS:   float64(end.Sub(start)) / float64(time.Microsecond),
	})
	return t.next
}

// recordView records a page view span with one child per HTTP call.
// Calls of personalized sessions are named "<kind>.personal".
func (t *tracer) recordView(v viewResult) {
	id := t.record(0, "pageview", v.start, v.end)
	for _, c := range v.calls {
		name := c.kind
		if v.personal {
			name += ".personal"
		}
		t.record(id, name, c.start, c.start.Add(c.dur))
	}
}

// durMS lists the durations of the spans with this name, in ms.
func (t *tracer) durMS(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.DurUS/1000)
		}
	}
	return out
}

// write saves the spans and the run's fingerprint as one JSON document.
func (t *tracer) write(path string, fp map[string]string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Fingerprint map[string]string `json:"fingerprint"`
		Spans       []span            `json:"spans"`
	}{fp, t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
