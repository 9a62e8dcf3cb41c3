package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Cell   string `json:"cell,omitempty"` // spans of one cell share it
	Start  int64  `json:"start_ns"`       // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer holds spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally at no cost.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, cell string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Cell: cell, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// byName returns the closed spans called name.
func (t *tracer) byName(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// durMS returns the durations of the spans called name, in milliseconds.
func (t *tracer) durMS(name string) []float64 {
	ss := t.byName(name)
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.dur().Nanoseconds()) / 1e6
	}
	return out
}

// sumMS is the summed duration of the spans called name.
func (t *tracer) sumMS(name string) float64 {
	var sum float64
	for _, d := range t.durMS(name) {
		sum += d
	}
	return sum
}

// selfMS returns each layer's self time: its spans' durations minus the
// part covered by their direct children (children of one span never
// overlap: a cell body runs on one goroutine).
func (t *tracer) selfMS() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		if s.End >= 0 {
			out[s.Name] += float64(s.End-s.Start-child[s.ID]) / 1e6
		}
	}
	return out
}

// write dumps every span as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("trace file: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	return path, nil
}
