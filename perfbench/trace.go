package main

import (
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around a public function of the program. Parent is the index of the
// span that caused it, or -1 for a root.
type span struct {
	Name   string
	Layer  string
	Parent int
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory for one traced run. It is safe for
// concurrent use; spans are only read after the run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name, layer string, parent int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a closed child span of known duration ending now, for
// time measured on the far side of a boundary (the daemon's own
// elapsed_ns, the program's existing stage timers).
func (t *tracer) record(name, layer string, parent int, d time.Duration) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Parent: parent, Start: now - d, End: now})
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name, layer string, parent int, fn func() error) error {
	id := t.begin(name, layer, parent)
	defer t.end(id)
	return fn()
}

// layerSelf sums each layer's self time: a span's duration minus the
// part its direct children cover. Open spans are ignored.
func (t *tracer) layerSelf() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - child[i]
		if self < 0 {
			self = 0
		}
		out[s.Layer] += self
	}
	return out
}

// duration is span id's length, or 0 while it is open.
func (t *tracer) duration(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.spans[id]; s.End >= 0 {
		return s.End - s.Start
	}
	return 0
}

// coverage is the share of wall that layer self times account for;
// the benchmark's own root spans (layer "bench") do not count.
func (t *tracer) coverage(wall time.Duration) float64 {
	var covered time.Duration
	for layer, d := range t.layerSelf() {
		if layer != "bench" {
			covered += d
		}
	}
	return ratio(covered.Seconds(), wall.Seconds())
}
