package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call from the benchmark into a layer of the system.
// Spans of one request share Req; Parent is the index of the span that
// caused this one, -1 for a root.
//
// A call into one layer often does the work of lower layers without any
// span of its own inside it (Engine.Run partitions, aggregates and
// assesses). A replay is a span that re-runs one such inner part on the
// same inputs, outside the call; Of is the index of the call it stands in
// for, -1 for a span that replays nothing. A call's self time excludes its
// replays as it excludes its children.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Of     int    `json:"replay_of"`
	Req    int64  `json:"req"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing and costs one nil check per call, which is how untraced runs
// use it.
type Tracer struct {
	origin time.Time

	mu     sync.Mutex
	spans  []Span
	counts map[string]int64
}

func newTracer() *Tracer {
	return &Tracer{origin: time.Now(), counts: make(map[string]int64)}
}

// Begin opens a span and returns its handle for End; parent is the handle
// of the enclosing span or -1.
func (t *Tracer) Begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: now, End: -1, Parent: parent, Of: -1, Req: req})
	return len(t.spans) - 1
}

// Replay runs fn inside a span that replays part of the work of span of;
// with of < 0 it is Do without a parent.
func (t *Tracer) Replay(name string, of int, fn func(id int) error) error {
	id := t.Begin(name, -1, -1)
	if id >= 0 && of >= 0 {
		t.mu.Lock()
		t.spans[id].Of = of
		t.mu.Unlock()
	}
	err := fn(id)
	t.End(id)
	return err
}

// End closes the span opened by Begin.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Do runs fn inside a span.
func (t *Tracer) Do(name string, parent int, req int64, fn func(id int) error) error {
	id := t.Begin(name, parent, req)
	err := fn(id)
	t.End(id)
	return err
}

// Count adds n to a named counter recorded at a layer boundary.
func (t *Tracer) Count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// SpanStats is the aggregate of every span of one name.
type SpanStats struct {
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // sum of durations minus the time children cover
	Layer string
}

// Aggregate sums spans by name. A span's self time is its duration minus
// the union of its children's intervals and minus the durations of its
// replays.
func (t *Tracer) Aggregate() map[string]*SpanStats {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]int)
	replayed := make(map[int]time.Duration)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
		if s.Of >= 0 && s.End >= 0 {
			replayed[s.Of] += time.Duration(s.End - s.Start)
		}
	}
	out := make(map[string]*SpanStats)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &SpanStats{Layer: layerOf(s.Name)}
			out[s.Name] = st
		}
		dur := time.Duration(s.End - s.Start)
		st.Count++
		st.Total += dur
		st.Self += dur - covered(spans, children[i], s.Start, s.End) - replayed[i]
	}
	return out
}

// covered is the length of the union of the child intervals, clipped to
// [lo, hi].
func covered(spans []Span, kids []int, lo, hi int64) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if b < 0 {
			continue
		}
		a, b = max(a, lo), min(b, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, curA, curB int64
	curB = -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				sum += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		sum += curB - curA
	}
	return time.Duration(sum)
}

// layerOf is the layer a span name belongs to: its first dotted component.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// Counts returns a copy of the recorded counters.
func (t *Tracer) Counts() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.counts))
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}

// WriteFile writes every span and counter as one JSON document.
func (t *Tracer) WriteFile(path string) error {
	t.mu.Lock()
	doc := map[string]any{"spans": t.spans, "counts": t.counts}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
