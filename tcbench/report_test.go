package main

import (
	"strings"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[n-1-i] = float64(i + 1) // unsorted on purpose
	}
	return s
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{9, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, v, ok := Tail(ramp(tc.n))
		if ok != tc.ok || p != tc.wantP {
			t.Errorf("n=%d: Tail = p%g ok=%v, want p%g ok=%v", tc.n, p, ok, tc.wantP, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		// Nearest rank over 1..n: the value is its own rank, and exactly
		// n-value samples lie beyond it.
		if beyond := tc.n - int(v); beyond < minBeyond {
			t.Errorf("n=%d: p%g = %g leaves %d samples beyond it", tc.n, p, v, beyond)
		}
	}
}

func TestAddTimingsReportsSampleCountAndFallback(t *testing.T) {
	rep := newReport()
	rep.addTimings("x_p50_ms", "x_p90_ms", 90, ramp(100), "ms")
	m, _ := rep.Get("x_p90_ms")
	if m.Value != 90 || m.Samples != 100 || m.Note != "" {
		t.Fatalf("p90 of 100 samples: %+v", m)
	}
	rep.addTimings("y_p50_ms", "y_p90_ms", 90, ramp(60), "ms")
	m, _ = rep.Get("y_p90_ms")
	if m.Value != 30.5 || m.Samples != 60 || !strings.Contains(m.Note, "reporting the median") {
		t.Fatalf("p90 of 60 samples should fall back to the median with a note: %+v", m)
	}
	med, _ := rep.Get("y_p50_ms")
	if med.Samples != 60 || med.Unit != "ms" || med.Better != Lower {
		t.Fatalf("median metric lacks its count, unit or direction: %+v", med)
	}
}

func TestResultLineCarriesEveryPromisedMetric(t *testing.T) {
	rep := newReport()
	rep.Add(Metric{Name: "a", Value: 1.5, Unit: "s", Better: Lower})
	if _, err := resultLine(rep, []string{"a", "b"}, true, 1, 0); err == nil {
		t.Fatal("missing metric not reported")
	}
	line, err := resultLine(rep, []string{"a"}, true, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":3,"failed":1,"metrics":{"a":{"value":1.5,"unit":"s"}}}`
	if string(line) != want {
		t.Fatalf("result line %s, want %s", line, want)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []Span{
		{Name: "bench.job", Start: 0, End: 100, Parent: -1, Of: -1},
		{Name: "serve.submit", Start: 10, End: 30, Parent: 0, Of: -1},
		{Name: "serve.poll", Start: 20, End: 40, Parent: 0, Of: -1},  // overlaps the submit
		{Name: "serve.poll", Start: 90, End: 120, Parent: 0, Of: -1}, // runs past the parent
	}
	agg := tr.Aggregate()
	if got := agg["bench.job"].Self; got != 100-30-10 {
		t.Fatalf("self time %d, want 60", got)
	}
	if agg["serve.poll"].Count != 2 || agg["serve.poll"].Layer != "serve" {
		t.Fatalf("poll stats %+v", agg["serve.poll"])
	}
}

func TestSelfTimeSubtractsReplays(t *testing.T) {
	tr := newTracer()
	tr.spans = []Span{
		{Name: "core.run.alg1", Start: 0, End: 100, Parent: -1, Of: -1},
		// Replays of the run's inner work, made after it.
		{Name: "tclose.partition.alg1", Start: 200, End: 260, Parent: -1, Of: 0},
		{Name: "micro.mdav", Start: 260, End: 300, Parent: -1, Of: 1},
		{Name: "metrics.sse", Start: 300, End: 310, Parent: -1, Of: 0},
		// A probe of its own, replaying nothing.
		{Name: "tclose.prepare", Start: 400, End: 430, Parent: -1, Of: -1},
	}
	agg := tr.Aggregate()
	for name, want := range map[string]time.Duration{
		"core.run.alg1": 100 - 60 - 10, "tclose.partition.alg1": 60 - 40, "micro.mdav": 40, "tclose.prepare": 30,
	} {
		if got := agg[name].Self; got != want {
			t.Errorf("%s self %d, want %d", name, got, want)
		}
	}
	rep := newReport()
	layerSelf(rep, agg)
	// tclose: (20 + 30) ns over its 2 calls.
	if m, ok := rep.Get("tclose.self_ms"); !ok || m.Samples != 2 || m.Value != 25e-6 {
		t.Fatalf("tclose.self_ms %+v", m)
	}
}
