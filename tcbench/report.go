package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Better is the direction in which a metric improves.
type Better string

const (
	Lower  Better = "lower"
	Higher Better = "higher"
)

// Metric is one reported number. Every metric carries its unit and the
// direction in which it improves, so a size never hides in a time field;
// a ratio names its base, and a timing names its sample count.
type Metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Better  Better  `json:"better"`
	Samples int     `json:"samples,omitempty"`
	// Base describes the denominator of a ratio, e.g. "12 hits / 40 lookups".
	Base string `json:"base,omitempty"`
	// Note flags anything a reader must know before trusting the value.
	Note string `json:"note,omitempty"`
}

// Report collects the metrics of one run in the order they were added.
type Report struct {
	metrics []Metric
	index   map[string]int
}

func newReport() *Report { return &Report{index: make(map[string]int)} }

// Add records a metric; a second metric of the same name replaces the first.
func (r *Report) Add(m Metric) {
	if i, ok := r.index[m.Name]; ok {
		r.metrics[i] = m
		return
	}
	r.index[m.Name] = len(r.metrics)
	r.metrics = append(r.metrics, m)
}

// Get returns the metric of that name.
func (r *Report) Get(name string) (Metric, bool) {
	i, ok := r.index[name]
	if !ok {
		return Metric{}, false
	}
	return r.metrics[i], true
}

// Metrics returns every recorded metric in insertion order.
func (r *Report) Metrics() []Metric { return r.metrics }

// Ratio records num/den as a metric whose base names both counts. A zero
// denominator records 0 with the base saying so.
func (r *Report) Ratio(name string, num, den int64, numWhat, denWhat string) {
	v := 0.0
	if den > 0 {
		v = float64(num) / float64(den)
	}
	r.Add(Metric{Name: name, Value: v, Unit: "ratio", Better: Higher,
		Base: fmt.Sprintf("%d %s / %d %s", num, numWhat, den, denWhat)})
}

// Print writes one line per metric: name, value, unit, direction, and
// the sample count, base and note where present.
func (r *Report) Print(w io.Writer) {
	for _, m := range r.metrics {
		line := fmt.Sprintf("  %-34s %14.6g %-7s (%s is better", m.Name, m.Value, m.Unit, m.Better)
		if m.Samples > 0 {
			line += fmt.Sprintf(", n=%d", m.Samples)
		}
		line += ")"
		if m.Base != "" {
			line += " base: " + m.Base
		}
		if m.Note != "" {
			line += " NOTE: " + m.Note
		}
		fmt.Fprintln(w, line)
	}
}

// percentileLadder is the set of percentiles a timing may be reported at.
var percentileLadder = []float64{50, 90, 95, 99, 99.9}

// minBeyond is the number of samples that must lie above a reported
// percentile for it to mean anything.
const minBeyond = 10

// rankIndex is the nearest-rank index of percentile p over n sorted samples.
func rankIndex(p float64, n int) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// Percentile returns the nearest-rank p-th percentile of samples and
// whether at least minBeyond samples lie beyond it.
func Percentile(samples []float64, p float64) (float64, bool) {
	if len(samples) == 0 {
		return 0, false
	}
	s := sortedCopy(samples)
	i := rankIndex(p, len(s))
	return s[i], len(s)-1-i >= minBeyond
}

// Tail returns the highest percentile of the ladder with at least
// minBeyond samples beyond it, and its value; ok is false when even the
// median lacks them.
func Tail(samples []float64) (p, value float64, ok bool) {
	s := sortedCopy(samples)
	for _, q := range percentileLadder {
		i := rankIndex(q, len(s))
		if len(s)-1-i < minBeyond {
			break
		}
		p, value, ok = q, s[i], true
	}
	return p, value, ok
}

// Median is the middle value (the mean of the two middle values for an
// even count); 0 for no samples.
func Median(samples []float64) float64 {
	s := sortedCopy(samples)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Mean is the arithmetic mean; 0 for no samples.
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// addTimings records the median of a latency sample set under medianName
// and, when tailName is set, its tailP-th percentile — provided enough
// samples lie beyond it. When they do not, the tail metric reports the
// highest percentile that has them and says so in its note.
func (r *Report) addTimings(medianName, tailName string, tailP float64, samples []float64, unit string) {
	med := Metric{Name: medianName, Value: Median(samples), Unit: unit, Better: Lower, Samples: len(samples)}
	if _, ok := Percentile(samples, 50); !ok {
		med.Note = fmt.Sprintf("only %d samples: fewer than %d lie beyond the median", len(samples), minBeyond)
	}
	r.Add(med)
	if tailName == "" {
		return
	}
	if v, ok := Percentile(samples, tailP); ok {
		r.Add(Metric{Name: tailName, Value: v, Unit: unit, Better: Lower, Samples: len(samples)})
		return
	}
	p, v, ok := Tail(samples)
	note := fmt.Sprintf("only %d samples: p%g needs %d beyond it", len(samples), tailP, minBeyond)
	if ok && p > 50 {
		note += fmt.Sprintf("; reporting p%g instead", p)
	} else {
		v = Median(samples)
		note += "; reporting the median"
	}
	r.Add(Metric{Name: tailName, Value: v, Unit: unit, Better: Lower, Samples: len(samples), Note: note})
}

// Result is the last line the benchmark prints.
type Result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]ResultValue `json:"metrics"`
}

// ResultValue is one metric in the result line.
type ResultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine picks the named metrics out of the report. A missing name is
// an error: the result line must carry every metric it promises.
func resultLine(rep *Report, names []string, correct bool, attempted, failed int64) ([]byte, error) {
	res := Result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]ResultValue)}
	for _, n := range names {
		m, ok := rep.Get(n)
		if !ok {
			return nil, fmt.Errorf("metric %q was not measured", n)
		}
		res.Metrics[n] = ResultValue{Value: m.Value, Unit: m.Unit}
	}
	return json.Marshal(res)
}
