// Command tcbench is the repository's end-to-end benchmark. It drives the
// anonymization service over its two serving paths — HTTP submit → queue →
// run → release bytes, and store file → ready engine — on inputs generated
// from a seed, verifies every output independently, and prints every
// metric by name with its unit and direction.
//
// Workloads:
//
//	sweep-cold  closed loop, one client: the paper's (alg, k, t) grid of
//	            cold, uncached jobs over a 6,000-row Patient Discharge table.
//	feed-warm   open loop: a writer sends append/delete epochs to a
//	            persistent 6,000-row dataset while a reader requests warm
//	            releases and repeats each one as an auditor.
//	restore-1M  restarts of a server over a store holding a 1,000,000-row
//	            dataset and a 200,000-row dataset with 50% deletions,
//	            alternating the materializing and the streaming open path.
//
// Usage, from the root of the repository:
//
//	bash tcbench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
//
// The human-readable report goes to standard error; the last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 the run is repeated with spans recorded around every call
// into a layer, and the metrics are the per-layer ones. The process exits
// non-zero when any output check fails.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/synth"
)

// endToEnd are the metrics every workload reports in the result line of an
// untraced run; perLayer those of a traced run. Each workload also prints
// its own, more specific metrics in the report on standard error.
var (
	endToEnd = []string{"setup_s", "peak_heap_mib", "op_p50_ms", "ops_per_s"}
	perLayer = []string{
		"serve.self_ms", "core.self_ms", "tclose.self_ms", "dataset.self_ms", "store.self_ms",
		"bench.verify_s", "bench.trace_overhead",
	}
)

// env is what every workload receives.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// capacity makes feed-warm search for the highest multiple of its
	// rate mix at which both generators keep to their schedule, instead of
	// running the benchmark.
	capacity bool
	workdir  string
	log      io.Writer
}

// phase is the outcome of one timed phase of a workload.
type phase struct {
	rep       *Report // end-to-end metrics, including the generic ones
	attempted int64
	failed    int64
}

// outcome is what a workload hands back to main.
type outcome struct {
	rep        *Report
	attempted  int64
	failed     int64
	correct    bool
	provenance map[string]string
}

type workload struct {
	name string
	why  string
	run  func(e *env) (*outcome, error)
}

var workloads = []workload{
	{"sweep-cold", "partition construction does nearly all the work; serve, store and result encoding do little", runSweep},
	{"feed-warm", "writes beside reads: warm repair keeps partitioning small, so result encoding, fsync and substrate rebuilds dominate", runFeed},
	{"restore-1M", "store decode, batching and substrate build do all the work over a working set far larger than feed-warm's", runRestore},
}

func main() {
	name := flag.String("workload", "", "workload to run: sweep-cold, feed-warm or restore-1M")
	seed := flag.Int64("seed", synth.DefaultSeed, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 repeats the timed phase with spans recorded and reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for stores and span files")
	capacity := flag.Bool("capacity", false, "feed-warm only: find the highest multiple of the rate mix the service keeps up with")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "tcbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "tcbench: --seconds must be at least 1")
		os.Exit(2)
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		workdir: *workdir, capacity: *capacity, log: os.Stderr}
	if err := os.MkdirAll(e.workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "tcbench: %v\n", err)
		os.Exit(1)
	}
	out, err := wl.run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}

	fmt.Fprintf(os.Stderr, "\nworkload %s (why: %s)\n", wl.name, wl.why)
	prov := provenance(e, out.provenance)
	keys := make([]string, 0, len(prov))
	for k := range prov {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  provenance %-22s %s\n", k, prov[k])
	}
	errRate := 0.0
	if out.attempted > 0 {
		errRate = float64(out.failed) / float64(out.attempted)
	}
	out.rep.Add(Metric{Name: "error_rate", Value: errRate, Unit: "ratio", Better: Lower,
		Base: fmt.Sprintf("%d failed, refused or timed out / %d attempted", out.failed, out.attempted)})
	out.rep.Print(os.Stderr)
	if e.capacity {
		return // a measurement for choosing the open-loop rates, not a result
	}

	names := endToEnd
	if e.trace {
		names = perLayer
	}
	line, err := resultLine(out.rep, names, out.correct, out.attempted, out.failed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.correct {
		fmt.Fprintln(os.Stderr, "tcbench: output verification FAILED")
		os.Exit(1)
	}
}

// provenance records what a reader needs to reproduce or compare a run.
func provenance(e *env, extra map[string]string) map[string]string {
	p := map[string]string{
		"seed":       fmt.Sprint(e.seed),
		"seconds":    fmt.Sprint(e.seconds.Seconds()),
		"traced":     fmt.Sprint(e.trace),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"go_version": runtime.Version(),
		"commit":     commit(),
	}
	for k, v := range extra {
		p[k] = v
	}
	return p
}

// commit is the VCS revision stamped into the binary, or "unknown" when
// it was built from a plain source tree.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// heapSampler tracks the peak of the live heap, sampled every few
// milliseconds from the runtime's own counters (no stop-the-world).
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.Reset()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// Reset starts a new peak from the current heap.
func (h *heapSampler) Reset() {
	h.peak.Store(0)
	h.sample()
}

// PeakMiB is the peak since the last Reset, in MiB.
func (h *heapSampler) PeakMiB() float64 {
	h.sample()
	return float64(h.peak.Load()) / (1 << 20)
}

// Stop ends sampling and waits for the sampler to exit.
func (h *heapSampler) Stop() {
	close(h.stop)
	h.wg.Wait()
}

// repeatSetup runs setup n times and reports the median wall time; the
// state of the last repetition is kept and the earlier ones are torn down.
func repeatSetup[S any](n int, setup func(rep int) (S, error), teardown func(S)) (S, float64, error) {
	var (
		state S
		times []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(state)
		}
		runtime.GC()
		t0 := time.Now()
		s, err := setup(i)
		if err != nil {
			return state, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		state = s
	}
	return state, Median(times), nil
}

// dataDir returns a fresh, empty directory for a store under the workdir.
func (e *env) dataDir(tag string) (string, error) {
	dir := filepath.Join(e.workdir, "data", fmt.Sprintf("%s-%d", tag, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// layerSelf adds the generic per-layer metrics: each layer's mean self
// time per call, over every span of the layer. A call's self time leaves
// out its children and the replays of the lower-layer work it does inside
// (see Span), so a change in one layer moves that layer's figure and not
// the figures of the layers above it. Replays are separate calls on the
// same inputs, so a layer whose own work is small next to its replays
// reads near 0, within their noise, and can read below it.
func layerSelf(rep *Report, agg map[string]*SpanStats) {
	self := make(map[string]time.Duration)
	calls := make(map[string]int)
	for _, st := range agg {
		self[st.Layer] += st.Self
		calls[st.Layer] += st.Count
	}
	for _, layer := range []string{"serve", "core", "tclose", "micro", "privacy", "metrics", "dataset", "store", "bench"} {
		n := calls[layer]
		if n == 0 {
			continue
		}
		rep.Add(Metric{Name: layer + ".self_ms", Value: float64(self[layer]) / float64(time.Millisecond) / float64(n),
			Unit: "ms", Better: Lower, Samples: n,
			Base: fmt.Sprintf("self time of the layer's %d calls (span minus children and replays) / %d", n, n)})
	}
}

// spanMetric adds the mean duration per call of the spans named span: the
// timing of the call, whatever layers it reaches.
func spanMetric(rep *Report, agg map[string]*SpanStats, span, metric string) {
	if st := agg[span]; st != nil && st.Count > 0 {
		rep.Add(Metric{Name: metric, Value: float64(st.Total) / float64(time.Millisecond) / float64(st.Count),
			Unit: "ms", Better: Lower, Samples: st.Count})
	}
}

// selfSpanMetric adds the mean self time per call of the spans named span.
func selfSpanMetric(rep *Report, agg map[string]*SpanStats, span, metric string) {
	if st := agg[span]; st != nil && st.Count > 0 {
		rep.Add(Metric{Name: metric, Value: float64(st.Self) / float64(time.Millisecond) / float64(st.Count),
			Unit: "ms", Better: Lower, Samples: st.Count, Note: "self time: span minus children and replays"})
	}
}

// countMetric adds a counter as a per-operation mean.
func countMetric(rep *Report, counts map[string]int64, name, unit string, per int, better Better) {
	v, ok := counts[name]
	if !ok {
		return
	}
	m := Metric{Name: name, Value: float64(v), Unit: unit, Better: better}
	if per > 0 {
		m.Value /= float64(per)
		m.Samples = per
	}
	rep.Add(m)
}

// traceOverhead records the traced value of a metric over its untraced
// value, with both printed as the base.
func traceOverhead(rep *Report, untraced, traced *Report, metric string) {
	u, okU := untraced.Get(metric)
	t, okT := traced.Get(metric)
	if !okU || !okT || u.Value == 0 {
		return
	}
	rep.Add(Metric{Name: "bench.trace_overhead", Value: t.Value / u.Value, Unit: "ratio", Better: Lower,
		Base: fmt.Sprintf("traced %s %.6g %s / untraced %.6g %s", metric, t.Value, t.Unit, u.Value, u.Unit)})
	for _, m := range traced.Metrics() {
		m.Name = "traced." + m.Name
		m.Note = "measured with tracing on; compare with the untraced value"
		rep.Add(m)
	}
}
