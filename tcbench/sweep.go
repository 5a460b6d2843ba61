package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/micro"
	"repro/internal/privacy"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/tclose"
)

// sweepRows is the table size of sweep-cold. The paper's full 23,435 rows
// would make one cold Algorithm 2 job alone take longer than a run.
const sweepRows = 6000

// sweepPassSeconds is about how long one pass over the grid takes on a
// 2-vCPU Intel Xeon container. A run makes a fixed number of passes,
// seconds/sweepPassSeconds rounded, so every run does the same work.
const sweepPassSeconds = 7.0

// sweepSetups is the number of set-ups a run times; a set-up takes some
// 15 ms, so its median needs more of them than the other workloads'.
const sweepSetups = 9

func sweepPasses(e *env) int { return max(1, int(math.Round(e.seconds.Seconds()/sweepPassSeconds))) }

// gridPoint is one (algorithm, k, t) point of the paper's evaluation grid.
type gridPoint struct {
	alg string
	k   int
	t   float64
}

// sweepGrid is the paper's grid: Algorithms 1-3 × k ∈ {2, 5} ×
// t ∈ {0.05, 0.13, 0.25}, 18 jobs per pass.
func sweepGrid() []gridPoint {
	var g []gridPoint
	for _, alg := range []string{"alg1", "alg2", "alg3"} {
		for _, k := range []int{2, 5} {
			for _, t := range []float64{0.05, 0.13, 0.25} {
				g = append(g, gridPoint{alg, k, t})
			}
		}
	}
	return g
}

type sweepState struct {
	tables []*dataset.Table // one per pass, each from its own seed
	byName map[string]*dataset.Table
	dir    string
	srv    *liveServer
	ready  string // the registered dataset of the first pass, not yet used
}

// freshDataset registers the table of a pass under a name no job has run
// on: the engine keeps partitions that depend on fewer parameters than
// (alg, k, t) across runs, so every pass starts on a newly registered
// dataset and measures the same thing — a first sweep over a dataset.
func (s *sweepState) freshDataset(pass int) (string, error) {
	if name := s.ready; name != "" && pass == 0 {
		s.ready = ""
		return name, nil
	}
	name := fmt.Sprintf("pd-sweep-%d", len(s.byName))
	tbl := s.tables[pass%len(s.tables)]
	if err := s.srv.srv.RegisterDataset(name, tbl); err != nil {
		return "", fmt.Errorf("registering %s: %w", name, err)
	}
	s.byName[name] = tbl
	return name, nil
}

func (s *sweepState) close() {
	s.srv.Close()
	_ = os.RemoveAll(s.dir)
}

func runSweep(e *env) (*outcome, error) {
	st, setupS, err := repeatSetup(sweepSetups, func(rep int) (*sweepState, error) {
		// Each pass sweeps its own table, so a run averages over several
		// draws of the data instead of riding on one.
		tables := make([]*dataset.Table, sweepPasses(e))
		for i := range tables {
			tables[i] = synth.PatientDischarge(sweepRows, e.seed+int64(i))
		}
		dir, err := e.dataDir(fmt.Sprintf("sweep%d", rep))
		if err != nil {
			return nil, err
		}
		fb, err := store.NewFileBackend(dir)
		if err != nil {
			return nil, err
		}
		srv, err := startServer(serve.Config{Store: fb})
		if err != nil {
			return nil, err
		}
		st := &sweepState{tables: tables, byName: map[string]*dataset.Table{}, dir: dir, srv: srv}
		if st.ready, err = st.freshDataset(0); err != nil {
			st.close()
			return nil, err
		}
		return st, nil
	}, (*sweepState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()

	ph, rels, err := sweepPhase(e, st, nil)
	if err != nil {
		return nil, err
	}
	ph.rep.Add(Metric{Name: "setup_s", Value: setupS, Unit: "s", Better: Lower, Samples: sweepSetups,
		Note: fmt.Sprintf("median of %d set-ups: generate the tables, start a persistent server, register the first pass's dataset", sweepSetups)})
	out := &outcome{rep: ph.rep, attempted: ph.attempted, failed: ph.failed, provenance: map[string]string{
		"n":      fmt.Sprint(sweepRows),
		"loop":   "closed, 1 client, 1 connection",
		"jobs":   "alg1/alg2/alg3 x k{2,5} x t{0.05,0.13,0.25}, cold, uncached, assessed",
		"passes": fmt.Sprintf("%d of %d jobs, pass p on PatientDischarge(n, seed+p)", sweepPasses(e), len(sweepGrid())),
	}}

	if e.trace {
		tr := newTracer()
		tp, trels, err := sweepPhase(e, st, tr)
		if err != nil {
			return nil, err
		}
		rels = append(rels, trels...)
		if err := sweepProbes(st.tables[0], tr, e); err != nil {
			return nil, err
		}
		out.attempted += tp.attempted
		out.failed += tp.failed
		agg := tr.Aggregate()
		sweepLayers(out.rep, agg, tr.Counts())
		traceOverhead(out.rep, ph.rep, tp.rep, "op_p50_ms")
		if err := tr.WriteFile(filepath.Join(e.workdir, fmt.Sprintf("spans-sweep-cold-%d.json", e.seed))); err != nil {
			return nil, err
		}
	}

	t0 := time.Now()
	v := verifyReleases(rels, func(name string, _ int) (*dataset.Table, error) {
		if t := st.byName[name]; t != nil {
			return t, nil
		}
		return nil, fmt.Errorf("release of unknown dataset %s", name)
	})
	out.rep.Add(Metric{Name: "bench.verify_s", Value: time.Since(t0).Seconds(), Unit: "s", Better: Lower,
		Samples: v.Checked, Note: "untimed independent checks of every release"})
	out.correct = reportVerification(e, out.rep, v, len(rels))
	out.provenance["release_digest"] = v.Digest
	return out, nil
}

// reportVerification prints the verifier's verdict and returns it.
func reportVerification(e *env, rep *Report, v verification, total int) bool {
	fmt.Fprintf(e.log, "verified %d releases in full and %d byte-identical repeats (of %d served); digest %s\n",
		v.Checked, v.Repeats, total, v.Digest)
	for _, f := range v.Failures {
		fmt.Fprintf(e.log, "VERIFY FAILED: %s\n", f)
	}
	rep.Add(Metric{Name: "bench.verify_failures", Value: float64(len(v.Failures)), Unit: "count", Better: Lower})
	return v.ok() && v.Checked+v.Repeats > 0
}

// sweepPhase runs the run's passes over the grid, one job at a time, each
// pass on a fresh dataset. Registering and removing the per-pass datasets
// is not timed.
func sweepPhase(e *env, st *sweepState, tr *Tracer) (*phase, []release, error) {
	c := newClient(st.srv.base)
	defer c.Close()
	grid := sweepGrid()
	heap := startHeapSampler()
	defer heap.Stop()

	var (
		lat, queue, run, submit, fetch, sse []float64
		peaks, passMean                     []float64
		bytes, polls                        int
		rels                                []release
		fetches                             []fetched
		attempted, failed                   int64
		busy                                time.Duration
	)
	for pass := 0; pass < sweepPasses(e); pass++ {
		name, err := st.freshDataset(pass)
		if err != nil {
			return nil, nil, err
		}
		passStart := len(lat)
		start := time.Now()
		for i, p := range grid {
			req := int64(pass*len(grid) + i)
			attempted++
			heap.Reset()
			t0 := time.Now()
			root := tr.Begin("bench.job", -1, req)
			o, err := c.runJob(tr, root, req, jobRequest{Dataset: name, Algorithm: p.alg, K: p.k, T: p.t,
				Cold: true, NoCache: true})
			tr.End(root)
			if err != nil {
				failed++
				fmt.Fprintf(e.log, "job failed: %v\n", err)
				continue
			}
			lat = append(lat, float64(o.LastByte.Sub(t0))/float64(time.Millisecond))
			peaks = append(peaks, heap.PeakMiB())
			queue = append(queue, o.Status.queueWaitMs())
			run = append(run, o.Status.RunMs)
			submit = append(submit, o.SubmitMs)
			fetch = append(fetch, o.FetchMs)
			sse = append(sse, o.Result.SSE)
			bytes += o.ResultBytes
			polls += o.Polls
			rels = append(rels, releaseOf(o.Result))
			if tr != nil {
				fetches = append(fetches, fetched{o.FetchSpan, o.Result.ReleaseCSV})
			}
		}
		busy += time.Since(start)
		if n := len(lat) - passStart; n > 0 {
			passMean = append(passMean, Mean(lat[passStart:]))
		}
		if err := c.removeDataset(name); err != nil {
			return nil, nil, fmt.Errorf("removing %s: %w", name, err)
		}
	}
	elapsed := busy.Seconds()
	done := len(lat)

	rep := newReport()
	rep.Add(Metric{Name: "jobs_per_s", Value: float64(done) / elapsed, Unit: "1/s", Better: Higher, Samples: done,
		Note: fmt.Sprintf("verified cold releases at n=%d", sweepRows)})
	rep.Add(Metric{Name: "ops_per_s", Value: float64(done) / elapsed, Unit: "1/s", Better: Higher, Samples: done,
		Note: "= jobs_per_s"})
	// The jobs of a pass differ in cost by an order of magnitude, so the
	// median job sits on a boundary between algorithms that moves with the
	// data. The mean latency of a pass's jobs does not: op_p50_ms is its
	// median over passes.
	rep.Add(Metric{Name: "op_p50_ms", Value: Median(passMean), Unit: "ms", Better: Lower, Samples: len(passMean),
		Note: "median over passes of the mean job latency, submit to last byte of the release"})
	rep.addTimings("job_latency_p50_ms", "job_latency_p90_ms", 90, lat, "ms")
	rep.Add(Metric{Name: "sse_mean", Value: Mean(sse), Unit: "ratio", Better: Lower, Samples: len(sse),
		Base: "normalized SSE (paper Eq. 5), mean over releases"})
	rep.Add(Metric{Name: "peak_heap_mib", Value: Mean(peaks), Unit: "MiB", Better: Lower, Samples: len(peaks),
		Note: "heap sampled every 2 ms; the mean over jobs of each job's peak"})
	rep.addTimings("serve.queue_wait_ms", "", 0, queue, "ms")
	rep.addTimings("serve.run_ms", "", 0, run, "ms")
	rep.addTimings("serve.submit_ms", "", 0, submit, "ms")
	rep.addTimings("serve.result_fetch_ms", "", 0, fetch, "ms")
	if done > 0 {
		rep.Add(Metric{Name: "serve.result_bytes", Value: float64(bytes) / float64(done), Unit: "bytes", Better: Lower, Samples: done})
		rep.Add(Metric{Name: "serve.polls_per_job", Value: float64(polls) / float64(done), Unit: "count", Better: Lower, Samples: done})
	}
	if m, err := c.metrics(); err == nil {
		rep.Add(Metric{Name: "serve.shed", Value: float64(m.Shed), Unit: "count", Better: Lower})
		rep.Ratio("serve.cache_hit_ratio", m.CacheHits, m.CacheHits+m.CacheMisses, "hits", "lookups")
		rep.Ratio("serve.warm_hit_ratio", m.WarmHits, m.WarmHits+m.WarmMisses, "warm hits", "warm-eligible runs")
	}
	if err := replayFetches(tr, fetches); err != nil {
		return nil, nil, err
	}
	return &phase{rep: rep, attempted: attempted, failed: failed}, rels, nil
}

func releaseOf(r jobResult) release {
	return release{Dataset: r.Dataset, Epoch: r.Epoch, Alg: r.Algorithm, K: r.K, T: r.T,
		Cached: r.Cached, SSE: r.SSE, CSV: r.ReleaseCSV}
}

// sweepProbes calls the engine directly on the sweep's table, one pass of
// Engine.Run over the grid, and replays what each call does inside on the
// same inputs: tclose.Prepare for the engine's substrate; for each run the
// partition (on one shared Prepared, so the per-k MDAV and alg3 caches
// behave as the engine's do), aggregation, assessment and SSE; and MDAV
// inside the first Algorithm 1 partition of each k.
func sweepProbes(tbl *dataset.Table, tr *Tracer, e *env) error {
	ctx := context.Background()
	newEng := tr.Begin("core.new_engine", -1, -1)
	eng, err := core.NewEngine(tbl)
	tr.End(newEng)
	if err != nil {
		return err
	}
	var prep *tclose.Prepared
	if err := tr.Replay("tclose.prepare", newEng, func(int) error {
		var err error
		prep, err = tclose.Prepare(tbl)
		if err == nil {
			prep.Matrix().EnableIndexCache()
		}
		return err
	}); err != nil {
		return err
	}
	mdavDone := make(map[int]bool)
	for _, p := range sweepGrid() {
		alg, _ := core.ParseAlgorithm(p.alg)
		sp := tr.Begin("core.run."+p.alg, -1, -1)
		res, err := eng.Run(ctx, core.Spec{Algorithm: alg, K: p.k, T: p.t})
		tr.End(sp)
		if err != nil {
			return err
		}
		tr.Count("core.merges", int64(res.Merges))
		tr.Count("core.swaps", int64(res.Swaps))
		tr.Count("core.clusters", int64(len(res.Clusters)))
		tr.Count("core.runs", 1)

		part, clusters, err := partitionReplay(tr, sp, prep, p)
		if err != nil {
			return err
		}
		if p.alg == "alg1" && !mdavDone[p.k] {
			mdavDone[p.k] = true
			if err := tr.Replay("micro.mdav", part, func(int) error {
				_, err := micro.MDAVMatrixCtx(ctx, prep.Matrix(), p.k)
				return err
			}); err != nil {
				return err
			}
		}
		if err := releaseReplay(tr, sp, tbl, clusters); err != nil {
			return err
		}
	}

	dir, err := e.dataDir("sweep-probe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fb, err := store.NewFileBackend(dir)
	if err != nil {
		return err
	}
	if err := tr.Do("store.write", -1, -1, func(int) error { return store.Write(fb, "probe", tbl) }); err != nil {
		return err
	}
	if err := tr.Do("store.open", -1, -1, func(int) error { _, _, err := fb.Open("probe"); return err }); err != nil {
		return err
	}
	if fi, err := os.Stat(filepath.Join(dir, "probe.tcs")); err == nil {
		tr.Count("store.file_bytes", fi.Size())
	}
	return nil
}

// partitionReplay replays the partition of one grid point as part of the
// engine run of span of, and returns its span and clusters.
func partitionReplay(tr *Tracer, of int, prep *tclose.Prepared, p gridPoint) (int, []micro.Cluster, error) {
	run := tclose.Run{Ctx: context.Background()}
	var (
		res  *tclose.Result
		span int
	)
	err := tr.Replay("tclose.partition."+p.alg, of, func(id int) error {
		span = id
		var err error
		switch p.alg {
		case "alg1":
			res, err = prep.Algorithm1(run, p.k, p.t, nil)
		case "alg2":
			res, err = prep.Algorithm2(run, p.k, p.t)
		default:
			res, err = prep.Algorithm3(run, p.k, p.t)
		}
		return err
	})
	if err != nil {
		return -1, nil, err
	}
	return span, res.Clusters, nil
}

// releaseReplay replays the rest of an engine run after its partition —
// aggregation, assessment and SSE — as part of the run of span of.
func releaseReplay(tr *Tracer, of int, tbl *dataset.Table, clusters []micro.Cluster) error {
	var anon *dataset.Table
	if err := tr.Replay("micro.aggregate", of, func(int) error {
		var err error
		anon, err = micro.Aggregate(tbl, clusters)
		return err
	}); err != nil {
		return err
	}
	if err := tr.Replay("privacy.assess", of, func(int) error {
		if _, err := privacy.TClosenessOf(tbl, clusters); err != nil {
			return err
		}
		_, err := privacy.LDiversityOf(tbl, clusters)
		return err
	}); err != nil {
		return err
	}
	return tr.Replay("metrics.sse", of, func(int) error {
		_, err := metrics.NormalizedSSE(tbl, anon)
		return err
	})
}

// fetched is a traced result fetch: its span and the release it carried.
type fetched struct {
	span int
	csv  string
}

// replayFetches re-encodes the release of every traced result fetch — the
// dataset.WriteCSV the server runs inside each fetch — as a replay of the
// fetch. Parsing the release back into a table is not timed.
func replayFetches(tr *Tracer, fs []fetched) error {
	for _, f := range fs {
		tbl, err := dataset.ReadCSV(strings.NewReader(f.csv))
		if err != nil {
			return err
		}
		if err := tr.Replay("dataset.write_csv", f.span, func(int) error {
			var sb strings.Builder
			err := tbl.WriteCSV(&sb)
			tr.Count("dataset.release_csv_bytes", int64(sb.Len()))
			tr.Count("dataset.releases", 1)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// sweepLayers adds the per-layer metrics of a traced sweep.
func sweepLayers(rep *Report, agg map[string]*SpanStats, counts map[string]int64) {
	layerSelf(rep, agg)
	for _, n := range []string{"serve.submit", "serve.poll", "serve.result_fetch"} {
		spanMetric(rep, agg, n, "traced."+n+"_ms")
	}
	for _, alg := range []string{"alg1", "alg2", "alg3"} {
		spanMetric(rep, agg, "core.run."+alg, "core.run_ms."+alg)
		spanMetric(rep, agg, "tclose.partition."+alg, "tclose.partition_ms."+alg)
	}
	spanMetric(rep, agg, "core.new_engine", "core.new_engine_ms")
	spanMetric(rep, agg, "tclose.prepare", "tclose.prepare_ms")
	spanMetric(rep, agg, "micro.mdav", "micro.mdav_ms")
	spanMetric(rep, agg, "micro.aggregate", "micro.aggregate_ms")
	spanMetric(rep, agg, "privacy.assess", "privacy.assess_ms")
	spanMetric(rep, agg, "metrics.sse", "metrics.sse_ms")
	spanMetric(rep, agg, "dataset.write_csv", "dataset.write_csv_ms")
	spanMetric(rep, agg, "store.write", "store.write_ms")
	spanMetric(rep, agg, "store.open", "store.open_ms")
	runs := int(counts["core.runs"])
	countMetric(rep, counts, "core.merges", "count", runs, Lower)
	countMetric(rep, counts, "core.swaps", "count", runs, Lower)
	countMetric(rep, counts, "core.clusters", "count", runs, Higher)
	countMetric(rep, counts, "dataset.release_csv_bytes", "bytes", int(counts["dataset.releases"]), Lower)
	countMetric(rep, counts, "store.file_bytes", "bytes", 0, Lower)
}
