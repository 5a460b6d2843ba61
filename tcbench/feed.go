package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/tclose"
)

const (
	feedRows    = 6000
	feedBatch   = 60 // rows per append epoch, and row ids per delete epoch
	feedDataset = "pd-feed"
	feedK       = 2
	feedT       = 0.13
)

// capacityMix is the ratio of release requests to epochs per second that
// feed-warm offers; tcbench -capacity scales it to find the capacity.
var capacityMix = [2]float64{4, 3}

// Open-loop rates of feed-warm: half of the capacity that tcbench
// -capacity measured at the capacityMix ratio on a 2-vCPU Intel Xeon
// container (10 s steps: 16 releases/s + 12 epochs/s kept to schedule,
// 20 + 15 fell behind).
const (
	feedReadCapacity  = 16.0
	feedEpochCapacity = 12.0
	feedReadRate      = feedReadCapacity / 2
	feedEpochRate     = feedEpochCapacity / 2
)

// every is the send interval of a rate in events per second.
func every(rate float64) time.Duration { return time.Duration(float64(time.Second) / rate) }

var feedAlgs = []string{"alg1", "alg2", "alg3"}

// feedOp is one scheduled epoch: an append of fresh rows or a delete of
// live row ids. The sequence is fixed by the seed before the run starts.
type feedOp struct {
	rows [][]float64 // append epoch
	ids  []int       // delete epoch
}

// planFeed draws n epochs alternating appends of rows past the base (taken
// in order from pool) and deletes of distinct live row ids, so the live
// size stays within one batch of the base.
func planFeed(pool *dataset.Table, base, n int, seed int64) []feedOp {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	ops := make([]feedOp, n)
	live, next := base, base
	for i := range ops {
		if i%2 == 0 {
			rows := make([][]float64, feedBatch)
			for j := range rows {
				rows[j] = pool.Row(next)
				next++
			}
			ops[i].rows = rows
			live += feedBatch
			continue
		}
		ids := rng.Perm(live)[:feedBatch]
		sort.Ints(ids)
		ops[i].ids = ids
		live -= feedBatch
	}
	return ops
}

// anyRows converts rows to the value form the append API takes.
func anyRows(rows [][]float64) [][]any {
	out := make([][]any, len(rows))
	for r, vals := range rows {
		out[r] = make([]any, len(vals))
		for c, v := range vals {
			out[r][c] = v
		}
	}
	return out
}

// applyOp returns the table after one epoch, built the way the engine
// builds it (appended rows at the end, deleted rows dropped in order).
func applyOp(t *dataset.Table, op feedOp) (*dataset.Table, error) {
	if op.rows != nil {
		out := t.Clone()
		for _, r := range op.rows {
			if err := out.AppendNumericRow(r...); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	drop := make(map[int]bool, len(op.ids))
	for _, id := range op.ids {
		drop[id] = true
	}
	keep := make([]int, 0, t.Len())
	for r := 0; r < t.Len(); r++ {
		if !drop[r] {
			keep = append(keep, r)
		}
	}
	return t.Subset(keep)
}

// replayer reconstructs the dataset at any epoch from the base and the
// epochs the server acknowledged.
type replayer struct {
	base *dataset.Table
	ops  []feedOp
	cur  *dataset.Table
	at   int
}

func (r *replayer) tableAt(_ string, epoch int) (*dataset.Table, error) {
	if epoch > len(r.ops) {
		return nil, fmt.Errorf("epoch %d was never acknowledged (%d epochs applied)", epoch, len(r.ops))
	}
	if r.cur == nil || epoch < r.at {
		r.cur, r.at = r.base, 0
	}
	for r.at < epoch {
		t, err := applyOp(r.cur, r.ops[r.at])
		if err != nil {
			return nil, err
		}
		r.cur = t
		r.at++
	}
	return r.cur, nil
}

type feedState struct {
	base  *dataset.Table
	pool  *dataset.Table
	plan  []feedOp
	dir   string
	srv   *liveServer
	seeds []release // the cold seed releases of set-up, at epoch 0
}

func (s *feedState) close() {
	s.srv.Close()
	_ = os.RemoveAll(s.dir)
}

// feedPlanLen bounds the epochs a run can send: one timed phase, or two
// when the run is traced.
func feedPlanLen(e *env) int {
	n := int(e.seconds.Seconds()*feedEpochRate) + 2
	if e.trace || e.capacity {
		n *= 2
	}
	if e.capacity {
		n = int(e.seconds.Seconds()*capacityMix[1]*32) + 2
	}
	return n
}

func setupFeed(e *env, rep int) (*feedState, error) {
	n := feedPlanLen(e)
	pool := synth.PatientDischarge(feedRows+(n/2+1)*feedBatch, e.seed)
	keep := make([]int, feedRows)
	for i := range keep {
		keep[i] = i
	}
	base, err := pool.Subset(keep)
	if err != nil {
		return nil, err
	}
	dir, err := e.dataDir(fmt.Sprintf("feed%d", rep))
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
	st := &feedState{base: base, pool: pool, plan: planFeed(pool, feedRows, n, e.seed), dir: dir, srv: srv}
	if err := srv.srv.RegisterDataset(feedDataset, base); err != nil {
		st.close()
		return nil, fmt.Errorf("registering %s: %w", feedDataset, err)
	}
	// One warm-requested job per algorithm: with no partition cached yet it
	// runs cold and seeds the warm cache the timed phase repairs from.
	c := newClient(srv.base)
	defer c.Close()
	for _, alg := range feedAlgs {
		o, err := c.runJob(nil, -1, -1, jobRequest{Dataset: feedDataset, Algorithm: alg, K: feedK, T: feedT})
		if err != nil {
			st.close()
			return nil, fmt.Errorf("seeding %s: %w", alg, err)
		}
		st.seeds = append(st.seeds, releaseOf(o.Result))
	}
	return st, nil
}

func runFeed(e *env) (*outcome, error) {
	st, setupS, err := repeatSetup(3, func(rep int) (*feedState, error) { return setupFeed(e, rep) }, (*feedState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()

	readEvery, epochEvery := every(feedReadRate), every(feedEpochRate)
	if e.capacity {
		return feedCapacity(e, st)
	}
	res, err := feedPhase(e, st, nil, readEvery, epochEvery)
	if err != nil {
		return nil, err
	}
	rep := res.rep
	rep.Add(Metric{Name: "setup_s", Value: setupS, Unit: "s", Better: Lower, Samples: 3,
		Note: "median of 3 set-ups: generate, register on a persistent store, one cold seed job per algorithm"})
	out := &outcome{rep: rep, attempted: res.attempted, failed: res.failed, provenance: map[string]string{
		"n":          fmt.Sprint(feedRows),
		"loop":       "open, 1 reader + 1 writer goroutine, 1 connection each",
		"read_rate":  fmt.Sprintf("%g/s (alg1/alg2/alg3 k=%d t=%g, each repeated once as an auditor)", feedReadRate, feedK, feedT),
		"epoch_rate": fmt.Sprintf("%g/s (append %d rows / delete %d ids, alternating; fsync per epoch)", feedEpochRate, feedBatch, feedBatch),
		"capacity":   fmt.Sprintf("%g releases/s + %g epochs/s kept to schedule; the rates are half of it", feedReadCapacity, feedEpochCapacity),
	}}
	rels := append(append([]release(nil), st.seeds...), res.rels...)
	applied := res.applied
	if e.trace {
		// The traced phase continues from where the untraced one left the
		// dataset, with the rest of the plan.
		tr := newTracer()
		tst := *st
		tst.plan = st.plan[len(res.applied):]
		tres, err := feedPhase(e, &tst, tr, readEvery, epochEvery)
		if err != nil {
			return nil, err
		}
		out.attempted += tres.attempted
		out.failed += tres.failed
		rels = append(rels, tres.rels...)
		applied = append(append([]feedOp(nil), res.applied...), tres.applied...)
		if err := feedProbes(e, tr, st, res, tres); err != nil {
			return nil, err
		}
		feedLayers(rep, tr.Aggregate(), tr.Counts())
		traceOverhead(rep, res.rep, tres.rep, "op_p50_ms")
		if err := tr.WriteFile(filepath.Join(e.workdir, fmt.Sprintf("spans-feed-warm-%d.json", e.seed))); err != nil {
			return nil, err
		}
	}

	t0 := time.Now()
	rp := &replayer{base: st.base, ops: applied}
	v := verifyReleases(rels, rp.tableAt)
	out.correct = reportVerification(e, rep, v, len(rels))
	if err := checkServedTable(st, rp); err != nil {
		fmt.Fprintf(e.log, "VERIFY FAILED: %v\n", err)
		out.correct = false
	}
	rep.Add(Metric{Name: "bench.verify_s", Value: time.Since(t0).Seconds(), Unit: "s", Better: Lower,
		Note: "untimed independent checks of every release and of the final table"})
	return out, nil
}

// feedResult is the outcome of one timed feed phase.
type feedResult struct {
	*phase
	rels    []release
	applied []feedOp // the acknowledged epochs, in order
	spans   []int    // the span of each acknowledged epoch's request, -1 when untraced
	served  []servedRelease
}

// servedRelease is a non-cached release with the epoch and algorithm it
// was computed for, replayed by the traced probes.
type servedRelease struct {
	epoch int
	alg   string
}

// readRec and epochRec are what each generator records per request.
type readRec struct {
	dueMs, lagMs float64
	out          jobOutcome
	err          error
}

type epochRec struct {
	lagMs, latMs float64
	ack          epochAck
	span         int
	err          error
}

// feedPhase runs the two open-loop generators for the run's seconds. Each
// generator owns one connection and sends on its own fixed schedule; a
// request is timed from when it was due, so a stall also charges the
// requests queued behind it.
func feedPhase(e *env, st *feedState, tr *Tracer, readEvery, epochEvery time.Duration) (*feedResult, error) {
	heap := startHeapSampler()
	defer heap.Stop()
	rc, wc := newClient(st.srv.base), newClient(st.srv.base)
	defer rc.Close()
	defer wc.Close()
	epoch0 := -1
	if docs, err := wc.datasets(); err == nil {
		for _, d := range docs {
			if d.Name == feedDataset {
				epoch0 = d.Epoch
			}
		}
	}
	if epoch0 < 0 {
		return nil, fmt.Errorf("dataset %s is not registered", feedDataset)
	}

	start := time.Now().Add(10 * time.Millisecond)
	end := start.Add(e.seconds)
	var (
		wg    sync.WaitGroup
		reads []readRec
		eps   []epochRec
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for j := 0; ; j++ {
			due := start.Add(time.Duration(j) * readEvery)
			if !due.Before(end) {
				return
			}
			time.Sleep(time.Until(due))
			alg := feedAlgs[(j/2)%len(feedAlgs)]
			req := int64(j)
			root := tr.Begin("bench.read", -1, req)
			lag := msSince(due)
			o, err := rc.runJob(tr, root, req, jobRequest{Dataset: feedDataset, Algorithm: alg, K: feedK, T: feedT})
			tr.End(root)
			reads = append(reads, readRec{dueMs: float64(o.LastByte.Sub(due)) / float64(time.Millisecond), lagMs: lag, out: o, err: err})
		}
	}()
	go func() {
		defer wg.Done()
		for i, op := range st.plan {
			due := start.Add(time.Duration(i) * epochEvery)
			if !due.Before(end) {
				return
			}
			time.Sleep(time.Until(due))
			req := int64(1<<32 + i)
			lag := msSince(due)
			var (
				ack epochAck
				err error
				sp  int
			)
			if op.rows != nil {
				sp = tr.Begin("serve.append", -1, req)
				ack, err = wc.appendRows(feedDataset, anyRows(op.rows))
			} else {
				sp = tr.Begin("serve.delete", -1, req)
				ack, err = wc.deleteRows(feedDataset, op.ids)
			}
			tr.End(sp)
			eps = append(eps, epochRec{lagMs: lag, latMs: msSince(due), ack: ack, span: sp, err: err})
			if err != nil {
				// The plan no longer matches the dataset; stop writing.
				return
			}
		}
	}()
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	res := &feedResult{phase: &phase{rep: newReport()}}
	rep := res.rep
	var (
		release, cached, fetch, cachedFetch, queue, run, sse, epochLat, lags []float64
		readLags, epochLags                                                  []float64
		bytes, polls, done                                                   int
		fetches                                                              []fetched
	)
	for _, r := range reads {
		res.attempted++
		readLags = append(readLags, r.lagMs)
		if r.err != nil {
			res.failed++
			fmt.Fprintf(e.log, "release request failed: %v\n", r.err)
			continue
		}
		done++
		rel := releaseOf(r.out.Result)
		res.rels = append(res.rels, rel)
		if tr != nil {
			fetches = append(fetches, fetched{r.out.FetchSpan, r.out.Result.ReleaseCSV})
		}
		bytes += r.out.ResultBytes
		polls += r.out.Polls
		if r.out.Result.Cached {
			cached = append(cached, r.dueMs)
			cachedFetch = append(cachedFetch, r.out.FetchMs)
			continue
		}
		release = append(release, r.dueMs)
		fetch = append(fetch, r.out.FetchMs)
		queue = append(queue, r.out.Status.queueWaitMs())
		run = append(run, r.out.Status.RunMs)
		sse = append(sse, r.out.Result.SSE)
		res.served = append(res.served, servedRelease{epoch: rel.Epoch, alg: r.out.Result.Algorithm})
	}
	for i, ep := range eps {
		res.attempted++
		epochLags = append(epochLags, ep.lagMs)
		if ep.err != nil {
			res.failed++
			fmt.Fprintf(e.log, "epoch %d failed: %v\n", i, ep.err)
			continue
		}
		done++
		res.applied = append(res.applied, st.plan[i])
		res.spans = append(res.spans, ep.span)
		epochLat = append(epochLat, ep.latMs)
		if want := epoch0 + len(res.applied); ep.ack.Epoch != want {
			return nil, fmt.Errorf("epoch acknowledged as %d, want %d", ep.ack.Epoch, want)
		}
	}
	lags = append(append(lags, readLags...), epochLags...)
	live := 0
	if len(eps) > 0 {
		live = eps[len(eps)-1].ack.Rows
	}

	rep.addTimings("op_p50_ms", "", 0, release, "ms")
	rep.addTimings("release_p50_ms", "release_p90_ms", 90, release, "ms")
	rep.addTimings("cached_release_p50_ms", "", 0, cached, "ms")
	rep.addTimings("epoch_p50_ms", "epoch_p90_ms", 90, epochLat, "ms")
	rep.Add(Metric{Name: "ops_per_s", Value: float64(done) / elapsed, Unit: "1/s", Better: Higher, Samples: done,
		Note: "releases and epochs completed; the offered load is fixed, so this falls only when the service falls behind"})
	rep.Add(Metric{Name: "sse_mean", Value: Mean(sse), Unit: "ratio", Better: Lower, Samples: len(sse),
		Base: "normalized SSE (paper Eq. 5), mean over non-cached releases"})
	rep.Add(Metric{Name: "peak_heap_mib", Value: heap.PeakMiB(), Unit: "MiB", Better: Lower,
		Note: "sampled every 2 ms during the timed phase"})
	if fi, err := os.Stat(filepath.Join(st.dir, feedDataset+".tcs")); err == nil && live > 0 {
		rep.Add(Metric{Name: "store_bytes_per_live_row", Value: float64(fi.Size()) / float64(live), Unit: "bytes", Better: Lower,
			Base: fmt.Sprintf("%d file bytes / %d live rows", fi.Size(), live)})
	}
	rep.addTimings("serve.queue_wait_ms", "", 0, queue, "ms")
	rep.addTimings("serve.run_ms", "", 0, run, "ms")
	rep.addTimings("serve.result_fetch_ms", "", 0, fetch, "ms")
	rep.addTimings("serve.cached_result_fetch_ms", "", 0, cachedFetch, "ms")
	if n := len(release) + len(cached); n > 0 {
		rep.Add(Metric{Name: "serve.result_bytes", Value: float64(bytes) / float64(n), Unit: "bytes", Better: Lower, Samples: n})
		rep.Add(Metric{Name: "serve.polls_per_job", Value: float64(polls) / float64(n), Unit: "count", Better: Lower, Samples: n})
	}
	if m, err := rc.metrics(); err == nil {
		rep.Add(Metric{Name: "serve.shed", Value: float64(m.Shed), Unit: "count", Better: Lower})
		rep.Ratio("serve.cache_hit_ratio", m.CacheHits, m.CacheHits+m.CacheMisses, "hits", "lookups")
		rep.Ratio("serve.warm_hit_ratio", m.WarmHits, m.WarmHits+m.WarmMisses, "warm hits", "warm-eligible runs")
	}
	behind := 0
	for _, g := range []struct {
		name  string
		lags  []float64
		every time.Duration
	}{{"reader", readLags, readEvery}, {"writer", epochLags, epochEvery}} {
		if len(g.lags) == 0 {
			continue
		}
		p90, _ := Percentile(g.lags, 90)
		if p90 > float64(g.every)/float64(time.Millisecond) {
			behind++
			fmt.Fprintf(e.log, "WARNING: the %s fell behind its schedule: p90 lag %.1f ms exceeds its %.1f ms interval; latencies include the backlog\n",
				g.name, p90, float64(g.every)/float64(time.Millisecond))
		}
	}
	p90, _ := Percentile(lags, 90)
	lagMetric := Metric{Name: "bench.generator_lag_p90_ms", Value: p90, Unit: "ms", Better: Lower, Samples: len(lags),
		Note: "how late the generators sent, over both"}
	if behind > 0 {
		lagMetric.Note += fmt.Sprintf("; %d generator(s) fell behind their schedule: this run is not a fixed-rate measurement", behind)
	}
	rep.Add(lagMetric)
	rep.Add(Metric{Name: "bench.behind_schedule", Value: float64(behind), Unit: "count", Better: Lower,
		Note: "generators whose p90 lag exceeded their send interval"})
	if err := replayFetches(tr, fetches); err != nil {
		return nil, err
	}
	return res, nil
}

// checkServedTable compares the served dataset with the base replayed
// through every acknowledged epoch: epoch, rows and table hash must match.
func checkServedTable(st *feedState, rp *replayer) error {
	epoch := len(rp.ops)
	want, err := rp.tableAt(feedDataset, epoch)
	if err != nil {
		return err
	}
	c := newClient(st.srv.base)
	defer c.Close()
	docs, err := c.datasets()
	if err != nil {
		return err
	}
	for _, d := range docs {
		if d.Name != feedDataset {
			continue
		}
		if d.Epoch != epoch || d.Rows != want.Len() || d.TableHash != store.TableHash(want) {
			return fmt.Errorf("served %s is epoch %d, %d rows, hash %s; replayed history gives epoch %d, %d rows, hash %s",
				feedDataset, d.Epoch, d.Rows, d.TableHash, epoch, want.Len(), store.TableHash(want))
		}
		return nil
	}
	return fmt.Errorf("dataset %s is gone", feedDataset)
}

// feedCapacity finds the highest multiple of the rate mix (capacityMix
// releases and epochs per second) at which both generators keep to their
// schedule for the run's seconds: the service's capacity at this mix,
// without a growing backlog. The open-loop rates are set at about half.
func feedCapacity(e *env, st *feedState) (*outcome, error) {
	out := &outcome{rep: newReport(), correct: true, provenance: map[string]string{"mode": "capacity"}}
	best := 0.0
	for _, f := range []float64{1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32} {
		live := st.base.Len()
		if docs, err := newClient(st.srv.base).datasets(); err == nil && len(docs) > 0 {
			live = docs[0].Rows
		}
		epochRate := capacityMix[1] * f
		st.plan = planFeed(st.pool, live, int(epochRate*e.seconds.Seconds())+2, e.seed)
		r, err := feedPhase(e, st, nil, every(capacityMix[0]*f), every(epochRate))
		if err != nil {
			return nil, err
		}
		out.attempted += r.attempted
		out.failed += r.failed
		behind, _ := r.rep.Get("bench.behind_schedule")
		lat, _ := r.rep.Get("release_p50_ms")
		fmt.Fprintf(e.log, "capacity step x%g: %g releases/s + %g epochs/s: release p50 %.1f ms, %g generator(s) behind\n",
			f, capacityMix[0]*f, epochRate, lat.Value, behind.Value)
		if behind.Value > 0 || r.failed > 0 {
			break
		}
		best = f
	}
	out.rep.Add(Metric{Name: "capacity.releases_per_s", Value: capacityMix[0] * best, Unit: "1/s", Better: Higher})
	out.rep.Add(Metric{Name: "capacity.epochs_per_s", Value: capacityMix[1] * best, Unit: "1/s", Better: Higher})
	return out, nil
}

// feedProbes replays the run's history against the layers directly, on a
// mirror engine and a mirror backend. Each acknowledged epoch of the traced
// phase is replayed as part of the request that sent it: the store's epoch
// write and the engine's in-memory epoch, and inside a delete the
// substrate rebuild. Each non-cached release is re-run as a warm engine run
// at its epoch, with its aggregation, assessment and SSE replayed as part
// of that run. The untraced phase is replayed without spans, so the mirror
// reaches the traced phase in the state the server was in.
func feedProbes(e *env, tracer *Tracer, st *feedState, untraced, traced *feedResult) error {
	dir, err := e.dataDir("feed-mirror")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fb, err := store.NewFileBackend(dir)
	if err != nil {
		return err
	}
	if err := store.Write(fb, feedDataset, st.base); err != nil {
		return err
	}
	eng, err := core.NewEngine(st.base)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var tr *Tracer
	warm := func(alg string) error {
		a, _ := core.ParseAlgorithm(alg)
		sp := tr.Begin("core.warm_run", -1, -1)
		res, err := eng.Run(ctx, core.Spec{Algorithm: a, K: feedK, T: feedT, Warm: true})
		tr.End(sp)
		if err != nil {
			return err
		}
		tr.Count("core.runs", 1)
		tr.Count("core.merges", int64(res.Merges))
		tr.Count("core.swaps", int64(res.Swaps))
		tr.Count("core.clusters", int64(len(res.Clusters)))
		if w := res.Warm; w != nil {
			tr.Count("core.warm_runs", 1)
			tr.Count("core.warm_scope_rows", int64(w.ScopeRows))
			tr.Count("core.warm_assigned", int64(w.Assigned))
			tr.Count("core.warm_folded", int64(w.Folded))
			tr.Count("core.warm_split", int64(w.Split))
			tr.Count("core.warm_repaired", int64(w.Repaired))
		}
		return releaseReplay(tr, sp, eng.Table(), res.Clusters)
	}
	for _, alg := range feedAlgs { // the set-up seeds
		if err := warm(alg); err != nil {
			return err
		}
	}
	table := st.base
	epoch := 0
	for _, ph := range []*feedResult{untraced, traced} {
		if ph == traced {
			tr = tracer
		}
		served := ph.served
		for i, op := range ph.applied {
			for len(served) > 0 && served[0].epoch <= epoch {
				if err := warm(served[0].alg); err != nil {
					return err
				}
				served = served[1:]
			}
			next, err := applyOp(table, op)
			if err != nil {
				return err
			}
			of := ph.spans[i]
			if op.rows != nil {
				if err := tr.Replay("store.append_epoch", of, func(int) error {
					return store.AppendRows(fb, feedDataset, next, table.Len(), nil)
				}); err != nil {
					return err
				}
				if err := tr.Replay("core.append", of, func(int) error { return eng.Append(anyRows(op.rows)...) }); err != nil {
					return err
				}
			} else {
				if err := tr.Replay("store.delete_epoch", of, func(int) error { return fb.DeleteEpoch(feedDataset, op.ids) }); err != nil {
					return err
				}
				del := -1
				if err := tr.Replay("core.delete", of, func(id int) error {
					del = id
					return eng.Delete(op.ids...)
				}); err != nil {
					return err
				}
				// Engine.Delete rebuilds the substrate over the filtered
				// table: replayed after it, as part of it.
				if err := tr.Replay("tclose.prepare", del, func(int) error { _, err := tclose.Prepare(next); return err }); err != nil {
					return err
				}
			}
			table = next
			epoch++
		}
		for _, s := range served {
			if err := warm(s.alg); err != nil {
				return err
			}
		}
	}
	if fi, err := os.Stat(filepath.Join(st.dir, feedDataset+".tcs")); err == nil {
		tr.Count("store.file_bytes", fi.Size())
	}
	return nil
}

// feedLayers adds the per-layer metrics of a traced feed run.
func feedLayers(rep *Report, agg map[string]*SpanStats, counts map[string]int64) {
	layerSelf(rep, agg)
	for _, n := range []string{"serve.submit", "serve.poll", "serve.result_fetch"} {
		spanMetric(rep, agg, n, "traced."+n+"_ms")
	}
	spanMetric(rep, agg, "serve.append", "serve.epoch_ms.append")
	spanMetric(rep, agg, "serve.delete", "serve.epoch_ms.delete")
	spanMetric(rep, agg, "core.warm_run", "core.warm_run_ms")
	spanMetric(rep, agg, "core.append", "core.append_ms")
	spanMetric(rep, agg, "core.delete", "core.delete_ms")
	spanMetric(rep, agg, "tclose.prepare", "tclose.prepare_ms")
	spanMetric(rep, agg, "micro.aggregate", "micro.aggregate_ms")
	spanMetric(rep, agg, "privacy.assess", "privacy.assess_ms")
	spanMetric(rep, agg, "metrics.sse", "metrics.sse_ms")
	spanMetric(rep, agg, "dataset.write_csv", "dataset.write_csv_ms")
	spanMetric(rep, agg, "store.append_epoch", "store.append_epoch_ms")
	spanMetric(rep, agg, "store.delete_epoch", "store.delete_epoch_ms")
	runs := int(counts["core.runs"])
	warm := int(counts["core.warm_runs"])
	countMetric(rep, counts, "core.merges", "count", runs, Lower)
	countMetric(rep, counts, "core.swaps", "count", runs, Lower)
	countMetric(rep, counts, "core.clusters", "count", runs, Higher)
	for _, n := range []string{"core.warm_assigned", "core.warm_folded", "core.warm_split", "core.warm_repaired"} {
		countMetric(rep, counts, n, "count", warm, Lower)
	}
	countMetric(rep, counts, "core.warm_scope_rows", "rows", warm, Lower)
	countMetric(rep, counts, "dataset.release_csv_bytes", "bytes", int(counts["dataset.releases"]), Lower)
	countMetric(rep, counts, "store.file_bytes", "bytes", 0, Lower)
}
