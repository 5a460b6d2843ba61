package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/tclose"
)

const (
	bigRows        = 1_000_000
	bigAppends     = 4 // append epochs after the ingest
	bigAppendRows  = 2_500
	churnRows      = 200_000
	churnDeletes   = 4 // delete epochs, removing half the rows between them
	restoreRepeats = 3 // set-ups per run

	// restorePairSeconds is about how long one pair of restarts (one per
	// open path) takes with its untimed checks on a 2-vCPU Intel Xeon
	// container. A run makes seconds/restorePairSeconds pairs, rounded, so
	// every run does the same work.
	restorePairSeconds = 2.5
)

func restorePairs(e *env) int {
	return max(1, int(math.Round(e.seconds.Seconds()/restorePairSeconds)))
}

// tracedPairs is the number of pairs of restarts a traced run makes. Each
// traced restart is followed by replays of its inner layers that take
// about twice as long as the restart, so it makes a quarter as many.
func tracedPairs(e *env) int { return max(1, restorePairs(e)/4) }

var restoreNames = []string{"pd-1m", "pd-churn"}

type restoreState struct {
	dir     string
	ingestS float64           // time spent in store.IngestCSV, both datasets
	hashes  map[string]string // expected table hash per dataset
	rows    map[string]int
	epochs  map[string]int
}

func (s *restoreState) close() { _ = os.RemoveAll(s.dir) }

// ingestTable streams rows [0, n) of t into the backend as two-header CSV
// through store.IngestCSV, without holding the CSV text in memory.
func ingestTable(b store.Backend, name string, t *dataset.Table, n int) error {
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		w := bufio.NewWriterSize(pw, 1<<16)
		err := writeCSVPrefix(w, t, n)
		if err == nil {
			err = w.Flush()
		}
		pw.CloseWithError(err)
		done <- err
	}()
	_, err := store.IngestCSV(b, name, pr, 0)
	pr.CloseWithError(io.ErrClosedPipe) // unblocks the writer if ingest stopped early
	if werr := <-done; err == nil && werr != nil && werr != io.ErrClosedPipe {
		err = werr
	}
	return err
}

// writeCSVPrefix writes the first n rows of an all-numeric table in the
// two-header CSV format of dataset.WriteCSV.
func writeCSVPrefix(w *bufio.Writer, t *dataset.Table, n int) error {
	sch := t.Schema()
	for c := 0; c < sch.Len(); c++ {
		if c > 0 {
			w.WriteByte(',')
		}
		w.WriteString(sch.Attr(c).Name)
	}
	w.WriteByte('\n')
	for c := 0; c < sch.Len(); c++ {
		if c > 0 {
			w.WriteByte(',')
		}
		a := sch.Attr(c)
		w.WriteString(a.Role.String() + ":" + a.Kind.String())
	}
	w.WriteByte('\n')
	buf := make([]byte, 0, 32)
	for r := 0; r < n; r++ {
		for c := 0; c < sch.Len(); c++ {
			if c > 0 {
				w.WriteByte(',')
			}
			buf = strconv.AppendFloat(buf[:0], t.Value(r, c), 'g', -1, 64)
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		if err := w.WriteByte('\n'); err != nil {
			return err
		}
	}
	return nil
}

// setupRestore ingests both datasets with their epoch history and computes
// the table hashes a restore must reproduce, from the same generator and
// history applied in memory.
func setupRestore(e *env, rep int) (*restoreState, error) {
	dir, err := e.dataDir(fmt.Sprintf("restore%d", rep))
	if err != nil {
		return nil, err
	}
	st := &restoreState{dir: dir, hashes: map[string]string{}, rows: map[string]int{}, epochs: map[string]int{}}
	fb, err := store.NewFileBackend(dir)
	if err != nil {
		return nil, err
	}

	big := synth.PatientDischarge(bigRows+bigAppends*bigAppendRows, e.seed)
	t0 := time.Now()
	if err := ingestTable(fb, "pd-1m", big, bigRows); err != nil {
		return nil, fmt.Errorf("ingesting pd-1m: %w", err)
	}
	st.ingestS = time.Since(t0).Seconds()
	for i := 0; i < bigAppends; i++ {
		lo := bigRows + i*bigAppendRows
		ch := store.ColumnChunk{Rows: bigAppendRows, Cols: make([][]float64, big.Width())}
		for c := range ch.Cols {
			ch.Cols[c] = big.ColumnView(c)[lo : lo+bigAppendRows]
		}
		if err := fb.AppendEpoch("pd-1m", ch); err != nil {
			return nil, fmt.Errorf("appending to pd-1m: %w", err)
		}
	}
	st.hashes["pd-1m"], st.rows["pd-1m"], st.epochs["pd-1m"] = store.TableHash(big), big.Len(), bigAppends
	big = nil

	churn := synth.PatientDischarge(churnRows, e.seed+1)
	t0 = time.Now()
	if err := ingestTable(fb, "pd-churn", churn, churnRows); err != nil {
		return nil, fmt.Errorf("ingesting pd-churn: %w", err)
	}
	st.ingestS += time.Since(t0).Seconds()
	rng := rand.New(rand.NewSource(e.seed ^ 0xc4a2))
	live := churn
	for i := 0; i < churnDeletes; i++ {
		ids := rng.Perm(live.Len())[:churnRows/2/churnDeletes]
		sort.Ints(ids)
		if err := fb.DeleteEpoch("pd-churn", ids); err != nil {
			return nil, fmt.Errorf("deleting from pd-churn: %w", err)
		}
		if live, err = applyOp(live, feedOp{ids: ids}); err != nil {
			return nil, err
		}
	}
	st.hashes["pd-churn"], st.rows["pd-churn"], st.epochs["pd-churn"] = store.TableHash(live), live.Len(), churnDeletes
	return st, nil
}

func runRestore(e *env) (*outcome, error) {
	st, setupS, err := repeatSetup(restoreRepeats, func(rep int) (*restoreState, error) { return setupRestore(e, rep) },
		(*restoreState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()

	ph, digests, bad, err := restorePhase(e, st, nil, restorePairs(e))
	if err != nil {
		return nil, err
	}
	rep := ph.rep
	rep.Add(Metric{Name: "setup_s", Value: setupS, Unit: "s", Better: Lower, Samples: restoreRepeats,
		Note: fmt.Sprintf("median of %d set-ups: generate, ingest both datasets as CSV, write their epochs, hash", restoreRepeats)})
	rep.Add(Metric{Name: "store.ingest_s", Value: st.ingestS, Unit: "s", Better: Lower,
		Note: "store.IngestCSV of both datasets in the last set-up, CSV generation included; part of setup_s"})
	out := &outcome{rep: rep, attempted: ph.attempted, failed: ph.failed, provenance: map[string]string{
		"n":    fmt.Sprintf("pd-1m %d rows + %d append epochs of %d; pd-churn %d rows, %d delete epochs removing half", bigRows, bigAppends, bigAppendRows, churnRows, churnDeletes),
		"loop": fmt.Sprintf("closed, %d restarts alternating OpenBudget=0 and OpenBudget=%d", 2*restorePairs(e), core.DefaultOpenBudget),
	}}
	if e.trace {
		tr := newTracer()
		tp, tdig, tbad, err := restorePhase(e, st, tr, tracedPairs(e))
		if err != nil {
			return nil, err
		}
		out.attempted += tp.attempted
		out.failed += tp.failed
		digests = append(digests, tdig...)
		bad = append(bad, tbad...)
		v, _ := rep.Get("bench.verify_s")
		tv, _ := tp.rep.Get("bench.verify_s")
		v.Value += tv.Value
		v.Samples += tv.Samples
		rep.Add(v)
		if err := restoreProbes(tr, st); err != nil {
			return nil, err
		}
		restoreLayers(rep, tr.Aggregate(), tr.Counts())
		traceOverhead(rep, ph.rep, tp.rep, "op_p50_ms")
		if err := tr.WriteFile(filepath.Join(e.workdir, fmt.Sprintf("spans-restore-1M-%d.json", e.seed))); err != nil {
			return nil, err
		}
	}
	for _, b := range bad {
		fmt.Fprintf(e.log, "VERIFY FAILED: %s\n", b)
	}
	sum := sha256.New()
	for _, d := range digests {
		sum.Write([]byte(d))
	}
	out.provenance["table_hash_digest"] = hex.EncodeToString(sum.Sum(nil))
	verifyS, _ := rep.Get("bench.verify_s")
	fmt.Fprintf(e.log, "verified %d restores against the table hashes of the generated history in %.2fs; digest %s\n",
		len(digests), verifyS.Value, out.provenance["table_hash_digest"])
	rep.Add(Metric{Name: "bench.verify_failures", Value: float64(len(bad)), Unit: "count", Better: Lower})
	out.correct = len(bad) == 0 && len(digests) > 0
	return out, nil
}

// restorePhase restarts a server over the store pairs times per open path,
// alternating the two, and checks after every restart (untimed) that each
// dataset came back with the expected rows, epoch and table hash. When
// traced, each restart's inner work is then replayed (see replayRestore).
func restorePhase(e *env, st *restoreState, tr *Tracer, pairs int) (*phase, []string, []string, error) {
	heap := startHeapSampler()
	defer heap.Stop()
	var (
		mat, stream, matPeak, streamPeak []float64
		digests, bad                     []string
		attempted, failed                int64
		verify                           time.Duration
		busy                             time.Duration
	)
	for i := 0; i < 2*pairs; i++ {
		budget := 0
		if i%2 == 1 {
			budget = core.DefaultOpenBudget
		}
		// Hand the previous restart's memory back to the OS, so that every
		// restart, like a new process, faults its heap in afresh.
		debug.FreeOSMemory()
		heap.Reset()
		attempted++
		req := int64(i)
		t0 := time.Now()
		root := tr.Begin("bench.restart", -1, req)
		srv, restoreSpan, err := restart(tr, root, req, st.dir, budget)
		tr.End(root)
		dt := time.Since(t0)
		peak := heap.PeakMiB()
		if err != nil {
			if srv != nil {
				_ = srv.Shutdown(context.Background())
			}
			failed++
			bad = append(bad, fmt.Sprintf("restart %d (budget %d): %v", i, budget, err))
			continue
		}
		busy += dt
		if budget == 0 {
			mat, matPeak = append(mat, dt.Seconds()), append(matPeak, peak)
		} else {
			stream, streamPeak = append(stream, dt.Seconds()), append(streamPeak, peak)
		}
		v0 := time.Now()
		d, err := checkRestored(srv, st)
		verify += time.Since(v0)
		if err != nil {
			bad = append(bad, fmt.Sprintf("restart %d (budget %d): %v", i, budget, err))
		}
		digests = append(digests, d)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = srv.Shutdown(ctx)
		cancel()
		if tr != nil {
			if err := replayRestore(tr, restoreSpan, st.dir, budget); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	rep := newReport()
	rep.addTimings("restore_s", "", 0, mat, "s")
	rep.addTimings("restore_stream_s", "", 0, stream, "s")
	rep.Add(Metric{Name: "op_p50_ms", Value: (Median(mat) + Median(stream)) / 2 * 1000, Unit: "ms", Better: Lower,
		Samples: len(mat) + len(stream), Note: "mean of the two open paths' median restart times"})
	n := len(mat) + len(stream)
	rep.Add(Metric{Name: "ops_per_s", Value: float64(n) / busy.Seconds(), Unit: "1/s", Better: Higher, Samples: n,
		Note: "restarts per second spent restarting"})
	rep.Add(Metric{Name: "peak_heap_mib", Value: Mean(matPeak), Unit: "MiB", Better: Lower, Samples: len(matPeak),
		Note: "heap sampled every 2 ms; the mean over materializing restores of each one's peak"})
	rep.Add(Metric{Name: "stream_peak_heap_mib", Value: Mean(streamPeak), Unit: "MiB", Better: Lower, Samples: len(streamPeak),
		Note: "heap sampled every 2 ms; the mean over streaming restores of each one's peak"})
	rep.Add(Metric{Name: "bench.verify_s", Value: verify.Seconds(), Unit: "s", Better: Lower, Samples: len(digests),
		Note: "untimed table-hash checks after every restart"})
	return &phase{rep: rep, attempted: attempted, failed: failed}, digests, bad, nil
}

// restart boots a fresh server over the store directory and restores every
// dataset in it: the timed operation of restore-1M. It returns the span of
// the RestoreDatasets call.
func restart(tr *Tracer, parent int, req int64, dir string, budget int) (*serve.Server, int, error) {
	sp := tr.Begin("store.new_backend", parent, req)
	fb, err := store.NewFileBackend(dir)
	tr.End(sp)
	if err != nil {
		return nil, -1, err
	}
	sp = tr.Begin("serve.new", parent, req)
	srv := serve.New(serve.Config{Store: fb, OpenBudget: budget})
	tr.End(sp)
	sp = tr.Begin("serve.restore", parent, req)
	names, err := srv.RestoreDatasets()
	tr.End(sp)
	if err != nil {
		return srv, sp, err
	}
	if len(names) != len(restoreNames) {
		return srv, sp, fmt.Errorf("restored %v, want %v", names, restoreNames)
	}
	return srv, sp, nil
}

// replayRestore replays, on the same store, what the RestoreDatasets call
// of span of did inside: one engine open per dataset, on the restart's
// open path. Each materializing open is in turn replayed as the store's
// decode and the substrate build; each streaming open as the
// Stream→Batcher→Builder pass (buildProbe).
func replayRestore(tr *Tracer, of int, dir string, budget int) error {
	fb, err := store.NewFileBackend(dir)
	if err != nil {
		return err
	}
	for _, name := range restoreNames {
		runtime.GC()
		open := -1
		if budget == 0 {
			err = tr.Replay("core.open", of, func(id int) error { open = id; _, err := core.Open(fb, name); return err })
		} else {
			err = tr.Replay("core.open_stream", of, func(id int) error {
				open = id
				_, err := core.OpenStreaming(fb, name, budget)
				return err
			})
		}
		if err != nil {
			return err
		}
		runtime.GC()
		if budget != 0 {
			if err := buildProbe(tr, open, fb, name); err != nil {
				return err
			}
			continue
		}
		var tbl *dataset.Table
		if err := tr.Replay("store.open", open, func(int) error {
			var epochs []store.Epoch
			var err error
			tbl, epochs, err = fb.Open(name)
			tr.Count("store.epochs_replayed", int64(len(epochs)))
			return err
		}); err != nil {
			return err
		}
		if err := tr.Replay("tclose.prepare", open, func(int) error { _, err := tclose.Prepare(tbl); return err }); err != nil {
			return err
		}
	}
	return nil
}

// checkRestored lists the restored datasets through the server's own API
// and compares each with what set-up generated; it returns the listed
// hashes joined, for the run's digest.
func checkRestored(srv *serve.Server, st *restoreState) (string, error) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/datasets", nil))
	if rec.Code != http.StatusOK {
		return "", fmt.Errorf("listing datasets: HTTP %d", rec.Code)
	}
	var doc struct {
		Datasets []datasetDoc `json:"datasets"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		return "", err
	}
	digest := ""
	for _, d := range doc.Datasets {
		digest += d.Name + "=" + d.TableHash + ";"
		if d.TableHash != st.hashes[d.Name] || d.Rows != st.rows[d.Name] || d.Epoch != st.epochs[d.Name] {
			return digest, fmt.Errorf("%s restored as %d rows at epoch %d, hash %s; generated history gives %d rows at epoch %d, hash %s",
				d.Name, d.Rows, d.Epoch, d.TableHash, st.rows[d.Name], st.epochs[d.Name], st.hashes[d.Name])
		}
	}
	if len(doc.Datasets) != len(restoreNames) {
		return digest, fmt.Errorf("listing shows %d datasets, want %d", len(doc.Datasets), len(restoreNames))
	}
	return digest, nil
}

// restoreProbes streams each stored dataset through the store with no-op
// handlers: the store's decode alone.
func restoreProbes(tr *Tracer, st *restoreState) error {
	fb, err := store.NewFileBackend(st.dir)
	if err != nil {
		return err
	}
	for _, name := range restoreNames {
		if fi, err := os.Stat(filepath.Join(st.dir, name+".tcs")); err == nil {
			tr.Count("store.file_bytes", fi.Size())
		}
		runtime.GC()
		if err := tr.Do("store.stream", -1, -1, func(int) error {
			_, err := fb.Stream(name, store.StreamHandler{})
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// buildProbe builds the substrate the way core.OpenStreaming does —
// store.Stream feeding a dataset.Batcher feeding a tclose.Builder — as a
// replay of the streaming open of span of, with a span around each layer's
// part: the root's self time is the store's decode, dataset.batch's the
// batching, tclose.build_*'s the build.
func buildProbe(tr *Tracer, of int, fb *store.FileBackend, name string) error {
	return tr.Replay("store.stream_build", of, func(root int) error { return streamBuild(tr, root, fb, name) })
}

func streamBuild(tr *Tracer, root int, fb *store.FileBackend, name string) error {
	var (
		bld    *tclose.Builder
		bat    *dataset.Batcher
		parent = root
	)
	flush := func(cols [][]float64, dictDelta [][]string) error {
		return tr.Do("tclose.build_append", parent, -1, func(int) error {
			for c, delta := range dictDelta {
				if len(delta) > 0 {
					if err := bld.ExtendDict(c, delta); err != nil {
						return err
					}
				}
			}
			return bld.Append(cols)
		})
	}
	_, err := fb.Stream(name, store.StreamHandler{
		Begin: func(s *dataset.Schema, rows int) error {
			var err error
			bld, err = tclose.NewBuilder(s, rows)
			bat = dataset.NewBatcher(s.Len(), core.DefaultOpenBudget, flush)
			return err
		},
		Chunk: func(ch store.ColumnChunk) error {
			return tr.Do("dataset.batch", root, -1, func(id int) error {
				parent = id
				defer func() { parent = root }()
				return bat.Add(ch.Cols, ch.DictDelta)
			})
		},
		Tombstone: func(ids []int) error {
			if err := bat.Flush(); err != nil {
				return err
			}
			return tr.Do("tclose.build_delete", root, -1, func(int) error { return bld.Delete(ids) })
		},
	})
	if err != nil {
		return err
	}
	if err := bat.Flush(); err != nil {
		return err
	}
	return tr.Do("tclose.build_finish", root, -1, func(int) error { _, err := bld.Finish(); return err })
}

// restoreLayers adds the per-layer metrics of a traced restore run.
func restoreLayers(rep *Report, agg map[string]*SpanStats, counts map[string]int64) {
	layerSelf(rep, agg)
	spanMetric(rep, agg, "serve.restore", "serve.restore_ms")
	spanMetric(rep, agg, "store.open", "store.open_ms")
	spanMetric(rep, agg, "store.stream", "store.stream_ms")
	spanMetric(rep, agg, "tclose.prepare", "tclose.prepare_ms")
	spanMetric(rep, agg, "core.open", "core.open_ms")
	spanMetric(rep, agg, "core.open_stream", "core.open_stream_ms")
	spanMetric(rep, agg, "store.stream_build", "tclose.build_ms")
	selfSpanMetric(rep, agg, "store.stream_build", "store.stream_decode_ms")
	selfSpanMetric(rep, agg, "dataset.batch", "dataset.batch_ms")
	spanMetric(rep, agg, "tclose.build_append", "tclose.build_append_ms")
	spanMetric(rep, agg, "tclose.build_finish", "tclose.build_finish_ms")
	countMetric(rep, counts, "store.epochs_replayed", "count", 0, Lower)
	countMetric(rep, counts, "store.file_bytes", "bytes", 0, Lower)
}
