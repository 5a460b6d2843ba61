package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/privacy"
)

// release is one anonymized table the service handed out, with the
// parameters and the claims it was served with.
type release struct {
	Dataset string
	Epoch   int
	Alg     string
	K       int
	T       float64
	Cached  bool
	SSE     float64
	CSV     string
}

func (r *release) key() string {
	return fmt.Sprintf("%s@%d/%s/k=%d/t=%g", r.Dataset, r.Epoch, r.Alg, r.K, r.T)
}

func (r *release) hash() [32]byte { return sha256.Sum256([]byte(r.CSV)) }

// sseTolerance bounds the relative difference between the reported SSE and
// the one recomputed from the release; both come from the same formula over
// the same values, so only float rounding may separate them.
const sseTolerance = 1e-9

// tSlack absorbs float rounding in the EMD recomputation. Identical
// centroids of two clusters merge into one equivalence class of the
// release, which can only lower the class EMD, so no other slack is due.
const tSlack = 1e-9

// checkRelease verifies one release against the original table at the
// epoch it was computed on, independently of the engine: row count,
// k-anonymity and t-closeness of the released equivalence classes, the
// reported SSE, and confidential values released as they are.
func checkRelease(orig *dataset.Table, r *release) error {
	tbl, err := dataset.ReadCSV(strings.NewReader(r.CSV))
	if err != nil {
		return fmt.Errorf("%s: parsing release: %w", r.key(), err)
	}
	if tbl.Len() != orig.Len() {
		return fmt.Errorf("%s: release has %d rows, dataset at epoch %d has %d", r.key(), tbl.Len(), r.Epoch, orig.Len())
	}
	k, err := privacy.KAnonymity(tbl)
	if err != nil {
		return fmt.Errorf("%s: k-anonymity: %w", r.key(), err)
	}
	if k < r.K {
		return fmt.Errorf("%s: smallest equivalence class has %d records, want >= %d", r.key(), k, r.K)
	}
	tc, err := privacy.TCloseness(tbl)
	if err != nil {
		return fmt.Errorf("%s: t-closeness: %w", r.key(), err)
	}
	if tc > r.T+tSlack {
		return fmt.Errorf("%s: worst class EMD %.12g exceeds t=%g", r.key(), tc, r.T)
	}
	sse, err := metrics.NormalizedSSE(orig, tbl)
	if err != nil {
		return fmt.Errorf("%s: SSE: %w", r.key(), err)
	}
	if math.Abs(sse-r.SSE) > sseTolerance*math.Max(math.Abs(sse), 1e-12) {
		return fmt.Errorf("%s: reported SSE %.17g, recomputed %.17g", r.key(), r.SSE, sse)
	}
	return checkConfidentials(orig, tbl, r)
}

// checkConfidentials requires every confidential value of the release to
// equal the original's, row for row and bit for bit. Microaggregation
// leaves confidential attributes as they are, and the t check above
// measures each class against the release's own confidential
// distribution, so it holds only if that distribution is the original's.
func checkConfidentials(orig, tbl *dataset.Table, r *release) error {
	if !orig.Schema().Equal(tbl.Schema()) {
		return fmt.Errorf("%s: release schema differs from the dataset's", r.key())
	}
	for _, c := range orig.Schema().Confidentials() {
		categorical := orig.Schema().Attr(c).Kind == dataset.Categorical
		for row := 0; row < orig.Len(); row++ {
			same := math.Float64bits(orig.Value(row, c)) == math.Float64bits(tbl.Value(row, c))
			if categorical {
				same = orig.Label(row, c) == tbl.Label(row, c)
			}
			if !same {
				return fmt.Errorf("%s: confidential %s of row %d released as %s, original %s", r.key(),
					orig.Schema().Attr(c).Name, row, cell(tbl, row, c), cell(orig, row, c))
			}
		}
	}
	return nil
}

func cell(t *dataset.Table, row, col int) string {
	if t.Schema().Attr(col).Kind == dataset.Categorical {
		return t.Label(row, col)
	}
	return strconv.FormatFloat(t.Value(row, col), 'g', -1, 64)
}

// verification is the outcome of checking a set of releases.
type verification struct {
	Checked  int      // releases checked in full
	Repeats  int      // releases identical to one already checked in full
	Failures []string // one line per failed check
	Digest   string   // hash over every release hash, in the order given
}

func (v *verification) ok() bool { return len(v.Failures) == 0 }

// verifyReleases checks every release. A release is checked in full once
// per distinct content and key; a cache hit must repeat, byte for byte,
// the non-cached release of the same key. tableAt returns the original
// dataset at an epoch; it is called in ascending epoch order.
func verifyReleases(rels []release, tableAt func(dataset string, epoch int) (*dataset.Table, error)) verification {
	var v verification
	digest := sha256.New()
	for i := range rels {
		h := rels[i].hash()
		digest.Write(h[:])
	}
	v.Digest = hex.EncodeToString(digest.Sum(nil))

	originals := make(map[string]*release)
	for i := range rels {
		if !rels[i].Cached {
			originals[rels[i].key()] = &rels[i]
		}
	}
	order := make([]int, len(rels))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rels[order[a]].Epoch < rels[order[b]].Epoch })
	// Identical content served with the same claims is checked once; the
	// same content under another key (say a larger k) or with another SSE
	// carries other claims and is checked again.
	type seenKey struct {
		key string
		sse float64
		h   [32]byte
	}
	seen := make(map[seenKey]bool)
	for _, i := range order {
		r := &rels[i]
		h := r.hash()
		if r.Cached {
			orig, ok := originals[r.key()]
			switch {
			case !ok:
				v.Failures = append(v.Failures, fmt.Sprintf("%s: cache hit repeats no release served at that epoch", r.key()))
			case orig.hash() != h || orig.SSE != r.SSE:
				v.Failures = append(v.Failures, fmt.Sprintf("%s: cache hit differs from the release it repeats", r.key()))
			default:
				v.Repeats++
			}
			continue
		}
		sk := seenKey{r.key(), r.SSE, h}
		if seen[sk] {
			v.Repeats++
			continue
		}
		seen[sk] = true
		orig, err := tableAt(r.Dataset, r.Epoch)
		if err == nil {
			err = checkRelease(orig, r)
		}
		if err != nil {
			v.Failures = append(v.Failures, err.Error())
			continue
		}
		v.Checked++
	}
	return v
}
