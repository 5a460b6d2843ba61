package main

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/micro"
	"repro/internal/synth"
)

// served anonymizes a small table and returns it with the release the
// service would hand out for it.
func served(t *testing.T, k int, tLevel float64) (*dataset.Table, *core.Result, release) {
	t.Helper()
	tbl := synth.PatientDischarge(400, 7)
	eng, err := core.NewEngine(tbl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), core.Spec{Algorithm: core.Merge, K: k, T: tLevel})
	if err != nil {
		t.Fatal(err)
	}
	return tbl, res, releaseFrom(t, res.Anonymized, k, tLevel, res.SSE)
}

func releaseFrom(t *testing.T, anon *dataset.Table, k int, tLevel, sse float64) release {
	t.Helper()
	var sb strings.Builder
	if err := anon.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	return release{Dataset: "pd", Alg: "alg1-merge", K: k, T: tLevel, SSE: sse, CSV: sb.String()}
}

func TestCheckReleaseAcceptsServedRelease(t *testing.T) {
	tbl, _, rel := served(t, 3, 0.25)
	if err := checkRelease(tbl, &rel); err != nil {
		t.Fatalf("untampered release rejected: %v", err)
	}
}

// classOfSize returns a cluster of the partition with exactly size rows.
func classOfSize(t *testing.T, res *core.Result, size int) micro.Cluster {
	t.Helper()
	for _, c := range res.Clusters {
		if c.Size() == size {
			return c
		}
	}
	t.Fatalf("no cluster of size %d", size)
	return micro.Cluster{}
}

func TestCheckReleaseRejectsShrunkClass(t *testing.T) {
	tbl, res, _ := served(t, 3, 0.25)
	anon := res.Anonymized.Clone()
	// Move one record of a k-sized class to QI values no other record has:
	// its class drops to k-1 records.
	row := classOfSize(t, res, 3).Rows[0]
	for _, c := range anon.Schema().QuasiIdentifiers() {
		anon.SetValue(row, c, anon.Value(row, c)+0.123456789)
	}
	rel := releaseFrom(t, anon, 3, 0.25, res.SSE)
	err := checkRelease(tbl, &rel)
	if err == nil || !strings.Contains(err.Error(), "equivalence class") {
		t.Fatalf("class shrunk below k not rejected by the k check: %v", err)
	}
}

func TestCheckReleaseRejectsBrokenT(t *testing.T) {
	tbl, res, _ := served(t, 3, 0.25)
	anon := res.Anonymized.Clone()
	// Move every confidential value of one class to the top of the
	// distribution: that class's EMD to the whole table far exceeds t.
	conf := anon.Schema().Confidentials()[0]
	top := anon.Stats(conf).Max
	for _, r := range res.Clusters[0].Rows {
		anon.SetValue(r, conf, top)
	}
	rel := releaseFrom(t, anon, 3, 0.25, res.SSE)
	err := checkRelease(tbl, &rel)
	if err == nil || !strings.Contains(err.Error(), "exceeds t") {
		t.Fatalf("confidential values moved past t not rejected by the t check: %v", err)
	}
}

func TestCheckReleaseRejectsRewrittenConfidentials(t *testing.T) {
	tbl, res, _ := served(t, 3, 0.25)
	anon := res.Anonymized.Clone()
	// One constant confidential value everywhere gives every class an EMD
	// of 0 to the release's own distribution, and leaves k and the QI-only
	// SSE as they were: only the comparison with the original catches it.
	conf := anon.Schema().Confidentials()[0]
	for r := 0; r < anon.Len(); r++ {
		anon.SetValue(r, conf, 1)
	}
	rel := releaseFrom(t, anon, 3, 0.25, res.SSE)
	err := checkRelease(tbl, &rel)
	if err == nil || !strings.Contains(err.Error(), "confidential") {
		t.Fatalf("release with rewritten confidential values not rejected: %v", err)
	}
}

func TestCheckReleaseRejectsDroppedRow(t *testing.T) {
	tbl, res, _ := served(t, 3, 0.25)
	keep := make([]int, 0, res.Anonymized.Len()-1)
	for r := 1; r < res.Anonymized.Len(); r++ {
		keep = append(keep, r)
	}
	anon, err := res.Anonymized.Subset(keep)
	if err != nil {
		t.Fatal(err)
	}
	rel := releaseFrom(t, anon, 3, 0.25, res.SSE)
	err = checkRelease(tbl, &rel)
	if err == nil || !strings.Contains(err.Error(), "rows") {
		t.Fatalf("dropped row not rejected by the row-count check: %v", err)
	}
}

func TestCheckReleaseRejectsSSEMismatch(t *testing.T) {
	tbl, _, rel := served(t, 3, 0.25)
	rel.SSE *= 1.001
	err := checkRelease(tbl, &rel)
	if err == nil || !strings.Contains(err.Error(), "SSE") {
		t.Fatalf("misreported SSE not rejected: %v", err)
	}
}

func TestVerifyReleasesCacheHits(t *testing.T) {
	tbl, _, rel := served(t, 3, 0.25)
	at := func(string, int) (*dataset.Table, error) { return tbl, nil }
	hit := rel
	hit.Cached = true
	if v := verifyReleases([]release{rel, hit}, at); !v.ok() || v.Checked != 1 || v.Repeats != 1 {
		t.Fatalf("faithful cache hit: %+v", v)
	}
	altered := hit
	altered.CSV = strings.Replace(hit.CSV, "\n", "\r\n", 1)
	if v := verifyReleases([]release{rel, altered}, at); v.ok() {
		t.Fatal("cache hit that differs from its original accepted")
	}
	orphan := hit
	orphan.Epoch = 9
	if v := verifyReleases([]release{rel, orphan}, at); v.ok() {
		t.Fatal("cache hit with no original at its epoch accepted")
	}
}

func TestVerifyReleasesChecksEveryClaim(t *testing.T) {
	tbl, _, rel := served(t, 3, 0.25)
	at := func(string, int) (*dataset.Table, error) { return tbl, nil }
	// The same bytes served again under a larger k claim it; the claim is
	// false and must be caught, not skipped as a duplicate.
	larger := rel
	larger.K = 50
	if v := verifyReleases([]release{rel, larger}, at); v.ok() {
		t.Fatal("duplicate content under a false k claim accepted")
	}
}
