package tclose

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// algorithms under test, shared by the validation tests below.
var allAlgorithms = []struct {
	name string
	run  func(t *dataset.Table, k int, tl float64) (*Result, error)
}{
	{"alg1", func(t *dataset.Table, k int, tl float64) (*Result, error) {
		return Algorithm1(t, k, tl, nil)
	}},
	{"alg2", Algorithm2},
	{"alg2-standalone", Algorithm2Standalone},
	{"alg3", Algorithm3},
}

func TestParameterValidation(t *testing.T) {
	tbl := synth.Uniform(30, 2, 1)
	for _, alg := range allAlgorithms {
		if _, err := alg.run(nil, 2, 0.1); err == nil {
			t.Errorf("%s: nil table should fail", alg.name)
		}
		if _, err := alg.run(tbl, 0, 0.1); err == nil {
			t.Errorf("%s: k = 0 should fail", alg.name)
		}
		if _, err := alg.run(tbl, 2, 0); err == nil {
			t.Errorf("%s: t = 0 should fail", alg.name)
		}
		if _, err := alg.run(tbl, 2, -0.3); err == nil {
			t.Errorf("%s: negative t should fail", alg.name)
		}
		if _, err := alg.run(tbl, 2, 1.5); err == nil {
			t.Errorf("%s: t > 1 should fail", alg.name)
		}
	}
}

func TestEmptyTableRejected(t *testing.T) {
	tbl := dataset.MustTable(dataset.MustSchema(
		dataset.Attribute{Name: "a", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "c", Role: dataset.Confidential, Kind: dataset.Numeric},
	))
	for _, alg := range allAlgorithms {
		if _, err := alg.run(tbl, 2, 0.1); err == nil {
			t.Errorf("%s: empty table should fail", alg.name)
		}
	}
}

func TestSchemaWithoutConfidentialRejected(t *testing.T) {
	tbl := dataset.MustTable(dataset.MustSchema(
		dataset.Attribute{Name: "a", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
	))
	if err := tbl.AppendNumericRow(1); err != nil {
		t.Fatal(err)
	}
	for _, alg := range allAlgorithms {
		if _, err := alg.run(tbl, 1, 0.1); err == nil {
			t.Errorf("%s: schema without confidential attribute should fail", alg.name)
		}
	}
}

func TestResultSizes(t *testing.T) {
	r := &Result{Clusters: nil}
	if s := r.Sizes(); s.Num != 0 {
		t.Errorf("Sizes of empty result = %+v", s)
	}
}

// add and remove update every histogram of the set by one record: the
// step-by-step mutations the reference implementations and the swap
// consistency check compare the optimized paths against.
func (hs histSet) add(rec int) {
	for _, h := range hs {
		h.Add(rec)
	}
}

func (hs histSet) remove(rec int) {
	for _, h := range hs {
		h.Remove(rec)
	}
}

func TestHistSetSwapConsistency(t *testing.T) {
	tbl := synth.Uniform(40, 2, 3)
	p, err := newProblem(tbl, 2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	rows := []int{0, 5, 10, 15}
	hs := p.newHistSet(rows)
	pred := hs.emdSwap(5, 20)
	hs.remove(5)
	hs.add(20)
	if got := hs.emd(); got != pred {
		t.Errorf("emdSwap = %v but post-mutation emd = %v", pred, got)
	}
	// And it matches a fresh histogram of the swapped rows.
	fresh := p.newHistSet([]int{0, 20, 10, 15})
	if fresh.emd() != hs.emd() {
		t.Errorf("incremental %v != fresh %v", hs.emd(), fresh.emd())
	}
}

func TestClusterEMDMatchesHistSet(t *testing.T) {
	tbl := synth.CensusMCD()
	p, err := newProblem(tbl, 2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	rows := []int{3, 77, 400, 999}
	if a, b := p.clusterEMD(rows), p.newHistSet(rows).emd(); a != b {
		t.Errorf("clusterEMD %v != histSet emd %v", a, b)
	}
}
