package core

import (
	"context"
	"encoding/json"
	"os"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// The repair half of the golden conformance suite pins the two paths that
// finish a partition without a cold run from scratch: warm-start repairs
// across chained append and delete epochs, and sharded construction with
// its boundary reconciliation. Both are deterministic (warm runs at any
// worker count, sharded runs at a fixed worker budget), so their exact
// partitions and releases are pinned like the cold cells in
// golden_conformance.json. Regenerate with
//
//	go test ./internal/core -run TestGoldenRepairConformance -update-golden

const goldenRepairPath = "testdata/golden_repair.json"

// goldenRepairCell is the pinned outcome of one warm or sharded run. Warm
// is the zero value for sharded cells.
type goldenRepairCell struct {
	Case       string    `json:"case"`
	Algorithm  Algorithm `json:"algorithm"`
	K          int       `json:"k"`
	T          float64   `json:"t"`
	Partition  string    `json:"partition_sha256"`
	Output     string    `json:"output_sha256"`
	MaxEMD     string    `json:"max_emd_hex"`
	EffectiveK int       `json:"effective_k"`
	Merges     int       `json:"merges"`
	Swaps      int       `json:"swaps"`
	Warm       WarmStats `json:"warm"`
}

func repairCell(name string, spec Spec, res *Result) goldenRepairCell {
	c := goldenRepairCell{
		Case:       name,
		Algorithm:  spec.Algorithm,
		K:          spec.K,
		T:          spec.T,
		Partition:  hashPartition(res),
		Output:     hashOutput(res.Anonymized),
		MaxEMD:     strconv.FormatFloat(res.MaxEMD, 'x', -1, 64),
		EffectiveK: res.EffectiveK,
		Merges:     res.Merges,
		Swaps:      res.Swaps,
	}
	if res.Warm != nil {
		c.Warm = *res.Warm
	}
	return c
}

// goldenWarmCells seeds every warm spec at epoch 0 of a 300-row table,
// then runs each one warm after every epoch of an append/delete chain.
// Every warm run re-seeds the cache, so each epoch repairs the previous
// epoch's warm partition.
func goldenWarmCells(t *testing.T) []goldenRepairCell {
	full := synth.PatientDischarge(480, 7)
	base, err := full.Subset(iota0(300))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(base)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var specs []Spec
	for _, alg := range []Algorithm{Merge, KAnonymityFirst, TClosenessFirst} {
		specs = append(specs,
			Spec{Algorithm: alg, K: 2, T: 0.08, SkipAssessment: true, Warm: true},
			Spec{Algorithm: alg, K: 3, T: 0.2, SkipAssessment: true, Warm: true})
	}
	for _, spec := range specs {
		if _, err := eng.Run(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	next := 300
	appendBatch := func(n int) func() error {
		return func() error {
			rows := appendRows(full, next, next+n)
			next += n
			return eng.Append(rows...)
		}
	}
	epochs := []struct {
		name string
		do   func() error
	}{
		{"append-60", appendBatch(60)},
		{"delete-scattered-25", func() error {
			ids := make([]int, 0, 25)
			for i := 0; i < 25; i++ {
				ids = append(ids, (i*53)%eng.Len())
			}
			return eng.Delete(ids...)
		}},
		{"append-120", appendBatch(120)},
		{"delete-prefix-20", func() error { return eng.Delete(iota0(20)...) }},
	}
	var cells []goldenRepairCell
	for _, ep := range epochs {
		if err := ep.do(); err != nil {
			t.Fatalf("%s: %v", ep.name, err)
		}
		for _, spec := range specs {
			res, err := eng.Run(ctx, spec)
			if err != nil {
				t.Fatalf("warm %s %v: %v", ep.name, spec.Algorithm, err)
			}
			if res.Warm == nil {
				t.Fatalf("warm %s %v: expected a warm hit", ep.name, spec.Algorithm)
			}
			cells = append(cells, repairCell("warm/"+ep.name, spec, res))
		}
	}
	return cells
}

// goldenShardedCells runs both sharded algorithms on two-worker engines
// over tables just above twice the per-shard floor, so each run splits
// into two shards and reconciles their boundary.
func goldenShardedCells(t *testing.T) []goldenRepairCell {
	fixtures := []struct {
		name string
		tbl  *dataset.Table
	}{
		{"patients", synth.PatientDischarge(2200, 7)},
		{"census", synth.Census(2200, synth.FedTax, 7)},
	}
	var cells []goldenRepairCell
	for _, fix := range fixtures {
		eng, err := NewEngine(fix.tbl, WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{Merge, KAnonymityFirst} {
			for _, kt := range []struct {
				k int
				t float64
			}{{2, 0.08}, {3, 0.2}} {
				spec := Spec{Algorithm: alg, K: kt.k, T: kt.t, SkipAssessment: true, Sharded: true}
				res, err := eng.Run(context.Background(), spec)
				if err != nil {
					t.Fatalf("sharded %s %v: %v", fix.name, alg, err)
				}
				cells = append(cells, repairCell("sharded/"+fix.name, spec, res))
			}
		}
	}
	return cells
}

func TestGoldenRepairConformance(t *testing.T) {
	got := append(goldenWarmCells(t), goldenShardedCells(t)...)
	if *updateGolden {
		enc, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenRepairPath, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d cells", goldenRepairPath, len(got))
		return
	}
	raw, err := os.ReadFile(goldenRepairPath)
	if err != nil {
		t.Fatalf("reading golden fixture (regenerate with -update-golden): %v", err)
	}
	var want []goldenRepairCell
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("fixture has %d cells, test produced %d (regenerate with -update-golden)",
			len(want), len(got))
	}
	for i, w := range want {
		if g := got[i]; w != g {
			t.Errorf("cell %s/%v k=%d t=%v diverges from golden fixture:\n got %+v\nwant %+v",
				w.Case, w.Algorithm, w.K, w.T, g, w)
		}
	}
}
