package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/micro"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/tclose"
)

// vandalPartitioner overwrites every coordinate of every point it is handed
// and then groups consecutive rows. The Partitioner contract does not bind
// custom partitioners to read-only use, so the engine must hand them a
// private copy of the normalized geometry.
func vandalPartitioner(points [][]float64, k int) ([]micro.Cluster, error) {
	for _, p := range points {
		for j := range p {
			p[j] = math.NaN()
		}
	}
	var out []micro.Cluster
	for lo := 0; lo < len(points); lo += k {
		hi := lo + k
		if len(points)-hi < k {
			hi = len(points)
		}
		rows := make([]int, 0, hi-lo)
		for r := lo; r < hi; r++ {
			rows = append(rows, r)
		}
		out = append(out, micro.Cluster{Rows: rows})
		if hi == len(points) {
			break
		}
	}
	return out, nil
}

// TestPartitionerCannotCorruptSubstrate runs a writing custom partitioner
// on engines built by every substrate route (cold build, epoch append with
// and without a widened normalization frame, streaming open) and checks
// that the default runs that follow on the same engine release exactly
// the bytes of a fresh engine over the same table.
func TestPartitionerCannotCorruptSubstrate(t *testing.T) {
	full := synth.PatientDischarge(700, 7)
	base, err := full.Subset(iota0(500))
	if err != nil {
		t.Fatal(err)
	}
	mem := store.NewMemBackend()
	if err := store.Write(mem, "pd", full); err != nil {
		t.Fatal(err)
	}
	routes := []struct {
		name  string
		build func() (*Engine, error)
	}{
		{"prepare", func() (*Engine, error) { return NewEngine(full) }},
		{"extend", func() (*Engine, error) {
			eng, err := NewEngine(base)
			if err != nil {
				return nil, err
			}
			// Rows 500..699 in two epochs, reaching both Extend branches:
			// the first batch keeps every quasi-identifier range, the
			// second widens one and renormalizes the whole matrix.
			if err := eng.Append(appendRows(full, 500, 600)...); err != nil {
				return nil, err
			}
			return eng, eng.Append(appendRows(full, 600, 700)...)
		}},
		{"stream", func() (*Engine, error) { return OpenStreaming(mem, "pd", 4<<10) }},
	}
	specs := []Spec{
		{Algorithm: Merge, K: 3, T: 0.15, SkipAssessment: true},
		{Algorithm: KAnonymityFirst, K: 2, T: 0.15, SkipAssessment: true},
		{Algorithm: TClosenessFirst, K: 2, T: 0.15, SkipAssessment: true},
	}
	ref, err := NewEngine(full)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(specs))
	for i, spec := range specs {
		res, err := ref.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = hashOutput(res.Anonymized)
	}
	for _, route := range routes {
		eng, err := route.build()
		if err != nil {
			t.Fatalf("%s: %v", route.name, err)
		}
		custom := Spec{Algorithm: Merge, K: 3, T: 0.15, SkipAssessment: true,
			Partitioner: tclose.Partitioner(vandalPartitioner)}
		if _, err := eng.Run(context.Background(), custom); err != nil {
			t.Fatalf("%s: custom partitioner run: %v", route.name, err)
		}
		for i, spec := range specs {
			res, err := eng.Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("%s %v: %v", route.name, spec.Algorithm, err)
			}
			if got := hashOutput(res.Anonymized); got != want[i] {
				t.Errorf("%s %v: release after a writing partitioner differs from a fresh engine's",
					route.name, spec.Algorithm)
			}
		}
	}
}
