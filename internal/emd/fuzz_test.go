package emd

import (
	"math"
	"testing"
)

// Native fuzz targets for the EMD geometry invariants. Inputs are byte
// strings decoded into small integer value domains (heavy bin collisions,
// the regime where the incremental machinery earns its keep); every target
// checks exact equalities, since the package computes on integer prefix
// geometry where incremental and batch results are bit-identical by
// contract. Seed corpora live in testdata/fuzz; CI runs a short -fuzz
// smoke leg on top of the committed seeds.

// fuzzValues decodes bytes into a bounded value slice: each byte becomes a
// value in a small domain so histograms share bins constantly.
func fuzzValues(data []byte, max int) []float64 {
	if len(data) > max {
		data = data[:max]
	}
	vals := make([]float64, 0, len(data))
	for _, b := range data {
		vals = append(vals, float64(b%17))
	}
	return vals
}

// fuzzHistValues decodes FuzzHistIncremental's value bytes. The first byte
// is a mode: bit 0 selects an all-distinct domain (m = n, every record its
// own bin, the Patient Discharge CHARGE regime) instead of fuzzValues' small
// shared domain, and bit 1 selects the nominal distance. Up to 400 values
// are kept, so batch HistOf builds (more than histOfAddLimit records) reach
// both the counting and the sorting path.
func fuzzHistValues(data []byte) (vals []float64, nominal bool) {
	if len(data) == 0 {
		return nil, false
	}
	mode, data := data[0], data[1:]
	if mode&1 == 0 {
		return fuzzValues(data, 400), mode&2 != 0
	}
	if len(data) > 400 {
		data = data[:400]
	}
	vals = make([]float64, len(data))
	for i, b := range data {
		vals[i] = float64(b)*1000 + float64(i) // distinct: i < 1000
	}
	return vals, mode&2 != 0
}

// denseAbsDev is the exact integer deviation numerator (see Hist.AbsDev)
// of the cluster with per-bin counts dense and the given size, evaluated by
// a full walk over every bin — independent of Hist's sparse layout.
func denseAbsDev(s *Space, dense []int, size int) int64 {
	if s.m < 2 || size == 0 {
		return 0
	}
	n64, sz := int64(s.n), int64(size)
	var total int64
	if s.nominal {
		for b, c := range dense {
			total += abs64(n64*int64(c) - sz*int64(s.qCounts[b]))
		}
		return total
	}
	var C int64
	for b := 0; b < s.m-1; b++ {
		C += int64(dense[b])
		total += abs64(n64*C - sz*s.qcPref[b])
	}
	return total
}

// FuzzHistIncremental drives a histogram through an arbitrary walk of
// Add/Remove, committed Swap, Merge and Clone steps, with virtual swap
// queries in between, and pins every state to an oracle that shares nothing
// with the histogram's sparse layout: a dense per-bin count vector kept by
// the walk itself, the dense float reference (referenceEMD/referenceEMDSwap)
// and the dense integer numerator (denseAbsDev). Ops are byte pairs (kind,
// record).
func FuzzHistIncremental(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, []byte{0, 0, 0, 1, 1, 0, 2, 3})
	f.Add([]byte{0, 5, 5, 5, 9, 9, 0, 3, 3, 3, 3}, []byte{0, 7, 1, 7, 2, 1, 0, 0, 4, 9, 0, 4})
	f.Add([]byte{2, 200, 14, 14, 3}, []byte{0, 2, 1, 2, 0, 2, 4, 1})
	f.Fuzz(func(t *testing.T, valBytes, ops []byte) {
		vals, nominal := fuzzHistValues(valBytes)
		if len(vals) < 2 {
			return
		}
		var s *Space
		var err error
		if nominal {
			s, err = NewNominalSpace(vals)
		} else {
			s, err = NewSpace(vals)
		}
		if err != nil {
			t.Fatal(err)
		}
		n := len(vals)
		in := make([]bool, n)
		dense := make([]int, s.Bins())
		size := 0
		h := s.NewHist()
		add := func(r int) {
			in[r] = true
			dense[s.Bin(r)]++
			size++
		}
		remove := func(r int) {
			in[r] = false
			dense[s.Bin(r)]--
			size--
		}
		members := func() []int {
			out := make([]int, 0, size)
			for r := 0; r < n; r++ {
				if in[r] {
					out = append(out, r)
				}
			}
			return out
		}
		// nextOut returns the first non-member at or after r (cyclically),
		// or -1 when every record is a member.
		nextOut := func(r int) int {
			for i := 0; i < n; i++ {
				if c := (r + i) % n; !in[c] {
					return c
				}
			}
			return -1
		}
		check := func(h *Hist, step int) {
			t.Helper()
			if h.Size() != size {
				t.Fatalf("step %d: size %d, oracle %d", step, h.Size(), size)
			}
			for b, c := range dense {
				if got := h.count(b); got != c {
					t.Fatalf("step %d: bin %d count %d, oracle %d", step, b, got, c)
				}
			}
			if got, want := h.EMD(), referenceEMD(h); math.Abs(got-want) > 1e-9 {
				t.Fatalf("step %d: EMD %v, dense reference %v", step, got, want)
			}
			want := denseAbsDev(s, dense, size)
			if got := h.AbsDev(); got != want {
				t.Fatalf("step %d: AbsDev %d, dense reference %d", step, got, want)
			}
			if got := s.HistOf(members()).AbsDev(); got != want {
				t.Fatalf("step %d: HistOf AbsDev %d, dense reference %d", step, got, want)
			}
		}
		for step := 0; step+1 < len(ops); step += 2 {
			rec := int(ops[step+1]) % n
			switch ops[step] % 5 {
			case 0: // toggle membership
				if in[rec] {
					h.Remove(rec)
					remove(rec)
				} else {
					h.Add(rec)
					add(rec)
				}
			case 1: // virtual queries: same-size swap, add-only, remove-only
				other := nextOut(rec)
				if !in[rec] || other < 0 {
					break
				}
				ob, ib := s.Bin(rec), s.Bin(other)
				if got, want := h.EMDSwap(rec, other), referenceEMDSwap(h, ob, ib); math.Abs(got-want) > 1e-9 {
					t.Fatalf("step %d: EMDSwap(%d,%d) %v, dense reference %v", step, rec, other, got, want)
				}
				if got, want := h.EMDSwap(-1, other), referenceEMDSwap(h, -1, ib); math.Abs(got-want) > 1e-9 {
					t.Fatalf("step %d: EMDSwap(-1,%d) %v, dense reference %v", step, other, got, want)
				}
				if got, want := h.EMDSwap(rec, -1), referenceEMDSwap(h, ob, -1); math.Abs(got-want) > 1e-9 {
					t.Fatalf("step %d: EMDSwap(%d,-1) %v, dense reference %v", step, rec, got, want)
				}
				dense[ob]--
				dense[ib]++
				want := denseAbsDev(s, dense, size)
				dense[ob]++
				dense[ib]--
				if got := h.EMDSwapAbsDev(rec, other); got != want {
					t.Fatalf("step %d: EMDSwapAbsDev(%d,%d) %d, dense reference %d", step, rec, other, got, want)
				}
			case 2: // committed swap
				other := nextOut(rec)
				if !in[rec] || other < 0 {
					break
				}
				h.Swap(rec, other)
				remove(rec)
				add(other)
			case 3: // merge a batch of non-members, large enough to reach HistOf's batch path
				want := 1 + int(ops[step+1])%(2*histOfAddLimit)
				var batch []int
				for r := rec; len(batch) < want && r < rec+n; r++ {
					if c := r % n; !in[c] {
						batch = append(batch, c)
					}
				}
				if len(batch) == 0 {
					break
				}
				h.Merge(s.HistOf(batch))
				for _, r := range batch {
					add(r)
				}
			case 4: // clone, then mutate the clone only
				c := h.Clone()
				other := nextOut(rec)
				if other < 0 {
					h = c
					break
				}
				c.Add(other)
				check(h, step) // the original is unaffected
				add(other)
				h = c
			}
			check(h, step)
		}
		// Two-record closed form against the general path.
		if !nominal {
			a, b := 0, n/2
			got := s.TwoRecordAbsDev(s.Bin(a), s.Bin(b))
			if want := s.HistOf([]int{a, b}).AbsDev(); got != want {
				t.Fatalf("TwoRecordAbsDev = %d, HistOf.AbsDev = %d", got, want)
			}
		}
	})
}

// FuzzDistanceSymmetry pins the closed-form EMD (and its nominal variant)
// to its metric symmetry: Distance(p, q) == Distance(q, p) exactly, since
// negation is exact in IEEE-754.
func FuzzDistanceSymmetry(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{3, 2, 1})
	f.Add([]byte{10, 0, 0, 5}, []byte{0, 0, 10, 5})
	f.Fuzz(func(t *testing.T, pb, qb []byte) {
		m := len(pb)
		if len(qb) < m {
			m = len(qb)
		}
		if m < 2 || m > 64 {
			return
		}
		var psum, qsum float64
		p := make([]float64, m)
		q := make([]float64, m)
		for i := 0; i < m; i++ {
			p[i] = float64(pb[i])
			q[i] = float64(qb[i])
			psum += p[i]
			qsum += q[i]
		}
		if psum == 0 || qsum == 0 {
			return
		}
		for i := range p {
			p[i] /= psum
			q[i] /= qsum
		}
		ab, err1 := Distance(p, q)
		ba, err2 := Distance(q, p)
		if (err1 == nil) != (err2 == nil) || ab != ba {
			t.Fatalf("Distance not symmetric: %v/%v vs %v/%v", ab, err1, ba, err2)
		}
		nab, err1 := NominalDistance(p, q)
		nba, err2 := NominalDistance(q, p)
		if (err1 == nil) != (err2 == nil) || nab != nba {
			t.Fatalf("NominalDistance not symmetric: %v/%v vs %v/%v", nab, err1, nba, err2)
		}
	})
}

// FuzzSpaceExtend pins the incremental epoch extension to the cold rebuild:
// Extend over any split of a value stream must equal NewSpace over the
// concatenation — same bins, same record mapping, same EMDs, same
// two-record closed forms.
func FuzzSpaceExtend(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{5, 6})
	f.Add([]byte{9, 9, 9}, []byte{9, 9})
	f.Add([]byte{3, 1, 4}, []byte{1, 5, 9, 2, 6, 200})
	f.Fuzz(func(t *testing.T, baseBytes, tailBytes []byte) {
		base := fuzzValues(baseBytes, 48)
		tail := fuzzValues(tailBytes, 48)
		if len(base) == 0 {
			return
		}
		s1, err := NewSpace(base)
		if err != nil {
			t.Fatal(err)
		}
		ext, err := s1.Extend(tail)
		if err != nil {
			t.Fatal(err)
		}
		all := append(append([]float64(nil), base...), tail...)
		cold, err := NewSpace(all)
		if err != nil {
			t.Fatal(err)
		}
		if ext.N() != cold.N() || ext.Bins() != cold.Bins() {
			t.Fatalf("extend shape (%d,%d) vs rebuild (%d,%d)",
				ext.N(), ext.Bins(), cold.N(), cold.Bins())
		}
		for r := 0; r < cold.N(); r++ {
			if ext.Bin(r) != cold.Bin(r) {
				t.Fatalf("record %d: extend bin %d, rebuild bin %d", r, ext.Bin(r), cold.Bin(r))
			}
		}
		for b := 0; b < cold.Bins(); b++ {
			if ext.Value(b) != cold.Value(b) || ext.DatasetMass(b) != cold.DatasetMass(b) {
				t.Fatalf("bin %d: extend (%v,%v), rebuild (%v,%v)",
					b, ext.Value(b), ext.DatasetMass(b), cold.Value(b), cold.DatasetMass(b))
			}
		}
		// A representative subset EMD and the two-record closed form.
		subset := make([]int, 0, cold.N())
		for r := 0; r < cold.N(); r += 2 {
			subset = append(subset, r)
		}
		if len(subset) > 0 {
			if got, want := ext.EMDOf(subset), cold.EMDOf(subset); got != want {
				t.Fatalf("subset EMD: extend %v, rebuild %v", got, want)
			}
		}
		for a := 0; a < cold.Bins(); a++ {
			if got, want := ext.TwoRecordAbsDev(a, cold.Bins()-1), cold.TwoRecordAbsDev(a, cold.Bins()-1); got != want {
				t.Fatalf("TwoRecordAbsDev(%d,last): extend %d, rebuild %d", a, got, want)
			}
		}
	})
}
