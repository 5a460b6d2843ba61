package emd

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// bytesPerCall returns the heap bytes allocated per call of fn, averaged
// over calls invocations.
func bytesPerCall(calls int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(calls)
}

// TestHistMemoryIsOccupiedBins pins the memory contract of Hist: a
// histogram holds O(occupied bins), never O(m). On a space with a million
// distinct values, building a two-record histogram and merging two small
// histograms must each allocate well under the 8 MB a dense per-bin count
// vector would cost — under 1 KiB per call.
func TestHistMemoryIsOccupiedBins(t *testing.T) {
	const m = 1_000_000
	vals := make([]float64, m)
	for i := range vals {
		vals[i] = float64(i)
	}
	s, err := NewSpace(vals)
	if err != nil {
		t.Fatal(err)
	}
	if s.Bins() != m {
		t.Fatalf("space has %d bins, want %d", s.Bins(), m)
	}
	const calls = 200
	rng := rand.New(rand.NewSource(1))
	pairs := make([][]int, calls)
	for i := range pairs {
		pairs[i] = []int{rng.Intn(m), rng.Intn(m)}
	}

	var sink *Hist
	if got := bytesPerCall(calls, func(i int) { sink = s.HistOf(pairs[i]) }); got >= 1024 {
		t.Fatalf("HistOf(2 records) allocates %.0f B per call, want < 1 KiB", got)
	}

	dst := make([]*Hist, calls)
	src := make([]*Hist, calls)
	for i := range dst {
		dst[i] = s.HistOf(pairs[i])
		src[i] = s.HistOf(pairs[(i+1)%calls])
	}
	if got := bytesPerCall(calls, func(i int) { dst[i].Merge(src[i]) }); got >= 1024 {
		t.Fatalf("Merge of two 2-record histograms allocates %.0f B per call, want < 1 KiB", got)
	}
	if dst[0].Size() != 4 {
		t.Fatalf("merged size %d, want 4", dst[0].Size())
	}
	_ = sink
}

// TestWarmSwapCacheConcurrentReads pins the read-only contract Algorithm 2's
// parallel eviction scoring relies on: once WarmSwapCache has run on the
// owning goroutine, EMDSwapAbsDev against the unchanged histogram may be
// called from many goroutines at once (the race detector checks that no
// query writes), and every result equals the serial one. It covers the
// run-decomposition path, the flat path and the nominal path.
func TestWarmSwapCacheConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 3000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(rng.Intn(n))
	}
	ordered, err := NewSpace(vals)
	if err != nil {
		t.Fatal(err)
	}
	nominal, err := NewNominalSpace(vals)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		s    *Space
		size int
	}{
		{"runs", ordered, 7},
		{"flat", ordered, n / 2},
		{"nominal", nominal, 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			perm := rng.Perm(n)
			members, others := perm[:tc.size], perm[tc.size:]
			const queries = 400
			outs := make([]int, queries)
			ins := make([]int, queries)
			want := make([]int64, queries)
			for q := range outs {
				outs[q] = members[rng.Intn(len(members))]
				ins[q] = others[rng.Intn(len(others))]
			}
			// Serial answers come from a separate histogram, so the one
			// under test is warmed by WarmSwapCache alone.
			ref := tc.s.HistOf(members)
			for q := range want {
				want[q] = ref.EMDSwapAbsDev(outs[q], ins[q])
			}
			h := tc.s.HistOf(members)
			h.WarmSwapCache()
			const workers = 4
			var wg sync.WaitGroup
			errs := make(chan string, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for q := w; q < queries; q += workers {
						if got := h.EMDSwapAbsDev(outs[q], ins[q]); got != want[q] {
							errs <- "concurrent EMDSwapAbsDev diverged from the serial result"
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}
		})
	}
}
