// Command benchgate compares two benchjson evidence files and fails when
// any cell present in both regressed beyond a noise tolerance. CI runs it
// over the committed BENCH_<PR>.json trajectory — when both files are
// measured on the same machine a generous multiplicative tolerance
// separates real regressions from scheduler noise without requiring CI
// hardware to reproduce the timings.
//
// When consecutive evidence files come from machines of different speeds,
// absolute ratios gate the hardware instead of the code. The -norm flag
// divides each cell's ratio by the median ratio across all shared cells
// before applying the tolerance: a uniform machine-speed shift moves the
// median and is absorbed, while a cell that regressed relative to its
// peers still trips the gate.
//
// Cells are keyed by (algorithm, k, t, n, variant); the variant
// distinguishes the delta-append family ("delta-cold"/"delta-warm") from
// the classic from-scratch grid (empty variant), so older reports without
// variant cells compare unchanged.
//
// A multiplicative tolerance alone cannot gate sub-millisecond cells on a
// noisy host: 1.3x of 0.9ms is a 0.3ms margin, well inside scheduler
// jitter, so a cell can trip the gate with no code change at all. The
// -floor flag (seconds) adds an absolute grace: a cell only regresses
// when it exceeds BOTH the multiplicative limit and base+floor. A floor
// of a few milliseconds is far below any real regression on the cells
// that matter (which run tens of milliseconds to seconds) while making
// the ~1ms warm-repair cells immune to jitter.
//
// Memory cells (a nonzero peak_bytes, e.g. "open-stream-1M-peak") are
// gated as memory: new peak bytes must stay within -tol of the base, with
// neither the seconds -floor nor the -norm machine-speed factor applied.
// Reports written before peak_bytes existed (BENCH_8) stored that cell's
// bytes in ns_op; the loader reads them from there.
//
// Usage:
//
//	benchgate -base BENCH_1.json -new BENCH_2.json [-tol 1.3] [-norm] [-floor 0.005]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/core"
)

// cell's algorithm decodes through core.Algorithm's encoding.TextUnmarshaler,
// so any spelling ParseAlgorithm accepts compares under its canonical name.
type cell struct {
	Algorithm core.Algorithm `json:"algorithm"`
	K         int            `json:"k"`
	T         float64        `json:"t"`
	N         int            `json:"n"`
	Variant   string         `json:"variant"`
	NsOp      int64          `json:"ns_op"`
	Seconds   float64        `json:"seconds"`
	PeakBytes uint64         `json:"peak_bytes"`
}

// legacyPeakVariant is the memory cell that reports predating peak_bytes
// recorded with its bytes in ns_op.
const legacyPeakVariant = "open-stream-1M-peak"

// measure is one cell's gated value: wall seconds, or peak heap bytes for
// a memory cell.
type measure struct {
	value  float64
	memory bool
}

type report struct {
	N     int    `json:"n"`
	Cells []cell `json:"cells"`
}

type key struct {
	alg     core.Algorithm
	k       int
	t       float64
	n       int
	variant string
}

func load(path string) (map[key]measure, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	cells := make(map[key]measure, len(rep.Cells))
	for _, c := range rep.Cells {
		n := c.N
		if n == 0 {
			n = rep.N // pre--full reports carried the size at report level
		}
		m := measure{value: c.Seconds}
		switch {
		case c.PeakBytes > 0:
			m = measure{value: float64(c.PeakBytes), memory: true}
		case c.Variant == legacyPeakVariant:
			m = measure{value: float64(c.NsOp), memory: true}
		}
		cells[key{alg: c.Algorithm, k: c.K, t: c.T, n: n, variant: c.Variant}] = m
	}
	return cells, nil
}

func main() {
	base := flag.String("base", "", "baseline benchjson report")
	next := flag.String("new", "", "candidate benchjson report")
	tol := flag.Float64("tol", 1.3, "multiplicative noise tolerance")
	norm := flag.Bool("norm", false,
		"normalize out machine speed: gate each cell against the median new/base ratio across shared cells")
	floor := flag.Float64("floor", 0,
		"absolute noise grace in seconds: a cell regresses only beyond BOTH tol*base and base+floor (0 disables)")
	flag.Parse()
	if *base == "" || *next == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -base and -new are required")
		os.Exit(2)
	}
	baseCells, err := load(*base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	newCells, err := load(*next)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	keys := make([]key, 0, len(baseCells))
	for k := range baseCells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.alg != b.alg {
			return a.alg.String() < b.alg.String()
		}
		if a.k != b.k {
			return a.k < b.k
		}
		if a.t != b.t {
			return a.t < b.t
		}
		if a.n != b.n {
			return a.n < b.n
		}
		return a.variant < b.variant
	})

	// The machine-speed factor under -norm: the median new/base ratio over
	// shared timing cells. A uniform shift (slower evidence host) lands
	// entirely in the median; a single cell regressing relative to its peers
	// does not.
	scale := 1.0
	if *norm {
		var ratios []float64
		for _, k := range keys {
			b := baseCells[k]
			if nw, ok := newCells[k]; ok && !b.memory && !nw.memory && b.value > 0 {
				ratios = append(ratios, nw.value/b.value)
			}
		}
		if len(ratios) > 0 {
			sort.Float64s(ratios)
			scale = ratios[len(ratios)/2]
			if len(ratios)%2 == 0 {
				scale = (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
			}
			fmt.Printf("benchgate: normalizing by median machine-speed ratio %.2fx\n", scale)
		}
	}

	compared, failed := 0, 0
	for _, k := range keys {
		b := baseCells[k]
		nw, ok := newCells[k]
		if !ok {
			continue // cell not measured in the candidate (e.g. new sizes only)
		}
		compared++
		label := k.alg.String()
		if k.variant != "" {
			label += "/" + k.variant
		}
		if b.memory != nw.memory {
			fmt.Printf("%-33s k=%d t=%.2f n=%-6d memory cell in one report, timing cell in the other MISMATCH\n",
				label, k.k, k.t, k.n)
			failed++
			continue
		}
		var limit float64
		if b.memory {
			limit = b.value * *tol
		} else {
			limit = b.value * scale * *tol
			if withGrace := b.value*scale + *floor; withGrace > limit {
				limit = withGrace
			}
		}
		verdict := "ok"
		if nw.value > limit {
			verdict = "REGRESSED"
			failed++
		}
		if b.memory {
			fmt.Printf("%-33s k=%d t=%.2f n=%-6d base=%7.1fMiB new=%7.1fMiB (%.2fx) %s\n",
				label, k.k, k.t, k.n, b.value/(1<<20), nw.value/(1<<20), nw.value/b.value, verdict)
			continue
		}
		fmt.Printf("%-33s k=%d t=%.2f n=%-6d base=%8.3fs new=%8.3fs (%.2fx) %s\n",
			label, k.k, k.t, k.n, b.value, nw.value, nw.value/b.value, verdict)
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no comparable cells between the two reports")
		os.Exit(1)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d of %d cells regressed beyond %.2fx\n", failed, compared, *tol)
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d cells within %.2fx of baseline\n", compared, *tol)
}
