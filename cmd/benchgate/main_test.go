package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// TestLoadMemoryCells pins how load classifies cells: a peak_bytes cell is
// memory, the legacy open-stream-1M-peak cell (bytes in ns_op, MiB in
// seconds) is memory read from ns_op, and every other cell is seconds.
func TestLoadMemoryCells(t *testing.T) {
	const doc = `{"n": 1500, "cells": [
	  {"algorithm": "alg1-merge", "k": 2, "t": 0.13, "n": 1000000, "variant": "open-stream-1M", "ns_op": 865714241, "seconds": 0.865714241},
	  {"algorithm": "alg1-merge", "k": 2, "t": 0.13, "n": 1000000, "variant": "open-stream-1M-peak", "ns_op": 248119568, "seconds": 236.62525939941406},
	  {"algorithm": "alg1-merge", "k": 2, "t": 0.13, "n": 2000000, "variant": "open-stream-1M-peak", "peak_bytes": 1048576}
	]}`
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	cells, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	at := func(n int, variant string) measure {
		return cells[key{alg: core.Merge, k: 2, t: 0.13, n: n, variant: variant}]
	}
	if got := at(1000000, "open-stream-1M"); got != (measure{value: 0.865714241}) {
		t.Errorf("timing cell loaded as %+v", got)
	}
	if got := at(1000000, "open-stream-1M-peak"); got != (measure{value: 248119568, memory: true}) {
		t.Errorf("legacy peak cell loaded as %+v, want ns_op bytes as memory", got)
	}
	if got := at(2000000, "open-stream-1M-peak"); got != (measure{value: 1048576, memory: true}) {
		t.Errorf("peak_bytes cell loaded as %+v", got)
	}
}
