package tclose

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/micro"
)

// Builder assembles the Prepared substrate incrementally from columnar
// batches — the out-of-core counterpart of Prepare. Feed it the chunks
// of a stored dataset (dictionary deltas, value batches, tombstones) in
// commit order and Finish returns a Prepared bit-identical to
// Prepare(table-with-everything-applied). Batches grow only the table and
// the normalized quasi-identifier rows: running min-max bounds reproduce
// the whole-column scan's normalization frame exactly (including the NaN
// semantics), and rows are renormalized in place whenever a batch widens a
// range, so the final frame covers every row. Finish hands the row buffer
// to the matrix without copying it and builds the EMD spaces and
// signatures once over the complete table, as Prepare does. Peak memory is
// the finished substrate plus one batch — never a second copy of the raw
// table or of any EMD space.
//
// Deletions invalidate the incremental state: a tombstone batch filters
// the table and Finish falls back to a cold Prepare, mirroring how the
// engine itself rebuilds on Delete. A Builder is single-use (Finish hands
// its buffers over) and not safe for concurrent use.
type Builder struct {
	table  *dataset.Table
	qiCols []int

	los  []float64 // running raw bounds per quasi-identifier
	his  []float64
	norm dataset.NormParams
	flat []float64 // normalized QI rows of every incorporated record

	hint  int
	dirty bool // a deletion invalidated the incremental substrate
}

// NewBuilder validates the schema and returns an empty Builder. rowsHint,
// when positive, preallocates the table columns and the normalized
// matrix backing for that many records.
func NewBuilder(schema *dataset.Schema, rowsHint int) (*Builder, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	tbl, err := dataset.NewTable(schema)
	if err != nil {
		return nil, err
	}
	b := &Builder{
		table:  tbl,
		qiCols: schema.QuasiIdentifiers(),
		hint:   rowsHint,
	}
	b.los = make([]float64, len(b.qiCols))
	b.his = make([]float64, len(b.qiCols))
	if rowsHint > 0 {
		tbl.Grow(rowsHint)
		b.flat = make([]float64, 0, rowsHint*len(b.qiCols))
	}
	return b, nil
}

// Table returns the table under construction. Callers must not mutate it
// directly; it is exposed for inspection (length, dictionaries).
func (b *Builder) Table() *dataset.Table { return b.table }

// ExtendDict applies a dictionary delta, exactly as a replayed chunk
// would before its values.
func (b *Builder) ExtendDict(col int, labels []string) error {
	return b.table.ExtendDict(col, labels)
}

// Append incorporates one batch of full-width columns: the table grows
// and the batch rows are normalized into the matrix backing —
// renormalizing every prior row first when the batch widens a
// quasi-identifier's min-max range.
func (b *Builder) Append(cols [][]float64) error {
	old := b.table.Len()
	if err := b.table.AppendColumnChunk(cols); err != nil {
		return err
	}
	n := b.table.Len()
	if n == old || b.dirty {
		return nil
	}
	// Fold the batch into the running bounds with the exact comparison
	// sequence of a whole-column scan (first value initializes, the rest
	// compare), so the resulting frame is bit-identical even around NaN.
	for j, c := range b.qiCols {
		vals := b.table.ColumnView(c)[old:]
		start := 0
		if old == 0 {
			b.los[j], b.his[j] = vals[0], vals[0]
			start = 1
		}
		for _, v := range vals[start:] {
			if v < b.los[j] {
				b.los[j] = v
			}
			if v > b.his[j] {
				b.his[j] = v
			}
		}
	}
	norm := dataset.NormParamsFromBounds(b.los, b.his)
	dim := len(b.qiCols)
	if cap(b.flat) < n*dim {
		grown := make([]float64, len(b.flat), n*dim)
		copy(grown, b.flat)
		b.flat = grown
	}
	b.flat = b.flat[:n*dim]
	if old == 0 || !norm.Equal(b.norm) {
		// A widened range invalidates every previously normalized row.
		b.table.NormalizeQIInto(b.flat, 0, n, norm)
	} else {
		b.table.NormalizeQIInto(b.flat[old*dim:], old, n, norm)
	}
	b.norm = norm
	return nil
}

// Delete removes the given rows (current numbering, ascending, unique)
// and marks the incremental substrate invalid: Finish will rebuild it
// with a cold Prepare over the filtered table, exactly as the engine
// does for a deletion epoch.
func (b *Builder) Delete(rowIDs []int) error {
	rows := b.table.Len()
	keep := make([]int, 0, rows-len(rowIDs))
	ti := 0
	for r := 0; r < rows; r++ {
		if ti < len(rowIDs) && rowIDs[ti] == r {
			ti++
			continue
		}
		keep = append(keep, r)
	}
	if ti != len(rowIDs) {
		return fmt.Errorf("tclose: delete ids not ascending unique in range (%d rows)", rows)
	}
	sub, err := b.table.Subset(keep)
	if err != nil {
		return err
	}
	b.table = sub
	if b.hint > 0 {
		b.table.Grow(b.hint)
	}
	b.dirty = true
	b.flat = nil
	return nil
}

// Finish seals the build and returns the Prepared. An empty table
// returns ErrNoRecords, as Prepare does.
func (b *Builder) Finish() (*Prepared, error) {
	if b.table.Len() == 0 {
		return nil, ErrNoRecords
	}
	if b.dirty {
		return Prepare(b.table)
	}
	flat := b.flat
	b.flat = nil
	return newPrepared(b.table, micro.MatrixOf(flat, len(b.qiCols)), b.norm)
}
