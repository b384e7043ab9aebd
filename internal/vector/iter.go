package vector

import (
	"indexeddf/internal/sqltypes"
)

// BatchIter is the pull protocol of the vectorized engine: Next returns the
// next batch, or nil when exhausted. The returned batch is owned by the
// iterator and may be reused by the following Next call.
type BatchIter interface {
	Next() (*Batch, error)
}

// SliceIter iterates over pre-built batches.
type SliceIter struct {
	batches []*Batch
	pos     int
}

// NewSliceIter returns an iterator over batches.
func NewSliceIter(batches []*Batch) *SliceIter { return &SliceIter{batches: batches} }

// Next implements BatchIter.
func (it *SliceIter) Next() (*Batch, error) {
	for it.pos < len(it.batches) {
		b := it.batches[it.pos]
		it.pos++
		if b.Len() > 0 {
			return b, nil
		}
	}
	return nil, nil
}

// ---------------------------------------------------------------------------
// Row adapters — the boundary between batch and row operators.

// RowIter adapts a BatchIter to a sqltypes.RowIter, materializing one row
// per Next. A batch's rows share one slab of values, allocated when the
// batch arrives; each row is a three-index slice of it, so appending to one
// row never overwrites the next. It also exposes the wrapped batch stream
// so a downstream vectorized operator can splice out the adapter pair (see
// AsBatchIter) and keep the data columnar end to end.
type RowIter struct {
	in      BatchIter
	cur     *Batch
	pos     int
	slab    []sqltypes.Value
	started bool
}

// NewRowIter adapts batches to rows.
func NewRowIter(in BatchIter) *RowIter { return &RowIter{in: in} }

// Next implements sqltypes.RowIter.
func (it *RowIter) Next() (sqltypes.Row, error) {
	it.started = true
	for {
		if it.cur != nil && it.pos < it.cur.Len() {
			w := len(it.cur.Cols)
			r := it.slab[it.pos*w : (it.pos+1)*w : (it.pos+1)*w]
			it.cur.RowInto(r, it.pos)
			it.pos++
			return r, nil
		}
		b, err := it.in.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		it.cur, it.pos = b, 0
		it.slab = make([]sqltypes.Value, b.Len()*len(b.Cols))
	}
}

// batches surrenders the inner batch stream. Only legal before the first
// Next call — afterwards rows may already have been consumed from a batch.
func (it *RowIter) batches() (BatchIter, bool) {
	if it.started {
		return nil, false
	}
	return it.in, true
}

// batchingIter chunks a RowIter into dense batches of up to size rows,
// reusing one output batch.
type batchingIter struct {
	in   sqltypes.RowIter
	out  *Batch
	size int
	done bool
}

// Next implements BatchIter.
func (it *batchingIter) Next() (*Batch, error) {
	if it.done {
		return nil, nil
	}
	it.out.Reset()
	for it.out.Len() < it.size {
		row, err := it.in.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			it.done = true
			break
		}
		if err := it.out.AppendRow(row); err != nil {
			return nil, err
		}
	}
	if it.out.Len() == 0 {
		return nil, nil
	}
	return it.out, nil
}

// AsBatchIter views a row iterator as a batch iterator. When in is a fresh
// RowIter adapter the wrapped batch stream is spliced out directly (no
// re-batching); otherwise rows are gathered into reused batches of up to
// size rows, typed by schema.
func AsBatchIter(in sqltypes.RowIter, schema *sqltypes.Schema, size int) BatchIter {
	if size <= 0 {
		size = DefaultBatchSize
	}
	if ra, ok := in.(*RowIter); ok {
		if bi, ok := ra.batches(); ok {
			return bi
		}
	}
	return &batchingIter{in: in, out: NewBatch(schema), size: size}
}

// Drain reads a batch iterator to completion, materializing all rows.
func Drain(it BatchIter) ([]sqltypes.Row, error) {
	var out []sqltypes.Row
	for {
		b, err := it.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.Row(i))
		}
	}
}
