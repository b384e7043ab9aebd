// Package core implements the paper's primary contribution: the Indexed
// DataFrame storage engine. An IndexedTable is hash partitioned on its
// indexed column; each partition pairs a lock-free Ctrie index with
// append-only binary row batches and per-key backward chains, giving
// sub-linear point lookups and index-powered joins on data that keeps
// growing. As in the paper, a table only grows: there is no delete, and
// every row ever appended stays visible to later snapshots.
//
// Multi-version concurrency rests on one commit point per table. Append
// checks every row of a batch, then, as the one writer holding the
// table's writer mutex, encodes and stages its rows behind the live chain
// heads and publishes an immutable Snapshot — sequence number,
// per-partition end positions, row count — with one atomic store. Taking
// a snapshot is one atomic load. Readers read the live Ctrie and row
// batches and ignore every record at or above the snapshot's end
// positions, so they see whole batches only and never wait for the
// writer.
//
// Because nothing is ever deleted or rewritten, the rows one snapshot
// holds beyond an older one are exactly the records between the two
// snapshots' end positions in each partition: ScanPartitionSince reads
// that range straight from the row batches, and ScanSince reads it for
// every partition: all a reader that keeps a fold over the table (an
// incremental view, say) needs as its delta. Such folds run on the
// reader's side; the writer's path knows nothing of them.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"indexeddf/internal/ctrie"
	"indexeddf/internal/rowbatch"
	"indexeddf/internal/sqltypes"
)

// Options configures an IndexedTable.
type Options struct {
	// NumPartitions is the hash-partition count (default 4).
	NumPartitions int
	// BatchSize is the row-batch size in bytes (default 4 MB, the paper's
	// value).
	BatchSize int
}

func (o Options) withDefaults() Options {
	if o.NumPartitions <= 0 {
		o.NumPartitions = 4
	}
	if o.BatchSize <= 0 {
		o.BatchSize = rowbatch.DefaultBatchSize
	}
	return o
}

// Partition is one indexed partition: the cTrie index, the row batches and
// (threaded through the rows) the backward-pointer lists. index and
// batches are set once, in NewIndexedTable; only the table's writer
// changes them, and readers read them live, bounded by a published end.
type Partition struct {
	index   *ctrie.Ctrie[sqltypes.Value, rowbatch.Ptr]
	batches *rowbatch.Set
	keys    atomic.Int64 // distinct keys
}

// IndexedTable is the Indexed DataFrame's storage: a set of indexed
// partitions hash partitioned on the key column.
type IndexedTable struct {
	schema *sqltypes.Schema
	keyCol int
	codec  *sqltypes.RowCodec
	parts  []*Partition
	// mu is the writer mutex: it serializes Append, the only code that
	// stages rows or publishes.
	mu sync.Mutex
	// broken, once set, is why the table takes no more appends (guarded
	// by mu).
	broken error
	// enc is the writer's reused encoding buffer (guarded by mu).
	enc []byte
	// published is the commit point: the last batch's immutable Snapshot.
	// Readers load it and never wait for the writer.
	published atomic.Pointer[Snapshot]
}

// NewIndexedTable creates an empty IndexedTable indexed on schema column
// keyCol.
func NewIndexedTable(schema *sqltypes.Schema, keyCol int, opts Options) (*IndexedTable, error) {
	if keyCol < 0 || keyCol >= schema.Len() {
		return nil, fmt.Errorf("core: key column %d out of range for %s", keyCol, schema)
	}
	opts = opts.withDefaults()
	t := &IndexedTable{
		schema: schema,
		keyCol: keyCol,
		codec:  sqltypes.NewRowCodec(schema),
		parts:  make([]*Partition, opts.NumPartitions),
	}
	hasher := func(v sqltypes.Value) uint64 { return mix64(v.Hash64()) }
	for i := range t.parts {
		t.parts[i] = &Partition{
			index:   ctrie.New[sqltypes.Value, rowbatch.Ptr](hasher),
			batches: rowbatch.NewSet(opts.BatchSize),
		}
	}
	t.published.Store(&Snapshot{table: t, ends: make([]rowbatch.Ptr, len(t.parts))})
	return t, nil
}

// mix64 is a splitmix64 finalizer applied on top of the value hash so that
// the trie sees well-spread bits even for sequential integer keys.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NormalizeKey canonicalizes an index key so values that compare SQL-equal
// are the same Ctrie key: integral types collapse to BIGINT and integral
// doubles to BIGINT. All index reads and writes go through this.
func NormalizeKey(v sqltypes.Value) sqltypes.Value {
	switch v.T {
	case sqltypes.Bool, sqltypes.Int32, sqltypes.Timestamp:
		return sqltypes.Value{T: sqltypes.Int64, I: v.I}
	case sqltypes.Float64:
		if v.F == float64(int64(v.F)) {
			return sqltypes.NewInt64(int64(v.F))
		}
	}
	return v
}

// Schema returns the table schema.
func (t *IndexedTable) Schema() *sqltypes.Schema { return t.schema }

// KeyColumn returns the indexed column ordinal.
func (t *IndexedTable) KeyColumn() int { return t.keyCol }

// NumPartitions returns the partition count.
func (t *IndexedTable) NumPartitions() int { return len(t.parts) }

// RowCount returns the number of rows published so far.
func (t *IndexedTable) RowCount() int64 { return t.published.Load().rows }

// Version returns the table's monotonically increasing version: the
// sequence number of the last published append batch.
func (t *IndexedTable) Version() int64 { return t.published.Load().version }

// PartitionFor returns the partition owning key.
func (t *IndexedTable) PartitionFor(key sqltypes.Value) int {
	return t.partOf(NormalizeKey(key))
}

// partOf returns the partition owning an already normalized key.
func (t *IndexedTable) partOf(key sqltypes.Value) int {
	return int(key.Hash64() % uint64(len(t.parts)))
}

// Append adds rows as one batch — the fine-grained and batch update entry
// point: a one-row slice is a low-latency point insert, large slices
// amortize. Every row is checked before storage is touched, so a batch
// that fails publishes nothing; one that succeeds becomes visible to later
// snapshots all at once. Safe for concurrent use: appends serialize on the
// writer mutex, readers never wait for them.
func (t *IndexedTable) Append(rows []sqltypes.Row) error {
	if len(rows) == 0 {
		return nil
	}
	if err := t.check(rows); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.commit(rows)
}

// check reports why a row of the batch cannot be stored — wrong arity, a
// value of the wrong type, an oversized encoding — so commit cannot fail
// on one.
func (t *IndexedTable) check(rows []sqltypes.Row) error {
	for i, row := range rows {
		n, err := t.codec.EncodedSize(row)
		if err == nil {
			// Every partition's Set has the same batch size.
			err = t.parts[0].batches.Check(n)
		}
		if err != nil {
			return fmt.Errorf("core: row %d: %v", i, err)
		}
	}
	return nil
}

// commit stages a checked batch and publishes it; the caller holds mu.
// Staging encodes each row behind its key's live chain head and swaps the
// head in the live Ctrie; readers of the published snapshot step back past
// the staged records, which lie at or above its end positions. The single
// atomic store of the next snapshot is the batch's commit point.
func (t *IndexedTable) commit(rows []sqltypes.Row) error {
	if t.broken != nil {
		return t.broken
	}
	prev := t.published.Load()
	for _, row := range rows {
		key := NormalizeKey(row[t.keyCol])
		p := t.partOf(key)
		part := t.parts[p]
		head, had := part.index.Lookup(key)
		var ptr rowbatch.Ptr
		var err error
		if t.enc, err = t.codec.Encode(t.enc[:0], row); err == nil {
			ptr, err = part.batches.Append(head, t.enc)
		}
		if err != nil {
			// Only a partition out of batch address space gets here (rows
			// were checked): the staged prefix is unpublished, and later
			// batches would publish it, so the table stops taking appends.
			t.broken = fmt.Errorf("core: partition %d: %v; table closed to appends", p, err)
			return t.broken
		}
		part.index.Insert(key, ptr)
		if !had {
			part.keys.Add(1)
		}
	}
	next := &Snapshot{
		table:   t,
		version: prev.version + 1,
		rows:    prev.rows + int64(len(rows)),
		ends:    make([]rowbatch.Ptr, len(t.parts)),
	}
	for p, part := range t.parts {
		next.ends[p] = part.batches.End()
	}
	t.published.Store(next)
	return nil
}

// DistinctKeys returns the number of distinct keys across partitions.
func (t *IndexedTable) DistinctKeys() int64 {
	var n int64
	for _, p := range t.parts {
		n += p.keys.Load()
	}
	return n
}

// MemoryUsage reports the bytes held by row batches (reserved), the bytes
// of encoded row data, and an estimate of the index overhead — the
// "relatively low memory overhead" the paper claims.
func (t *IndexedTable) MemoryUsage() (batchBytes, dataBytes, indexBytes int64) {
	for _, p := range t.parts {
		batchBytes += p.batches.MemoryUsage()
		dataBytes += p.batches.DataBytes()
	}
	// Ctrie node estimate: ~80 bytes per binding (sNode + its share of
	// cNode array slots and iNodes), measured empirically on this runtime.
	indexBytes = t.DistinctKeys() * 80
	return batchBytes, dataBytes, indexBytes
}

// Codec exposes the table's row codec (used by scans to decode rows).
func (t *IndexedTable) Codec() *sqltypes.RowCodec { return t.codec }
