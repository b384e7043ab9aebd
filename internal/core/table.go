// Package core implements the paper's primary contribution: the Indexed
// DataFrame storage engine. An IndexedTable is hash partitioned on its
// indexed column; each partition pairs a lock-free Ctrie index with
// append-only binary row batches and per-key backward chains, giving
// sub-linear point lookups and index-powered joins on data that keeps
// growing, with multi-version concurrency (readers pin O(1) snapshots
// while appends proceed). As in the paper, a table only grows: there is
// no delete, and every row ever appended stays visible to later
// snapshots.
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
// batches are set once, in NewIndexedTable.
type Partition struct {
	mu      sync.Mutex // serializes appends; reads are lock-free
	index   *ctrie.Ctrie[sqltypes.Value, rowbatch.Ptr]
	batches *rowbatch.Set
	keys    atomic.Int64 // distinct keys
	log     partLog      // change records (guarded by mu; see changelog.go)
}

// IndexedTable is the Indexed DataFrame's storage: a set of indexed
// partitions hash partitioned on the key column.
type IndexedTable struct {
	schema  *sqltypes.Schema
	keyCol  int
	codec   *sqltypes.RowCodec
	parts   []*Partition
	version atomic.Int64
	rows    atomic.Int64
	capture changeCapture
	hooks   atomic.Pointer[StatsHooks]
}

// StatsHooks lets the catalog maintain table statistics incrementally.
// OnAppend is called with each successfully appended row slice;
// OnInvalidate when an append fails part-way: the rows that landed are
// visible but unknown to the caller, so they cannot be folded into
// additive statistics.
type StatsHooks struct {
	OnAppend     func(rows []sqltypes.Row)
	OnInvalidate func()
}

// SetStatsHooks installs (or, with nil, removes) the statistics
// maintenance hooks. Safe to call concurrently with appends; rows
// applied before the hooks land are the caller's responsibility
// (rebuild via a full scan).
func (t *IndexedTable) SetStatsHooks(h *StatsHooks) { t.hooks.Store(h) }

func (t *IndexedTable) statsAppend(rows []sqltypes.Row) {
	if h := t.hooks.Load(); h != nil && h.OnAppend != nil {
		h.OnAppend(rows)
	}
}

func (t *IndexedTable) statsInvalidate() {
	if h := t.hooks.Load(); h != nil && h.OnInvalidate != nil {
		h.OnInvalidate()
	}
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

// RowCount returns the total number of rows appended so far.
func (t *IndexedTable) RowCount() int64 { return t.rows.Load() }

// Version returns the table's monotonically increasing version, bumped on
// every append batch.
func (t *IndexedTable) Version() int64 { return t.version.Load() }

// PartitionFor returns the partition owning key.
func (t *IndexedTable) PartitionFor(key sqltypes.Value) int {
	return int(NormalizeKey(key).Hash64() % uint64(len(t.parts)))
}

// Append routes rows to their hash partitions and appends them. It is the
// fine-grained and batch update entry point: appending a one-row slice is
// a low-latency point insert, large slices amortize. Safe for concurrent
// use with readers and other appenders.
func (t *IndexedTable) Append(rows []sqltypes.Row) error {
	if len(rows) == 0 {
		return nil
	}
	n := len(t.parts)
	if len(rows) == 1 {
		// Fast path for fine-grained appends: no routing allocation.
		p := t.PartitionFor(rows[0][t.keyCol])
		logged, err := t.appendToPartition(p, rows)
		if err != nil {
			return err
		}
		if !logged {
			t.version.Add(1)
		}
		t.statsAppend(rows)
		return nil
	}
	routed := make([][]sqltypes.Row, n)
	for _, row := range rows {
		if len(row) != t.schema.Len() {
			return fmt.Errorf("core: row arity %d does not match schema %s", len(row), t.schema)
		}
		p := t.PartitionFor(row[t.keyCol])
		routed[p] = append(routed[p], row)
	}
	logged := false
	applied := false
	for p, part := range routed {
		if len(part) == 0 {
			continue
		}
		l, err := t.appendToPartition(p, part)
		if err != nil {
			if applied {
				// Earlier partitions already hold rows from this batch;
				// additive stats can no longer tell which rows landed.
				t.statsInvalidate()
			}
			return err
		}
		applied = true
		logged = logged || l
	}
	if !logged {
		t.version.Add(1)
	}
	t.statsAppend(rows)
	return nil
}

// AppendToPartition appends pre-routed rows to partition p. Every row's
// key must hash to p (the shuffle-based index build guarantees this).
func (t *IndexedTable) AppendToPartition(p int, rows []sqltypes.Row) error {
	_, err := t.appendToPartition(p, rows)
	if err == nil {
		t.statsAppend(rows)
	}
	return err
}

// appendToPartition applies the physical append under the partition lock
// and, when change capture is on, logs the change record under the same
// lock (bumping the table version); logged reports whether it did. The
// capture flag is read inside the lock so a snapshot taken after capture
// is enabled can never observe rows that are neither in its content nor in
// the change log it pins.
func (t *IndexedTable) appendToPartition(p int, rows []sqltypes.Row) (logged bool, err error) {
	part := t.parts[p]
	part.mu.Lock()
	defer part.mu.Unlock()
	capture := t.capture.enabled.Load()
	applied := 0
	var buf []byte
	for _, row := range rows {
		key := NormalizeKey(row[t.keyCol])
		prev, _ := part.index.Lookup(key)
		buf, err = t.codec.Encode(buf[:0], row)
		if err != nil {
			err = fmt.Errorf("core: partition %d: %v", p, err)
			break
		}
		var ptr rowbatch.Ptr
		ptr, err = part.batches.Append(prev, buf)
		if err != nil {
			err = fmt.Errorf("core: partition %d: %v", p, err)
			break
		}
		if _, had := part.index.Swap(key, ptr); !had {
			part.keys.Add(1)
		}
		t.rows.Add(1)
		applied++
	}
	if err != nil {
		if applied > 0 {
			if capture {
				// Part of the batch is physically visible but cannot be logged
				// as the caller's batch; break the log so delta consumers
				// recompute instead of silently missing the applied prefix.
				t.invalidateLogLocked(part)
			}
			// The applied prefix is visible but unknown to the caller, so
			// additive statistics can no longer be maintained.
			t.statsInvalidate()
		}
		return false, err
	}
	if capture {
		t.logAppendLocked(part, rows)
		return true, nil
	}
	return false, nil
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
