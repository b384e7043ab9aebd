// Package catalog defines the table abstractions the planner sees: vanilla
// column tables (cached in columnar format, like Spark's in-memory cache)
// and indexed tables (the paper's Indexed DataFrame storage).
package catalog

import (
	"fmt"
	"sync"

	"indexeddf/internal/columnar"
	"indexeddf/internal/core"
	"indexeddf/internal/sqltypes"
	"indexeddf/internal/stats"
)

// Table is a named data source with a schema and a cardinality estimate.
type Table interface {
	Name() string
	Schema() *sqltypes.Schema
	RowCount() int64
}

// ---------------------------------------------------------------------------
// ColumnTable — the vanilla baseline

// ColumnTable is a partitioned in-memory table. When cached, partitions are
// materialized as columnar batches (Spark's cached DataFrame format); when
// not cached, scans walk the row partitions.
//
// Appends invalidate the columnar cache — exactly the behaviour the paper
// calls out as vanilla Spark's weakness ("updates to the graph invalidate
// caching of Dataframes"): the next query pays a re-materialization.
type ColumnTable struct {
	name   string
	schema *sqltypes.Schema

	mu      sync.RWMutex
	parts   [][]sqltypes.Row
	cached  bool
	batches []*columnar.Batch // nil entries are invalid
	rows    int64
	stats   *stats.Table // nil when statistics collection is off
}

// NewColumnTable builds a table from pre-partitioned rows.
func NewColumnTable(name string, schema *sqltypes.Schema, parts [][]sqltypes.Row) *ColumnTable {
	t := &ColumnTable{name: name, schema: schema, parts: parts}
	for _, p := range parts {
		t.rows += int64(len(p))
	}
	return t
}

// Name implements Table.
func (t *ColumnTable) Name() string { return t.name }

// Schema implements Table.
func (t *ColumnTable) Schema() *sqltypes.Schema { return t.schema }

// RowCount implements Table.
func (t *ColumnTable) RowCount() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// NumPartitions returns the partition count.
func (t *ColumnTable) NumPartitions() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.parts)
}

// SetCached toggles columnar caching. Enabling eagerly materializes all
// partitions (like calling .cache() then an action in Spark).
func (t *ColumnTable) SetCached(cached bool) error {
	t.mu.Lock()
	t.cached = cached
	if !cached {
		t.batches = nil
		t.mu.Unlock()
		return nil
	}
	t.batches = make([]*columnar.Batch, len(t.parts))
	t.mu.Unlock()
	for p := 0; p < t.NumPartitions(); p++ {
		if _, err := t.ColumnarPartition(p); err != nil {
			return err
		}
	}
	return nil
}

// IsCached reports whether the table is columnar-cached.
func (t *ColumnTable) IsCached() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.cached
}

// RowPartition returns partition p's rows (shared slice; do not modify).
func (t *ColumnTable) RowPartition(p int) []sqltypes.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.parts[p]
}

// ColumnarPartition returns partition p as a columnar batch, materializing
// (or re-materializing after an append) if needed.
func (t *ColumnTable) ColumnarPartition(p int) (*columnar.Batch, error) {
	t.mu.RLock()
	if !t.cached {
		t.mu.RUnlock()
		return nil, fmt.Errorf("catalog: table %q is not cached", t.name)
	}
	if b := t.batches[p]; b != nil {
		t.mu.RUnlock()
		return b, nil
	}
	t.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if b := t.batches[p]; b != nil {
		return b, nil
	}
	b, err := columnar.FromRows(t.schema, t.parts[p])
	if err != nil {
		return nil, err
	}
	t.batches[p] = b
	return b, nil
}

// Append adds rows (round-robin across partitions) and invalidates the
// columnar cache, which will be rebuilt lazily on the next scan.
func (t *ColumnTable) Append(rows []sqltypes.Row) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.parts) == 0 {
		t.parts = make([][]sqltypes.Row, 1)
	}
	n := len(t.parts)
	for i, r := range rows {
		p := (int(t.rows) + i) % n
		t.parts[p] = append(t.parts[p], r)
	}
	t.rows += int64(len(rows))
	if t.cached {
		for i := range t.batches {
			t.batches[i] = nil // invalidate; next scan re-materializes
		}
	}
	t.stats.Observe(rows)
}

// EnableStats starts incremental statistics collection, seeding the
// accumulator with the table's current contents.
func (t *ColumnTable) EnableStats() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stats != nil {
		return
	}
	t.stats = stats.NewTable(t.schema.Len())
	for _, p := range t.parts {
		t.stats.Observe(p)
	}
}

// ColumnStats implements stats.Provider; nil when collection is off.
func (t *ColumnTable) ColumnStats() []*stats.ColumnStats {
	t.mu.RLock()
	st := t.stats
	t.mu.RUnlock()
	return st.Snapshot()
}

// RebuildStats recomputes statistics from a full scan of the current
// partitions, enabling collection if it was off (ANALYZE TABLE).
func (t *ColumnTable) RebuildStats() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stats == nil {
		t.stats = stats.NewTable(t.schema.Len())
	}
	var all []sqltypes.Row
	for _, p := range t.parts {
		all = append(all, p...)
	}
	t.stats.Rebuild(all)
}

// MemoryUsage returns the bytes held by materialized columnar batches.
func (t *ColumnTable) MemoryUsage() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var n int64
	for _, b := range t.batches {
		if b != nil {
			n += b.MemoryUsage()
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// IndexedTable — the paper's contribution, wrapped for the catalog

// IndexedTable names a core.IndexedTable for the planner.
//
// Its statistics are a fold over the table's batch ranges, like a view's
// accumulators: ColumnStats folds the rows published since the snapshot
// the accumulator was last folded to, so they always describe exactly one
// published version and the writer's path never touches them.
type IndexedTable struct {
	name string
	core *core.IndexedTable

	statsMu sync.Mutex
	stats   *stats.Table   // nil when statistics collection is off
	statsAt *core.Snapshot // the snapshot stats is folded to; nil: none
}

// NewIndexedTable wraps a core table.
func NewIndexedTable(name string, t *core.IndexedTable) *IndexedTable {
	return &IndexedTable{name: name, core: t}
}

// Name implements Table.
func (t *IndexedTable) Name() string { return t.name }

// Schema implements Table.
func (t *IndexedTable) Schema() *sqltypes.Schema { return t.core.Schema() }

// RowCount implements Table.
func (t *IndexedTable) RowCount() int64 { return t.core.RowCount() }

// Core returns the underlying storage.
func (t *IndexedTable) Core() *core.IndexedTable { return t.core }

// KeyColumn returns the indexed column ordinal.
func (t *IndexedTable) KeyColumn() int { return t.core.KeyColumn() }

// EnableStats turns statistics collection on. The accumulator starts
// empty; the first ColumnStats folds the table's rows into it.
func (t *IndexedTable) EnableStats() {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	if t.stats == nil {
		t.stats = stats.NewTable(t.core.Schema().Len())
	}
}

// ColumnStats implements stats.Provider: it folds the rows appended since
// the last read and returns statistics of the current snapshot. Nil when
// collection is off or the fold failed; the next read then folds from the
// start.
func (t *IndexedTable) ColumnStats() []*stats.ColumnStats {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	if t.stats == nil || t.foldStats() != nil {
		return nil
	}
	return t.stats.Snapshot()
}

// RebuildStats recomputes statistics by folding the table from its first
// row, enabling collection if it was off (ANALYZE TABLE).
func (t *IndexedTable) RebuildStats() error {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	t.stats, t.statsAt = stats.NewTable(t.core.Schema().Len()), nil
	return t.foldStats()
}

// foldStats folds the rows the current snapshot holds beyond statsAt into
// the accumulator and advances statsAt to it. A failed fold resets both,
// so no row is ever counted twice. The caller holds statsMu.
func (t *IndexedTable) foldStats() error {
	snap := t.core.Snapshot()
	if snap == t.statsAt {
		return nil
	}
	err := snap.ScanSince(t.statsAt, func(row sqltypes.Row) error {
		t.stats.Observe([]sqltypes.Row{row})
		return nil
	})
	if err != nil {
		t.stats, t.statsAt = stats.NewTable(t.core.Schema().Len()), nil
		return err
	}
	t.statsAt = snap
	return nil
}
