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
type IndexedTable struct {
	name string
	core *core.IndexedTable

	statsMu sync.Mutex
	stats   *stats.Table // nil when statistics collection is off
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

// EnableStats starts incremental statistics collection by installing
// append and invalidate hooks on the core table, seeding the accumulator from
// the current contents (usually empty — sessions enable stats at
// CREATE time, before the first append).
func (t *IndexedTable) EnableStats() {
	st, created := t.ensureStats()
	if created && t.core.RowCount() > 0 {
		// Seed errors leave the accumulator invalidated, which reads as
		// "no statistics" — the planner falls back to defaults.
		_ = t.rebuildStats(st)
	}
}

// ensureStats installs the accumulator and core hooks once.
func (t *IndexedTable) ensureStats() (st *stats.Table, created bool) {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	if t.stats == nil {
		t.stats = stats.NewTable(t.core.Schema().Len())
		t.core.SetStatsHooks(&core.StatsHooks{
			OnAppend:     t.stats.Observe,
			OnInvalidate: t.stats.Invalidate,
		})
		created = true
	}
	return t.stats, created
}

// ColumnStats implements stats.Provider; nil when collection is off or
// the accumulator was invalidated by an append that failed part-way (the
// rows that landed before the failure are visible but were never observed).
func (t *IndexedTable) ColumnStats() []*stats.ColumnStats {
	t.statsMu.Lock()
	st := t.stats
	t.statsMu.Unlock()
	return st.Snapshot()
}

// RebuildStats recomputes statistics from a snapshot scan of the table,
// enabling collection if it was off (ANALYZE TABLE). Appends racing the
// scan may be double counted; run ANALYZE at a write quiescent point for
// exact figures.
func (t *IndexedTable) RebuildStats() error {
	st, _ := t.ensureStats()
	return t.rebuildStats(st)
}

// rebuildStats resets st and folds in a full snapshot scan, observing
// rows in chunks so a large table never materializes at once.
func (t *IndexedTable) rebuildStats(st *stats.Table) error {
	st.Rebuild(nil)
	snap := t.core.Snapshot()
	const chunk = 1024
	buf := make([]sqltypes.Row, 0, chunk)
	for p := 0; p < snap.NumPartitions(); p++ {
		err := snap.ScanPartition(p, func(row sqltypes.Row) bool {
			// ScanPartition reuses its decode buffer; copy before keeping.
			buf = append(buf, append(sqltypes.Row(nil), row...))
			if len(buf) == chunk {
				st.Observe(buf)
				buf = buf[:0]
			}
			return true
		})
		if err != nil {
			st.Invalidate()
			return err
		}
	}
	st.Observe(buf)
	return nil
}
