// Package physical implements the physical operators the planner lowers
// logical plans into, including the paper's indexed operators (IndexLookup,
// IndexedScan, IndexedJoin) alongside the vanilla ones (columnar scan,
// filter, project, hash aggregate, shuffle/broadcast hash join, sort,
// limit, exchange). Operators execute by building RDD lineage graphs.
package physical

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"indexeddf/internal/core"
	"indexeddf/internal/expr"
	"indexeddf/internal/obs"
	"indexeddf/internal/rdd"
	"indexeddf/internal/sqltypes"
)

// Exec is a physical operator.
type Exec interface {
	// Schema is the operator's output schema.
	Schema() *sqltypes.Schema
	// Children returns input operators.
	Children() []Exec
	// Execute builds the RDD computing the operator's output.
	Execute(ec *ExecContext) (rdd.RDD, error)
	fmt.Stringer
}

// ExecContext carries per-query execution state. Indexed-table snapshots
// are memoized so every indexed operator in one query reads the same
// multi-version view. Ctx is the query's cancellation context; operators
// that run sub-jobs during Execute (broadcast builds) schedule them under
// it, and the driver runs/streams the root RDD under it.
type ExecContext struct {
	RDD *rdd.Context
	Ctx context.Context

	// Query is the query's observability collector; nil disables all
	// instrumentation (operators wrap nothing and pay nothing).
	Query *obs.QueryStats

	// Args are a prepared statement's arguments, in placeholder order. The
	// plan itself is immutable and shared by concurrent executions; each
	// operator binds its own expressions in Execute (Bind).
	Args []sqltypes.Value

	mu    sync.Mutex
	snaps map[*core.IndexedTable]*core.Snapshot
	ops   map[Exec]*obs.OpStats
}

// NewExecContext builds an ExecContext on an rdd Context with a background
// cancellation context.
func NewExecContext(rc *rdd.Context) *ExecContext {
	return NewExecContextCtx(context.Background(), rc)
}

// NewExecContextCtx builds an ExecContext whose execution is governed by
// ctx: cancellation or deadline expiry stops partition tasks, shuffle
// stages and broadcast builds.
func NewExecContextCtx(ctx context.Context, rc *rdd.Context) *ExecContext {
	if ctx == nil {
		ctx = context.Background()
	}
	return &ExecContext{RDD: rc, Ctx: ctx, snaps: make(map[*core.IndexedTable]*core.Snapshot)}
}

// SnapshotOf returns the query's pinned snapshot of t, taking it on first
// use.
func (ec *ExecContext) SnapshotOf(t *core.IndexedTable) *core.Snapshot {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	s, ok := ec.snaps[t]
	if !ok {
		s = t.Snapshot()
		ec.snaps[t] = s
	}
	return s
}

// Bind resolves e for this execution: every `?` becomes its argument's
// literal (expr.Param.Bind). Without arguments e comes back untouched, so
// a plan with no `?` pays nothing, and a `?` run without an argument
// fails with the unbound-parameter error where it is evaluated.
func (ec *ExecContext) Bind(e expr.Expr) (expr.Expr, error) {
	if len(ec.Args) == 0 || e == nil {
		return e, nil
	}
	return expr.Transform(e, func(n expr.Expr) (expr.Expr, error) {
		if p, ok := n.(*expr.Param); ok {
			return p.Bind(ec.Args)
		}
		return n, nil
	})
}

// bindEach binds the expression at slot(&x) of each element of xs (see
// Bind), returning xs itself when the execution has no arguments.
func bindEach[T any](ec *ExecContext, xs []T, slot func(*T) *expr.Expr) ([]T, error) {
	if len(ec.Args) == 0 {
		return xs, nil
	}
	out := append([]T(nil), xs...)
	for i := range out {
		e := slot(&out[i])
		var err error
		if *e, err = ec.Bind(*e); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func exprSlot(e *expr.Expr) *expr.Expr  { return e }
func orderSlot(o *SortOrder) *expr.Expr { return &o.Expr }
func aggArgSlot(a *expr.Agg) *expr.Expr { return &a.Arg }

// Stats returns e's per-operator collector, creating it on first use, or
// nil when the query runs without observability. Execute methods call this
// once and close over the result; the map survives execution so EXPLAIN
// ANALYZE can render the collected numbers against the plan tree.
func (ec *ExecContext) Stats(e Exec) *obs.OpStats {
	if ec.Query == nil {
		return nil
	}
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if st, ok := ec.ops[e]; ok {
		return st
	}
	if ec.ops == nil {
		ec.ops = make(map[Exec]*obs.OpStats)
	}
	st := ec.Query.Op(opName(e))
	ec.ops[e] = st
	return st
}

// OpStats returns e's collector if one was created during execution.
func (ec *ExecContext) OpStats(e Exec) *obs.OpStats {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return ec.ops[e]
}

// opName derives the operator's short label from its concrete type:
// *physical.VecHashAggExec -> "VecHashAgg".
func opName(e Exec) string {
	name := fmt.Sprintf("%T", e)
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	return strings.TrimSuffix(name, "Exec")
}

// AnalyzeString renders the plan as an indented tree with each operator's
// collected runtime numbers appended — the EXPLAIN ANALYZE body. Operators
// that recorded nothing (never executed, or proxied by a parent) render
// bare. Wall times are inclusive of children, Postgres-style.
func (ec *ExecContext) AnalyzeString(root Exec) string {
	var sb strings.Builder
	var rec func(Exec, int)
	rec = func(node Exec, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(node.String())
		if st := ec.OpStats(node); st != nil {
			fmt.Fprintf(&sb, "  (actual rows=%d", st.RowsOut())
			if b := st.Batches(); b > 0 {
				fmt.Fprintf(&sb, " batches=%d", b)
			}
			if sel := st.Selectivity(); sel >= 0 {
				fmt.Fprintf(&sb, " selectivity=%.1f%%", sel*100)
			}
			fmt.Fprintf(&sb, " wall=%s", time.Duration(st.WallNs()).Round(time.Microsecond))
			if m := st.MemBytes(); m > 0 {
				fmt.Fprintf(&sb, " mem=%s", obs.FormatBytes(m))
			}
			if by := st.Bytes(); by > 0 {
				fmt.Fprintf(&sb, " bytes=%s", obs.FormatBytes(by))
			}
			if runs := st.SpillRuns(); runs > 0 {
				fmt.Fprintf(&sb, " spill=%s/%d runs", obs.FormatBytes(st.SpillBytes()), runs)
			}
			if p := st.Partitions(); p > 0 {
				fmt.Fprintf(&sb, " partitions=%d", p)
			}
			if f := st.Fanout(); f > 0 {
				fmt.Fprintf(&sb, " fanout=%d", f)
			}
			if d := st.Depth(); d > 0 {
				fmt.Fprintf(&sb, " depth=%d", d)
			}
			if r := st.Reorder(); r != "" {
				fmt.Fprintf(&sb, " reordered=%s", r)
			}
			sb.WriteByte(')')
		}
		sb.WriteByte('\n')
		for _, c := range node.Children() {
			rec(c, depth+1)
		}
	}
	rec(root, 0)
	return sb.String()
}

// TreeString renders a physical plan as an indented tree.
func TreeString(e Exec) string {
	var sb strings.Builder
	var rec func(Exec, int)
	rec = func(node Exec, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(node.String())
		sb.WriteByte('\n')
		for _, c := range node.Children() {
			rec(c, depth+1)
		}
	}
	rec(e, 0)
	return sb.String()
}

// IsPointPlan reports whether every leaf of the plan is an index lookup
// or literal rows: the shape of a short read, whose few tiny tasks cost
// less run one after another on the caller's goroutine than handed to
// the task pool. An indexed join's indexed side is probed per key and is
// not a child, so a join probed by a lookup qualifies; a plan with a scan
// or a view scan anywhere never does.
func IsPointPlan(e Exec) bool {
	switch e.(type) {
	case *IndexLookupExec, *ValuesExec:
		return true
	}
	children := e.Children()
	for _, c := range children {
		if !IsPointPlan(c) {
			return false
		}
	}
	return len(children) > 0
}

// ReferencedTables returns the names of every catalog table and
// materialized view a compiled plan reads, deduplicated. The session's
// plan cache keys its invalidation on this set: DDL touching one table
// purges only the cached plans that actually reference it.
func ReferencedTables(e Exec) []string {
	seen := map[string]bool{}
	var names []string
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	var walk func(Exec)
	walk = func(node Exec) {
		switch t := node.(type) {
		case *ColumnarScanExec:
			add(t.Table.Name())
		case *VecColumnarScanExec:
			add(t.Table.Name())
		case *IndexedScanExec:
			add(t.Table.Name())
		case *VecIndexedScanExec:
			add(t.Table.Name())
		case *IndexLookupExec:
			add(t.Table.Name())
		case *IndexedJoinExec:
			add(t.Indexed.Name())
		case *VecIndexedJoinExec:
			add(t.Indexed.Name())
		case *ViewScanExec:
			add(t.View.Name())
		case *VecViewScanExec:
			add(t.View.Name())
		}
		for _, c := range node.Children() {
			walk(c)
		}
	}
	walk(e)
	return names
}

// NormalizeKey canonicalizes a value for use as a join/group key; it is
// core.NormalizeKey so probe keys collide with index keys.
func NormalizeKey(v sqltypes.Value) sqltypes.Value { return core.NormalizeKey(v) }

// AppendValueKey appends the canonical key encoding of v to dst and returns
// the extended buffer. The encoding is normalized (NormalizeKey) so values
// that compare equal across numeric widths encode identically. Both the
// row-at-a-time and the vectorized operators key their hash tables with
// this append-into-reusable-buffer API: lookups go through `m[string(buf)]`
// (which Go compiles without a string allocation) and only inserting a new
// key materializes a string.
func AppendValueKey(dst []byte, v sqltypes.Value) []byte {
	var buf [8]byte
	v = NormalizeKey(v)
	dst = append(dst, byte(v.T))
	switch v.T {
	case sqltypes.Unknown:
	case sqltypes.Float64:
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.F))
		dst = append(dst, buf[:]...)
	case sqltypes.String:
		binary.LittleEndian.PutUint64(buf[:], uint64(len(v.S)))
		dst = append(dst, buf[:]...)
		dst = append(dst, v.S...)
	default:
		binary.LittleEndian.PutUint64(buf[:], uint64(v.I))
		dst = append(dst, buf[:]...)
	}
	return dst
}

// AppendRowKey appends the composite key encoding of the given column
// ordinals of row to dst.
func AppendRowKey(dst []byte, row sqltypes.Row, ordinals []int) []byte {
	for _, o := range ordinals {
		dst = AppendValueKey(dst, row[o])
	}
	return dst
}

// appendValuesKey appends the encoding of a value list (a group-key row).
func appendValuesKey(dst []byte, vals []sqltypes.Value) []byte {
	for _, v := range vals {
		dst = AppendValueKey(dst, v)
	}
	return dst
}

// keyOf extracts and normalizes a single-column key.
func keyOf(row sqltypes.Row, ordinal int) sqltypes.Value {
	return NormalizeKey(row[ordinal])
}

// rowKeyHash hashes the composite key of the given ordinals — the shuffle
// partitioning function for multi-column keys. It combines the normalized
// per-value hashes with the shared sqltypes combiner (the columnar
// exchange's batch kernel uses the same one), so no key bytes are
// materialized per row and both exchanges route identically.
func rowKeyHash(row sqltypes.Row, ordinals []int) uint64 {
	h := sqltypes.HashSeed
	for _, o := range ordinals {
		h = sqltypes.CombineHash(h, NormalizeKey(row[o]).Hash64())
	}
	return h
}

// keyPartitioner builds the hash partitioner for the given key ordinals:
// single-column keys route by the normalized value's hash (matching the
// index partitioning), composite keys by the combined per-value hash.
func keyPartitioner(keys []int, n int) *rdd.HashPartitioner {
	if len(keys) == 1 {
		k := keys[0]
		return &rdd.HashPartitioner{N: n, Key: func(r sqltypes.Row) sqltypes.Value {
			return keyOf(r, k)
		}}
	}
	return &rdd.HashPartitioner{N: n, Hash: func(r sqltypes.Row) uint64 {
		return rowKeyHash(r, keys)
	}}
}

// hasNullKey reports whether any key column is NULL (null keys never join).
func hasNullKey(row sqltypes.Row, ordinals []int) bool {
	for _, o := range ordinals {
		if row[o].IsNull() {
			return true
		}
	}
	return false
}

// nullRow returns a row of n NULLs (outer-join padding).
func nullRow(n int) sqltypes.Row {
	r := make(sqltypes.Row, n)
	for i := range r {
		r[i] = sqltypes.Null
	}
	return r
}

// Slab bounds: a task's first slab holds minSlabRows rows and each next one
// doubles, up to maxSlabRows. A point lookup or a join probe pays for the
// few rows it makes, at most twice over; a long scan pays one allocation per
// 1024 rows. (Short reads make one to a few rows per task: a first slab of
// eight rows allocated 16% more bytes per SNB short read than per-row
// allocation did, which a 400 MB live heap pays for in GC cycles.)
const (
	minSlabRows = 1
	maxSlabRows = 1024
)

// rowSlab carves a task's rows out of shared []Value slabs, one allocation
// per slab instead of one per row. Each row is a three-index slice of its
// slab, so an append to one row reallocates it rather than overwriting its
// neighbour. A row keeps its whole slab alive: producers put only rows they
// deliver into a slab, and an operator that passes on a few of its input
// rows (the row filter) re-packs them into a slab of its own.
type rowSlab struct {
	free     []sqltypes.Value // unused tail of the current slab
	slabRows int              // rows in the last slab allocated
	left     int              // rows still to come when known exactly, else 0
}

// next returns the w-wide row the following take hands out, allocating a
// slab when the current one is full. Until take, next returns the same row,
// so a producer may fill it and drop it (a failed residual) for free.
func (s *rowSlab) next(w int) sqltypes.Row {
	if s.free == nil || len(s.free) < w {
		n := min(max(2*s.slabRows, minSlabRows), maxSlabRows)
		if s.left > 0 {
			n = min(n, s.left)
		}
		s.slabRows = n
		s.free = make([]sqltypes.Value, n*w)
	}
	return s.free[:w:w]
}

// take hands out the row next returned.
func (s *rowSlab) take(w int) sqltypes.Row {
	r := s.next(w)
	s.free = s.free[w:]
	if s.left > 0 {
		s.left--
	}
	return r
}

// sliceBuilder collects one task's output rows, making them in slabs, and
// hands them to the drain as one slice. A builder sized with size holds
// exactly that many rows; otherwise it grows by doubling.
type sliceBuilder struct {
	rows []sqltypes.Row
	slab rowSlab
}

// size makes room for exactly n rows, in slabs that add up to n rows.
func (b *sliceBuilder) size(n int) {
	b.rows = make([]sqltypes.Row, 0, n)
	b.slab.left = n
}

// add appends a row the caller made.
func (b *sliceBuilder) add(r sqltypes.Row) {
	if len(b.rows) == cap(b.rows) {
		b.rows = append(make([]sqltypes.Row, 0, max(2*cap(b.rows), minSlabRows)), b.rows...)
	}
	b.rows = append(b.rows, r)
}

// take appends the slab row b.slab.next returned and returns it.
func (b *sliceBuilder) take(w int) sqltypes.Row {
	r := b.slab.take(w)
	b.add(r)
	return r
}

func (b *sliceBuilder) iter() sqltypes.RowIter {
	return sqltypes.NewSliceIter(b.rows)
}
