// Package view implements incremental materialized views: a view is a
// registered aggregate query (filter + GROUP BY + SUM/COUNT/MIN/MAX/AVG)
// over an IndexedTable whose per-group accumulator state is maintained
// from the rows appended since the last refresh instead of rescanned per
// query (the DBToaster-style delta maintenance the paper's low-latency
// serving story needs once the same aggregate shapes are issued over and
// over against a mutating table).
//
// Consistency contract: a view's cursor is the base snapshot its state
// reflects. A refresh loads the current snapshot and folds, per
// partition, the records between the two snapshots' end positions,
// decoded straight from the row batches. The base table only grows, so
// that range is exactly the rows appended in between and every
// aggregate's delta is a fold of them: nothing is ever retracted, and a
// group, once created, stays. Snapshots hold whole published batches, so
// a refresh can never double-count or miss an in-flight append.
package view

import (
	"fmt"
	"sync"

	"indexeddf/internal/core"
	"indexeddf/internal/expr"
	"indexeddf/internal/faultpoint"
	"indexeddf/internal/sqltypes"
)

// View is one incrementally maintained materialized aggregate. It
// implements catalog.MaterializedView (and therefore catalog.Table).
type View struct {
	def Def

	mu    sync.Mutex
	state map[string]*group
	order []*group       // insertion order
	snap  *core.Snapshot // base snapshot the state reflects
	stats Stats
	// keyVals and key are groupOf's scratch buffers.
	keyVals sqltypes.Row
	key     []byte
	// needRecompute forces the next refresh to rebuild from a snapshot: a
	// refresh that failed after it started mutating accumulator state left
	// the state partially folded with an unadvanced snap, and retrying the
	// delta would double-fold it. The failed refresh surfaces its error to
	// the caller; the view stays consistently answerable because the next
	// access recomputes before serving.
	needRecompute bool
}

// Stats counts maintenance work (observability and tests).
type Stats struct {
	// Refreshes is the number of Refresh calls that did any work.
	Refreshes int64
	// FullRecomputes counts state rebuilds from a snapshot (initial build,
	// recovery from a failed refresh, explicit Recompute).
	FullRecomputes int64
	// DeltaRows is the number of appended rows folded incrementally.
	DeltaRows int64
}

// group is one GROUP BY key's accumulator state.
type group struct {
	keys sqltypes.Row // evaluated group expressions
	accs []acc
}

// acc is one aggregate's accumulator (same layout as the execution
// engine's hash aggregate, so emitted values match exactly).
type acc struct {
	count int64
	sumI  int64
	sumF  float64
	min   sqltypes.Value
	max   sqltypes.Value
}

// New builds a view over def and performs the initial computation from
// the base table's current snapshot.
func New(def Def) (*View, error) {
	if err := def.validate(); err != nil {
		return nil, err
	}
	def.finish() // idempotent; covers defs built without DefFromPlan
	v := &View{def: def}
	if err := v.Recompute(); err != nil {
		return nil, err
	}
	return v, nil
}

// Def returns the view definition.
func (v *View) Def() Def { return v.def }

// Name implements catalog.Table.
func (v *View) Name() string { return v.def.Name }

// Schema implements catalog.Table: the visible schema in SELECT-list
// order.
func (v *View) Schema() *sqltypes.Schema { return v.def.Schema }

// RowCount implements catalog.Table.
func (v *View) RowCount() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.def.Groups) == 0 {
		return 1
	}
	return int64(len(v.state))
}

// Base implements catalog.MaterializedView.
func (v *View) Base() *core.IndexedTable { return v.def.Base }

// BaseName implements catalog.MaterializedView.
func (v *View) BaseName() string { return v.def.BaseName }

// Definition implements catalog.MaterializedView.
func (v *View) Definition() string { return v.def.SQL }

// RefreshedVersion implements catalog.MaterializedView.
func (v *View) RefreshedVersion() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.snap.Version()
}

// StateSchema implements catalog.MaterializedView.
func (v *View) StateSchema() *sqltypes.Schema { return v.def.StateSchema }

// OutCols implements catalog.MaterializedView.
func (v *View) OutCols() []int { return v.def.Out }

// Stats returns maintenance counters.
func (v *View) Stats() Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.stats
}

// ---------------------------------------------------------------------------
// Maintenance

// Refresh implements catalog.MaterializedView: fold the rows appended
// since the last refresh. The unlock is deferred so a panicking refresh
// (a fold bug, an injected fault) cannot strand the lock and deadlock
// every later query over the view.
func (v *View) Refresh() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.refreshLocked()
}

// Recompute implements catalog.MaterializedView: rebuild from a fresh
// snapshot unconditionally.
func (v *View) Recompute() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.recomputeLocked(v.def.Base.Snapshot())
}

func (v *View) refreshLocked() error {
	snap := v.def.Base.Snapshot()
	if v.needRecompute {
		return v.recomputeLocked(snap)
	}
	if snap == v.snap {
		return nil
	}

	// Past this point the fold mutates accumulator state: any failure —
	// injected or genuine, an error or a panic — must force a full
	// recompute on the next refresh, or retrying would double-fold the
	// delta. The flag is cleared only once the fold completes.
	v.needRecompute = true
	if err := faultpoint.Hit(faultpoint.ViewRefresh); err != nil {
		return fmt.Errorf("view %q refresh: %w", v.def.Name, err)
	}
	folded, err := v.foldSince(v.snap, snap)
	if err != nil {
		return err
	}
	v.snap = snap
	v.stats.DeltaRows += folded
	v.stats.Refreshes++
	v.needRecompute = false
	return nil
}

// foldSince folds the rows snap holds beyond prev (every row when prev is
// nil) into the accumulator state, reporting how many passed the filter.
func (v *View) foldSince(prev, snap *core.Snapshot) (int64, error) {
	var folded int64
	err := snap.ScanSince(prev, func(row sqltypes.Row) error {
		ok, err := v.foldRow(row)
		if ok {
			folded++
		}
		return err
	})
	return folded, err
}

// foldRow folds one base row into its group, creating the group on first
// sight, when the row passes the view's filter; folded reports whether it
// did.
func (v *View) foldRow(row sqltypes.Row) (folded bool, err error) {
	keep, err := v.passesFilter(row)
	if err != nil || !keep {
		return false, err
	}
	g, err := v.groupOf(row)
	if err != nil {
		return false, err
	}
	return true, v.addRow(g, row)
}

// addRow folds a row into the group's accumulators.
func (v *View) addRow(g *group, row sqltypes.Row) error {
	for i, a := range v.def.Aggs {
		ac := &g.accs[i]
		if a.Func == expr.CountStarAgg {
			ac.count++
			continue
		}
		val, err := a.Arg.Eval(row)
		if err != nil {
			return err
		}
		if val.IsNull() {
			continue
		}
		switch a.Func {
		case expr.CountAgg:
			ac.count++
		case expr.SumAgg:
			ac.count++
			if a.ResultType() == sqltypes.Float64 {
				ac.sumF += val.Float64Val()
			} else {
				ac.sumI += val.Int64Val()
			}
		case expr.AvgAgg:
			ac.count++
			ac.sumF += val.Float64Val()
		case expr.MinAgg:
			if ac.min.IsNull() || sqltypes.Compare(val, ac.min) < 0 {
				ac.min = val
			}
		case expr.MaxAgg:
			if ac.max.IsNull() || sqltypes.Compare(val, ac.max) > 0 {
				ac.max = val
			}
		}
	}
	return nil
}

// recomputeLocked rebuilds the whole state from snap and makes snap the
// view's cursor.
func (v *View) recomputeLocked(snap *core.Snapshot) error {
	// Pessimistically sticky: cleared only when the rebuild completes, so a
	// recompute that itself fails mid-scan forces another one.
	v.needRecompute = true
	v.state = map[string]*group{}
	v.order = v.order[:0]
	if _, err := v.foldSince(nil, snap); err != nil {
		return err
	}
	v.snap = snap
	v.stats.FullRecomputes++
	v.stats.Refreshes++
	v.needRecompute = false
	return nil
}

func (v *View) passesFilter(row sqltypes.Row) (bool, error) {
	if v.def.Filter == nil {
		return true, nil
	}
	return expr.EvalPredicate(v.def.Filter, row)
}

// groupOf evaluates the group expressions and returns row's group,
// creating it on first sight. The values and their encoded map key go
// into reused buffers, so a row of an existing group allocates nothing.
func (v *View) groupOf(row sqltypes.Row) (*group, error) {
	v.keyVals, v.key = v.keyVals[:0], v.key[:0]
	for _, e := range v.def.Groups {
		val, err := e.Eval(row)
		if err != nil {
			return nil, err
		}
		v.keyVals = append(v.keyVals, val)
		v.key = appendKey(v.key, val)
	}
	if g := v.state[string(v.key)]; g != nil {
		return g, nil
	}
	g := &group{keys: v.keyVals.Clone(), accs: make([]acc, len(v.def.Aggs))}
	v.state[string(v.key)] = g
	v.order = append(v.order, g)
	return g, nil
}

// ---------------------------------------------------------------------------
// State emission

// RefreshRows implements catalog.MaterializedView: refresh, then
// materialize the state rows (internal layout: groups then aggregates).
func (v *View) RefreshRows() ([]sqltypes.Row, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.refreshLocked(); err != nil {
		return nil, err
	}
	return v.rowsLocked(), nil
}

// Rows materializes the current state without refreshing.
func (v *View) Rows() []sqltypes.Row {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.rowsLocked()
}

func (v *View) rowsLocked() []sqltypes.Row {
	nAggs := len(v.def.Aggs)
	if len(v.def.Groups) == 0 {
		// Global aggregate: exactly one row, even over an empty table.
		g := v.state[""]
		if g == nil {
			g = &group{accs: make([]acc, nAggs)}
		}
		return []sqltypes.Row{v.emit(g)}
	}
	out := make([]sqltypes.Row, 0, len(v.state))
	for _, g := range v.order {
		out = append(out, v.emit(g))
	}
	return out
}

// emit renders one group as a state row, matching the execution engine's
// final-aggregate semantics (NULL SUM/AVG/MIN/MAX over no non-null input).
func (v *View) emit(g *group) sqltypes.Row {
	out := make(sqltypes.Row, 0, len(g.keys)+len(v.def.Aggs))
	out = append(out, g.keys...)
	for i, a := range v.def.Aggs {
		ac := g.accs[i]
		switch a.Func {
		case expr.CountAgg, expr.CountStarAgg:
			out = append(out, sqltypes.NewInt64(ac.count))
		case expr.SumAgg:
			if ac.count == 0 {
				out = append(out, sqltypes.Null)
			} else if a.ResultType() == sqltypes.Float64 {
				out = append(out, sqltypes.NewFloat64(ac.sumF))
			} else {
				out = append(out, sqltypes.NewInt64(ac.sumI))
			}
		case expr.AvgAgg:
			if ac.count == 0 {
				out = append(out, sqltypes.Null)
			} else {
				out = append(out, sqltypes.NewFloat64(ac.sumF/float64(ac.count)))
			}
		case expr.MinAgg:
			out = append(out, ac.min)
		case expr.MaxAgg:
			out = append(out, ac.max)
		}
	}
	return out
}

// MatchesAggregate implements catalog.MaterializedView; see Def.Matches.
func (v *View) MatchesAggregate(base *core.IndexedTable, filter expr.Expr, groups []expr.Expr, aggs []expr.Agg) ([]int, bool) {
	return v.def.Matches(base, filter, groups, aggs)
}

// String renders the view for logs.
func (v *View) String() string {
	return fmt.Sprintf("MaterializedView %s over %s (version %d)", v.def.Name, v.def.BaseName, v.RefreshedVersion())
}
