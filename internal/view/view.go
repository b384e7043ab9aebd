// Package view implements incremental materialized views: a view is a
// registered aggregate query (filter + GROUP BY + SUM/COUNT/MIN/MAX/AVG)
// over an IndexedTable whose per-group accumulator state is maintained
// from the table's change log instead of rescanned per query (the
// DBToaster-style delta maintenance the paper's low-latency serving story
// needs once the same aggregate shapes are issued over and over against a
// mutating table).
//
// Consistency contract: a refresh pins one base snapshot and advances the
// view to exactly that snapshot's per-partition change marks by folding
// the logged appends. The base table only grows, so every aggregate's
// delta is a fold of the appended rows: nothing is ever retracted, and a
// group, once created, stays. Because the change log and the snapshot
// content are pinned under the same partition locks (see internal/core), a
// refresh can never double-count an in-flight append. When the log has a
// gap (a failed append, pruning beyond the cursor), the view falls back to
// a full recompute from the snapshot.
package view

import (
	"fmt"
	"sync"

	"indexeddf/internal/catalog"
	"indexeddf/internal/core"
	"indexeddf/internal/expr"
	"indexeddf/internal/faultpoint"
	"indexeddf/internal/sqltypes"
)

// View is one incrementally maintained materialized aggregate. It
// implements catalog.MaterializedView (and therefore catalog.Table).
type View struct {
	def Def
	reg *catalog.ViewRegistry // for post-refresh log pruning; may be nil

	mu      sync.Mutex
	state   map[string]*group
	order   []*group // insertion order
	cursors []int64  // per-partition change-log sequence folded up to
	version int64    // base-table version the state reflects
	stats   Stats
	// needRecompute forces the next refresh to rebuild from a snapshot: a
	// refresh that failed after it started mutating accumulator state left
	// the state partially folded with unadvanced cursors, and retrying the
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
	// change-log gaps, explicit Recompute).
	FullRecomputes int64
	// DeltaRows is the number of logged rows folded incrementally.
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

// New builds an (empty) view over def and performs the initial
// computation: it enables change capture on the base table FIRST and then
// recomputes from a snapshot, so every later mutation is either in the
// snapshot or in the log at a sequence past the snapshot's marks.
func New(def Def, reg *catalog.ViewRegistry) (*View, error) {
	if err := def.validate(); err != nil {
		return nil, err
	}
	def.finish() // idempotent; covers defs built without DefFromPlan
	v := &View{def: def, reg: reg}
	def.Base.EnableChangeCapture()
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
	return v.version
}

// ChangeCursors implements catalog.MaterializedView.
func (v *View) ChangeCursors() []int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]int64, len(v.cursors))
	copy(out, v.cursors)
	return out
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

// Refresh implements catalog.MaterializedView: fold the delta since the
// last refresh, or fully recompute on a change-log gap.
func (v *View) Refresh() error {
	if err := v.refresh(); err != nil {
		return err
	}
	v.prune()
	return nil
}

// refresh runs refreshLocked under the state lock. The unlock is deferred
// so a panicking refresh (a fold bug, an injected fault) cannot strand the
// lock and deadlock every later query over the view.
func (v *View) refresh() error {
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
	// A panic anywhere in the refresh may have left accumulator state
	// half-mutated: flag the recompute fallback before rethrowing.
	defer func() {
		if r := recover(); r != nil {
			v.needRecompute = true
			panic(r)
		}
	}()
	base := v.def.Base
	snap := base.Snapshot()
	if v.needRecompute {
		return v.recomputeLocked(snap)
	}
	n := base.NumPartitions()
	if len(v.cursors) != n {
		return v.recomputeLocked(snap)
	}

	// Collect the per-partition delta pinned by the snapshot's marks.
	perPart := make([][]core.Change, n)
	total := 0
	for p := 0; p < n; p++ {
		mark := snap.ChangeMark(p)
		if mark < 0 { // capture off: should not happen for a live view
			return v.recomputeLocked(snap)
		}
		changes, ok := base.ChangesBetween(p, v.cursors[p], mark)
		if !ok {
			// Gap: a failed append or pruning overtook our cursor.
			return v.recomputeLocked(snap)
		}
		perPart[p] = changes
		total += len(changes)
	}
	if total == 0 && snap.Version() == v.version {
		return nil
	}

	// Past this point the fold mutates accumulator state: any failure —
	// injected or genuine — must force a full recompute on the next
	// refresh, or retrying would double-fold the delta.
	if err := faultpoint.Hit(faultpoint.ViewRefresh); err != nil {
		v.needRecompute = true
		return fmt.Errorf("view %q refresh: %w", v.def.Name, err)
	}
	for p := 0; p < n; p++ {
		for _, ch := range perPart[p] {
			if err := v.foldLocked(ch); err != nil {
				v.needRecompute = true
				return err
			}
		}
	}
	for p := 0; p < n; p++ {
		v.cursors[p] = snap.ChangeMark(p)
	}
	v.version = snap.Version()
	v.stats.Refreshes++
	return nil
}

// foldLocked folds one change record's appended rows into the
// accumulator state.
func (v *View) foldLocked(ch core.Change) error {
	for _, row := range ch.Rows {
		folded, err := v.foldRow(row)
		if err != nil {
			return err
		}
		if folded {
			v.stats.DeltaRows++
		}
	}
	return nil
}

// foldRow folds one base row into its group, creating the group on first
// sight, when the row passes the view's filter; folded reports whether it
// did.
func (v *View) foldRow(row sqltypes.Row) (folded bool, err error) {
	keep, err := v.passesFilter(row)
	if err != nil || !keep {
		return false, err
	}
	key, keys, err := v.groupKey(row)
	if err != nil {
		return false, err
	}
	g := v.state[key]
	if g == nil {
		g = v.addGroup(key, keys)
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

// recomputeLocked rebuilds the whole state from snap and re-anchors the
// cursors at snap's change marks.
func (v *View) recomputeLocked(snap *core.Snapshot) error {
	// Pessimistically sticky: cleared only when the rebuild completes, so a
	// recompute that itself fails mid-scan forces another one.
	v.needRecompute = true
	v.state = map[string]*group{}
	v.order = v.order[:0]
	for p := 0; p < snap.NumPartitions(); p++ {
		var foldErr error
		err := snap.ScanPartition(p, func(row sqltypes.Row) bool {
			_, foldErr = v.foldRow(row)
			return foldErr == nil
		})
		if err == nil {
			err = foldErr
		}
		if err != nil {
			return err
		}
	}
	n := v.def.Base.NumPartitions()
	if len(v.cursors) != n {
		v.cursors = make([]int64, n)
	}
	for p := 0; p < n; p++ {
		mark := snap.ChangeMark(p)
		if mark < 0 {
			mark = 0
		}
		v.cursors[p] = mark
	}
	v.version = snap.Version()
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

// groupKey evaluates the group expressions and encodes them as a map key.
func (v *View) groupKey(row sqltypes.Row) (string, sqltypes.Row, error) {
	if len(v.def.Groups) == 0 {
		return "", nil, nil
	}
	keys := make(sqltypes.Row, len(v.def.Groups))
	var buf []byte
	for i, g := range v.def.Groups {
		val, err := g.Eval(row)
		if err != nil {
			return "", nil, err
		}
		keys[i] = val
		buf = appendKey(buf, val)
	}
	return string(buf), keys, nil
}

func (v *View) addGroup(key string, keys sqltypes.Row) *group {
	g := &group{keys: keys, accs: make([]acc, len(v.def.Aggs))}
	if v.state == nil {
		v.state = map[string]*group{}
	}
	v.state[key] = g
	v.order = append(v.order, g)
	return g
}

// prune lets the registry drop change records every view has folded. Must
// be called without holding v.mu (the registry reads every view's
// cursors, including ours).
func (v *View) prune() {
	if v.reg != nil {
		v.reg.PruneBaseLog(v.def.Base)
	}
}

// ---------------------------------------------------------------------------
// State emission

// RefreshRows implements catalog.MaterializedView: refresh, then
// materialize the state rows (internal layout: groups then aggregates).
func (v *View) RefreshRows() ([]sqltypes.Row, error) {
	rows, err := v.refreshRows()
	if err != nil {
		return nil, err
	}
	v.prune()
	return rows, nil
}

func (v *View) refreshRows() ([]sqltypes.Row, error) {
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
