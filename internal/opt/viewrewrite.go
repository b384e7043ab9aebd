package opt

import (
	"indexeddf/internal/catalog"
	"indexeddf/internal/expr"
	"indexeddf/internal/physical"
	"indexeddf/internal/plan"
)

// tryViewScan is the materialized-view rewrite: an aggregation whose input
// is (optionally a filter over) an indexed base relation, and whose
// filter/groups/aggregates match a registered view, plans as a scan of the
// view's delta-maintained accumulator state instead of a
// scan→filter→partial/exchange/final aggregate over the table.
//
// Matching is canonical (ordinal-based, alias-insensitive) and requires
// the view to cover every requested aggregate; the view may maintain more,
// in which case only the matched columns are projected. The first matching
// view in name order wins. The NoViewRewrite ablation turns it off to force
// the from-scratch plan.
func (pl *Planner) tryViewScan(a *plan.Aggregate) (physical.Exec, bool) {
	if pl.cfg.Ablate.Has(NoViewRewrite) || pl.cfg.Views == nil {
		return nil, false
	}
	child := a.Child
	var filter expr.Expr
	if f, ok := child.(*plan.Filter); ok {
		filter = f.Cond
		child = f.Child
	}
	rel, ok := child.(*plan.Relation)
	if !ok {
		return nil, false
	}
	it, ok := rel.Table.(*catalog.IndexedTable)
	if !ok {
		return nil, false
	}
	for _, mv := range pl.cfg.Views.List() {
		if cols, ok := mv.MatchesAggregate(it.Core(), filter, a.Groups, a.Aggs); ok {
			return physical.NewViewScan(mv, cols, a.Schema()), true
		}
	}
	return nil, false
}

// AnsweredFromView walks a physical plan and returns the materialized
// views any ViewScan operators read from (EXPLAIN annotates with this).
func AnsweredFromView(e physical.Exec) []catalog.MaterializedView {
	var out []catalog.MaterializedView
	var rec func(physical.Exec)
	rec = func(n physical.Exec) {
		switch t := n.(type) {
		case *physical.ViewScanExec:
			out = append(out, t.View)
		case *physical.VecViewScanExec:
			out = append(out, t.View)
		}
		for _, c := range n.Children() {
			rec(c)
		}
	}
	rec(e)
	return out
}
