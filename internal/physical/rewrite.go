package physical

import (
	"fmt"

	"indexeddf/internal/expr"
	"indexeddf/internal/sqltypes"
)

// RewriteExprs rebuilds a physical plan with fn applied (via expr.Transform)
// to every expression it carries — filter conditions, projections, group
// keys, aggregate arguments, sort orders, join residuals and index-lookup
// keys. A rebuilt node keeps every strategy field the planner set on it.
// Untouched subtrees are shared with the input plan, so a rewrite of
// a cached plan is cheap and the cached original stays intact; that is
// what lets one compiled prepared statement serve concurrent executions
// with different bindings.
func RewriteExprs(e Exec, fn func(expr.Expr) (expr.Expr, error)) (Exec, error) {
	rw := func(x expr.Expr) (expr.Expr, error) {
		if x == nil {
			return nil, nil
		}
		return expr.Transform(x, fn)
	}
	rwList := func(xs []expr.Expr) ([]expr.Expr, bool, error) {
		changed := false
		out := make([]expr.Expr, len(xs))
		for i, x := range xs {
			nx, err := rw(x)
			if err != nil {
				return nil, false, err
			}
			out[i] = nx
			if nx != x {
				changed = true
			}
		}
		if !changed {
			return xs, false, nil
		}
		return out, true, nil
	}
	rwAggs := func(as []expr.Agg) ([]expr.Agg, bool, error) {
		changed := false
		out := make([]expr.Agg, len(as))
		for i, a := range as {
			out[i] = a
			if a.Arg == nil {
				continue
			}
			na, err := rw(a.Arg)
			if err != nil {
				return nil, false, err
			}
			out[i].Arg = na
			if na != a.Arg {
				changed = true
			}
		}
		if !changed {
			return as, false, nil
		}
		return out, true, nil
	}

	switch t := e.(type) {
	case *FilterExec:
		child, cc, err := rewriteChild(t.Child, fn)
		if err != nil {
			return nil, err
		}
		cond, err := rw(t.Cond)
		if err != nil {
			return nil, err
		}
		if !cc && cond == t.Cond {
			return t, nil
		}
		return NewFilter(child, cond), nil
	case *VecFilterExec:
		child, cc, err := rewriteChild(t.Child, fn)
		if err != nil {
			return nil, err
		}
		cond, err := rw(t.Cond)
		if err != nil {
			return nil, err
		}
		if !cc && cond == t.Cond {
			return t, nil
		}
		nf := *t // keep the planner's strategy fields (Adaptive)
		nf.Child, nf.Cond = child, cond
		return &nf, nil
	case *ProjectExec:
		child, cc, err := rewriteChild(t.Child, fn)
		if err != nil {
			return nil, err
		}
		exprs, ec, err := rwList(t.Exprs)
		if err != nil {
			return nil, err
		}
		if !cc && !ec {
			return t, nil
		}
		return NewProject(child, exprs, t.Schema()), nil
	case *VecProjectExec:
		child, cc, err := rewriteChild(t.Child, fn)
		if err != nil {
			return nil, err
		}
		exprs, ec, err := rwList(t.Exprs)
		if err != nil {
			return nil, err
		}
		if !cc && !ec {
			return t, nil
		}
		return NewVecProject(child, exprs, t.Schema()), nil
	case *HashAggExec:
		child, cc, err := rewriteChild(t.Child, fn)
		if err != nil {
			return nil, err
		}
		groups, gc, err := rwList(t.Groups)
		if err != nil {
			return nil, err
		}
		aggs, ac, err := rwAggs(t.Aggs)
		if err != nil {
			return nil, err
		}
		if !cc && !gc && !ac {
			return t, nil
		}
		return NewHashAgg(child, groups, aggs, t.Mode, t.Schema()), nil
	case *VecHashAggExec:
		child, cc, err := rewriteChild(t.Child, fn)
		if err != nil {
			return nil, err
		}
		groups, gc, err := rwList(t.Groups)
		if err != nil {
			return nil, err
		}
		aggs, ac, err := rwAggs(t.Aggs)
		if err != nil {
			return nil, err
		}
		if !cc && !gc && !ac {
			return t, nil
		}
		return NewVecHashAgg(child, groups, aggs, t.Mode, t.Schema()), nil
	case *SortExec:
		child, cc, err := rewriteChild(t.Child, fn)
		if err != nil {
			return nil, err
		}
		orders, oc, err := rewriteOrders(t.Orders, rw)
		if err != nil {
			return nil, err
		}
		if !cc && !oc {
			return t, nil
		}
		return NewSort(child, orders), nil
	case *VecSortExec:
		child, cc, err := rewriteChild(t.Child, fn)
		if err != nil {
			return nil, err
		}
		orders, oc, err := rewriteOrders(t.Orders, rw)
		if err != nil {
			return nil, err
		}
		if !cc && !oc {
			return t, nil
		}
		ns := *t // keep the planner's strategy fields (Parallel)
		ns.Child, ns.Orders = child, orders
		return &ns, nil
	case *VecTopNExec:
		child, cc, err := rewriteChild(t.Child, fn)
		if err != nil {
			return nil, err
		}
		orders, oc, err := rewriteOrders(t.Orders, rw)
		if err != nil {
			return nil, err
		}
		if !cc && !oc {
			return t, nil
		}
		return NewVecTopN(child, orders, t.N), nil
	case *LimitExec:
		child, cc, err := rewriteChild(t.Child, fn)
		if err != nil {
			return nil, err
		}
		if !cc {
			return t, nil
		}
		return NewLimit(child, t.N), nil
	case *ExchangeExec:
		child, cc, err := rewriteChild(t.Child, fn)
		if err != nil {
			return nil, err
		}
		if !cc {
			return t, nil
		}
		return NewExchange(child, t.Keys, t.NumPartitions), nil
	case *VecExchangeExec:
		child, cc, err := rewriteChild(t.Child, fn)
		if err != nil {
			return nil, err
		}
		if !cc {
			return t, nil
		}
		return NewVecExchange(child, t.Keys, t.NumPartitions), nil
	case *UnionExec:
		changed := false
		ins := make([]Exec, len(t.Inputs))
		for i, in := range t.Inputs {
			ni, ic, err := rewriteChild(in, fn)
			if err != nil {
				return nil, err
			}
			ins[i] = ni
			changed = changed || ic
		}
		if !changed {
			return t, nil
		}
		return NewUnion(ins...), nil
	case *IndexLookupExec:
		key, err := rw(t.Key)
		if err != nil {
			return nil, err
		}
		res, err := rw(t.Residual)
		if err != nil {
			return nil, err
		}
		if key == t.Key && res == t.Residual {
			return t, nil
		}
		return NewIndexLookupKeyExpr(t.Table, key, res, t.Schema()), nil
	case *ShuffleHashJoinExec:
		left, lc, err := rewriteChild(t.Left, fn)
		if err != nil {
			return nil, err
		}
		right, rc, err := rewriteChild(t.Right, fn)
		if err != nil {
			return nil, err
		}
		res, err := rw(t.Residual)
		if err != nil {
			return nil, err
		}
		if !lc && !rc && res == t.Residual {
			return t, nil
		}
		return NewShuffleHashJoin(left, right, t.LeftKeys, t.RightKeys, t.Type, res, t.NumPartitions), nil
	case *VecShuffleHashJoinExec:
		left, lc, err := rewriteChild(t.Left, fn)
		if err != nil {
			return nil, err
		}
		right, rc, err := rewriteChild(t.Right, fn)
		if err != nil {
			return nil, err
		}
		res, err := rw(t.Residual)
		if err != nil {
			return nil, err
		}
		if !lc && !rc && res == t.Residual {
			return t, nil
		}
		return NewVecShuffleHashJoin(left, right, t.LeftKeys, t.RightKeys, res, t.NumPartitions), nil
	case *BroadcastHashJoinExec:
		stream, sc, err := rewriteChild(t.Stream, fn)
		if err != nil {
			return nil, err
		}
		build, bc, err := rewriteChild(t.Build, fn)
		if err != nil {
			return nil, err
		}
		res, err := rw(t.Residual)
		if err != nil {
			return nil, err
		}
		if !sc && !bc && res == t.Residual {
			return t, nil
		}
		return NewBroadcastHashJoin(stream, build, t.StreamKeys, t.BuildKeys, t.BuildIsRight, t.Type, res), nil
	case *VecBroadcastHashJoinExec:
		stream, sc, err := rewriteChild(t.Stream, fn)
		if err != nil {
			return nil, err
		}
		build, bc, err := rewriteChild(t.Build, fn)
		if err != nil {
			return nil, err
		}
		res, err := rw(t.Residual)
		if err != nil {
			return nil, err
		}
		if !sc && !bc && res == t.Residual {
			return t, nil
		}
		return NewVecBroadcastHashJoin(stream, build, t.StreamKeys, t.BuildKeys, t.BuildIsRight, res), nil
	case *IndexedJoinExec:
		probe, pc, err := rewriteChild(t.Probe, fn)
		if err != nil {
			return nil, err
		}
		res, err := rw(t.Residual)
		if err != nil {
			return nil, err
		}
		if !pc && res == t.Residual {
			return t, nil
		}
		return NewIndexedJoin(t.Indexed, probe, t.ProbeKey, t.IndexedIsLeft, t.Broadcast, t.Type, res, t.Schema()), nil
	case *VecIndexedJoinExec:
		probe, pc, err := rewriteChild(t.Probe, fn)
		if err != nil {
			return nil, err
		}
		res, err := rw(t.Residual)
		if err != nil {
			return nil, err
		}
		if !pc && res == t.Residual {
			return t, nil
		}
		return NewVecIndexedJoin(t.Indexed, probe, t.ProbeKey, t.IndexedIsLeft, t.Broadcast, res, t.Schema()), nil
	case *NestedLoopJoinExec:
		left, lc, err := rewriteChild(t.Left, fn)
		if err != nil {
			return nil, err
		}
		right, rc, err := rewriteChild(t.Right, fn)
		if err != nil {
			return nil, err
		}
		cond, err := rw(t.Cond)
		if err != nil {
			return nil, err
		}
		if !lc && !rc && cond == t.Cond {
			return t, nil
		}
		return NewNestedLoopJoin(left, right, t.Type, cond), nil
	default:
		// Expression-free leaves: scans, values, view scans.
		return e, nil
	}
}

// rewriteOrders applies rw to every sort-order expression, reporting
// whether any changed.
func rewriteOrders(orders []SortOrder, rw func(expr.Expr) (expr.Expr, error)) ([]SortOrder, bool, error) {
	changed := false
	out := make([]SortOrder, len(orders))
	for i, o := range orders {
		no, err := rw(o.Expr)
		if err != nil {
			return nil, false, err
		}
		out[i] = SortOrder{Expr: no, Desc: o.Desc}
		if no != o.Expr {
			changed = true
		}
	}
	if !changed {
		return orders, false, nil
	}
	return out, true, nil
}

// rewriteChild recurses and reports whether the subtree changed.
func rewriteChild(e Exec, fn func(expr.Expr) (expr.Expr, error)) (Exec, bool, error) {
	n, err := RewriteExprs(e, fn)
	if err != nil {
		return nil, false, err
	}
	return n, n != e, nil
}

// BindParams substitutes prepared-statement arguments for the plan's
// parameter placeholders, returning a new plan that shares every
// parameter-free subtree with the template. numParams is the statement's
// declared placeholder count (from parsing), validated against args.
func BindParams(e Exec, numParams int, args []sqltypes.Value) (Exec, error) {
	if len(args) != numParams {
		return nil, fmt.Errorf("physical: statement takes %d parameters, got %d", numParams, len(args))
	}
	if numParams == 0 {
		return e, nil
	}
	return RewriteExprs(e, func(x expr.Expr) (expr.Expr, error) {
		p, ok := x.(*expr.Param)
		if !ok {
			return x, nil
		}
		if p.Index < 0 || p.Index >= len(args) {
			return nil, fmt.Errorf("physical: parameter ?%d out of range (%d bound)", p.Index+1, len(args))
		}
		return expr.Lit(args[p.Index]), nil
	})
}
