package opt

import (
	"indexeddf/internal/expr"
	"indexeddf/internal/plan"
	"indexeddf/internal/sqltypes"
)

// Rule is one logical rewrite. A rule that does not fire must return its
// input node itself (the same pointer), never an equal rebuild: the
// fixpoint driver detects "nothing changed" by node identity. Transform
// and expr.Transform keep this contract when their callbacks do.
type Rule struct {
	Name  string
	Apply func(plan.Node) (plan.Node, error)
}

// DefaultRules is the logical optimization batch, applied in order to a
// fixpoint (bounded).
func DefaultRules() []Rule {
	return []Rule{
		{Name: "FoldConstants", Apply: foldConstants},
		{Name: "CombineFilters", Apply: combineFilters},
		{Name: "PushFilterBelowProject", Apply: pushFilterBelowProject},
		{Name: "PushFilterIntoJoin", Apply: pushFilterIntoJoin},
		{Name: "SimplifyFilters", Apply: simplifyFilters},
		{Name: "CombineLimits", Apply: combineLimits},
		{Name: "FuseTopN", Apply: fuseTopN},
	}
}

// Optimize runs the default logical rules to a bounded fixpoint.
// Planner.Optimize is the cost-aware variant sessions use; this stays
// for callers without a planner (view maintenance, tests).
func Optimize(n plan.Node) (plan.Node, error) {
	return optimizeWith(n, DefaultRules())
}

// optimizeWith runs a rule batch to a bounded fixpoint: it stops after
// the first pass in which every rule returned its input node.
func optimizeWith(n plan.Node, rules []Rule) (plan.Node, error) {
	for iter := 0; iter < 8; iter++ {
		changed := false
		for _, r := range rules {
			out, err := r.Apply(n)
			if err != nil {
				return nil, err
			}
			if out != n {
				changed = true
			}
			n = out
		}
		if !changed {
			break
		}
	}
	return n, nil
}

// foldConstants pre-evaluates constant sub-expressions everywhere.
func foldConstants(n plan.Node) (plan.Node, error) {
	return plan.Transform(n, func(node plan.Node) (plan.Node, error) {
		switch t := node.(type) {
		case *plan.Filter:
			f, err := expr.FoldConstants(t.Cond)
			if err != nil {
				return nil, err
			}
			if f != t.Cond {
				return plan.NewFilter(f, t.Child), nil
			}
		case *plan.Project:
			changed := false
			out := make([]expr.Expr, len(t.Exprs))
			for i, e := range t.Exprs {
				f, err := expr.FoldConstants(e)
				if err != nil {
					return nil, err
				}
				out[i] = f
				if f != e {
					changed = true
				}
			}
			if changed {
				return plan.NewProject(out, t.Child), nil
			}
		case *plan.Join:
			if t.Cond != nil {
				f, err := expr.FoldConstants(t.Cond)
				if err != nil {
					return nil, err
				}
				if f != t.Cond {
					return plan.NewJoin(t.Type, t.Left, t.Right, f), nil
				}
			}
		}
		return node, nil
	})
}

// combineFilters merges stacked filters into one conjunction.
func combineFilters(n plan.Node) (plan.Node, error) {
	return plan.Transform(n, func(node plan.Node) (plan.Node, error) {
		f, ok := node.(*plan.Filter)
		if !ok {
			return node, nil
		}
		inner, ok := f.Child.(*plan.Filter)
		if !ok {
			return node, nil
		}
		return plan.NewFilter(expr.And(inner.Cond, f.Cond), inner.Child), nil
	})
}

// pushFilterBelowProject swaps Filter(Project(x)) into Project(Filter(x))
// when the projection is a pure column selection, letting filters reach
// scans and joins.
func pushFilterBelowProject(n plan.Node) (plan.Node, error) {
	return plan.Transform(n, func(node plan.Node) (plan.Node, error) {
		f, ok := node.(*plan.Filter)
		if !ok {
			return node, nil
		}
		p, ok := f.Child.(*plan.Project)
		if !ok {
			return node, nil
		}
		// The projection must map output ordinals to input ordinals 1:1.
		mapping := make([]int, len(p.Exprs))
		for i, e := range p.Exprs {
			b := unwrapBound(e)
			if b == nil {
				return node, nil
			}
			mapping[i] = b.Ordinal
		}
		rewritten, err := expr.Transform(f.Cond, func(e expr.Expr) (expr.Expr, error) {
			if b, ok := e.(*expr.Bound); ok {
				src := mapping[b.Ordinal]
				inField := p.Child.Schema().Field(src)
				return expr.B(src, inField.Type, inField.Name), nil
			}
			return e, nil
		})
		if err != nil {
			return nil, err
		}
		return plan.NewProject(p.Exprs, plan.NewFilter(rewritten, p.Child)), nil
	})
}

func unwrapBound(e expr.Expr) *expr.Bound {
	switch t := e.(type) {
	case *expr.Bound:
		return t
	case *expr.Alias:
		return unwrapBound(t.E)
	}
	return nil
}

// pushFilterIntoJoin moves single-side conjuncts of a filter above a join
// into the corresponding join input (inner joins; left side only for left
// outer joins).
func pushFilterIntoJoin(n plan.Node) (plan.Node, error) {
	return plan.Transform(n, func(node plan.Node) (plan.Node, error) {
		f, ok := node.(*plan.Filter)
		if !ok {
			return node, nil
		}
		j, ok := f.Child.(*plan.Join)
		if !ok {
			return node, nil
		}
		leftLen := j.Left.Schema().Len()
		var leftConj, rightConj, keep []expr.Expr
		for _, c := range expr.SplitConjunction(f.Cond) {
			lo, hi := ordinalRange(c)
			switch {
			case lo < 0:
				keep = append(keep, c) // no column refs; leave in place
			case hi < leftLen:
				leftConj = append(leftConj, c)
			case lo >= leftLen && j.Type == plan.InnerJoin:
				shifted, err := expr.Shift(c, -leftLen)
				if err != nil {
					return nil, err
				}
				rightConj = append(rightConj, shifted)
			default:
				keep = append(keep, c)
			}
		}
		if len(leftConj) == 0 && len(rightConj) == 0 {
			return node, nil
		}
		left, right := j.Left, j.Right
		if len(leftConj) > 0 {
			left = plan.NewFilter(expr.JoinConjuncts(leftConj), left)
		}
		if len(rightConj) > 0 {
			right = plan.NewFilter(expr.JoinConjuncts(rightConj), right)
		}
		var out plan.Node = plan.NewJoin(j.Type, left, right, j.Cond)
		if len(keep) > 0 {
			out = plan.NewFilter(expr.JoinConjuncts(keep), out)
		}
		return out, nil
	})
}

// ordinalRange returns the min and max bound ordinals in e, or (-1, -1).
func ordinalRange(e expr.Expr) (lo, hi int) {
	lo, hi = -1, -1
	expr.Walk(e, func(n expr.Expr) bool {
		if b, ok := n.(*expr.Bound); ok {
			if lo < 0 || b.Ordinal < lo {
				lo = b.Ordinal
			}
			if b.Ordinal > hi {
				hi = b.Ordinal
			}
		}
		return true
	})
	return lo, hi
}

// simplifyFilters removes literally-true filters (constant folding may
// produce them).
func simplifyFilters(n plan.Node) (plan.Node, error) {
	return plan.Transform(n, func(node plan.Node) (plan.Node, error) {
		f, ok := node.(*plan.Filter)
		if !ok {
			return node, nil
		}
		if lit, ok := f.Cond.(*expr.Literal); ok {
			if lit.V.T == sqltypes.Bool && lit.V.Bool() {
				return f.Child, nil
			}
		}
		return node, nil
	})
}

// combineLimits collapses Limit(Limit(x)) to the smaller bound.
func combineLimits(n plan.Node) (plan.Node, error) {
	return plan.Transform(n, func(node plan.Node) (plan.Node, error) {
		l, ok := node.(*plan.Limit)
		if !ok {
			return node, nil
		}
		inner, ok := l.Child.(*plan.Limit)
		if !ok {
			return node, nil
		}
		min := l.N
		if inner.N < min {
			min = inner.N
		}
		return plan.NewLimit(min, inner.Child), nil
	})
}

// fuseTopN recognizes ORDER BY ... LIMIT n — a Limit directly over a Sort
// — as a TopN node, the shape the physical layer can execute with bounded
// per-partition heaps instead of a full global sort. A Limit over an
// already-fused TopN tightens its bound (CombineLimits for the fused form).
func fuseTopN(n plan.Node) (plan.Node, error) {
	return plan.Transform(n, func(node plan.Node) (plan.Node, error) {
		l, ok := node.(*plan.Limit)
		if !ok {
			return node, nil
		}
		switch c := l.Child.(type) {
		case *plan.Sort:
			return plan.NewTopN(c.Orders, l.N, c.Child), nil
		case *plan.TopN:
			min := l.N
			if c.N < min {
				min = c.N
			}
			return plan.NewTopN(c.Orders, min, c.Child), nil
		}
		return node, nil
	})
}
