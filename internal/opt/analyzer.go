// Package opt implements the Catalyst-style query optimizer: an analyzer
// that binds column references, a batch of logical rewrite rules, and the
// physical planner whose index-aware strategies (the paper's §2
// contribution) route equality filters and equi-joins on indexed columns to
// the indexed physical operators, falling back to vanilla execution
// everywhere else.
package opt

import (
	"fmt"

	"indexeddf/internal/expr"
	"indexeddf/internal/plan"
	"indexeddf/internal/sqltypes"
)

// Analyze resolves every expression in the plan against its child schemas,
// bottom-up, and type-checks set operations. The result is a fully bound
// plan ready for optimization.
func Analyze(n plan.Node) (plan.Node, error) {
	return plan.Transform(n, func(node plan.Node) (plan.Node, error) {
		switch t := node.(type) {
		case *plan.Project:
			child := t.Child.Schema()
			if child == nil {
				return nil, fmt.Errorf("opt: project over unresolved child")
			}
			bound := make([]expr.Expr, len(t.Exprs))
			for i, e := range t.Exprs {
				b, err := bindExpr(e, child, true)
				if err != nil {
					return nil, err
				}
				bound[i] = b
			}
			return plan.NewProject(bound, t.Child), nil
		case *plan.Filter:
			child := t.Child.Schema()
			if child == nil {
				return nil, fmt.Errorf("opt: filter over unresolved child")
			}
			b, err := bindExpr(t.Cond, child, false)
			if err != nil {
				return nil, err
			}
			if bt := b.Type(); bt != sqltypes.Bool && bt != sqltypes.Unknown {
				return nil, fmt.Errorf("opt: filter condition %s has type %s, want BOOLEAN", b, bt)
			}
			return plan.NewFilter(b, t.Child), nil
		case *plan.Join:
			if t.Cond == nil {
				return node, nil
			}
			js := t.Schema()
			if js == nil {
				return nil, fmt.Errorf("opt: join over unresolved children")
			}
			b, err := bindExpr(t.Cond, js, false)
			if err != nil {
				return nil, err
			}
			return plan.NewJoin(t.Type, t.Left, t.Right, b), nil
		case *plan.Aggregate:
			child := t.Child.Schema()
			if child == nil {
				return nil, fmt.Errorf("opt: aggregate over unresolved child")
			}
			groups := make([]expr.Expr, len(t.Groups))
			for i, g := range t.Groups {
				b, err := bindExpr(g, child, true)
				if err != nil {
					return nil, err
				}
				groups[i] = b
			}
			aggs := make([]expr.Agg, len(t.Aggs))
			for i, a := range t.Aggs {
				aggs[i] = a
				if a.Arg != nil {
					b, err := bindExpr(a.Arg, child, true)
					if err != nil {
						return nil, err
					}
					aggs[i].Arg = b
					if err := checkAggArgTyped(aggs[i]); err != nil {
						return nil, err
					}
				}
			}
			return plan.NewAggregate(groups, aggs, t.Child), nil
		case *plan.Sort:
			child := t.Child.Schema()
			if child == nil {
				return nil, fmt.Errorf("opt: sort over unresolved child")
			}
			orders := make([]plan.SortOrder, len(t.Orders))
			for i, o := range t.Orders {
				b, err := bindExpr(o.Expr, child, false)
				if err != nil {
					return nil, err
				}
				orders[i] = plan.SortOrder{Expr: b, Desc: o.Desc}
			}
			return plan.NewSort(orders, t.Child), nil
		case *plan.Union:
			if len(t.Inputs) == 0 {
				return nil, fmt.Errorf("opt: empty union")
			}
			first := t.Inputs[0].Schema()
			for _, in := range t.Inputs[1:] {
				s := in.Schema()
				if s == nil || s.Len() != first.Len() {
					return nil, fmt.Errorf("opt: union inputs have mismatched arity")
				}
				for i := range s.Fields {
					if s.Fields[i].Type != first.Fields[i].Type {
						return nil, fmt.Errorf("opt: union column %d type mismatch: %s vs %s",
							i, s.Fields[i].Type, first.Fields[i].Type)
					}
				}
			}
			return node, nil
		default:
			return node, nil
		}
	})
}

// bindExpr binds e against schema unless it is already resolved, then
// types its placeholders (typeParams). output says whether e's type
// reaches an output column (a projection, grouping key or aggregate
// argument) rather than only a predicate or sort key.
func bindExpr(e expr.Expr, schema *sqltypes.Schema, output bool) (expr.Expr, error) {
	if !e.Resolved() {
		var err error
		if e, err = expr.Bind(e, schema); err != nil {
			return nil, err
		}
	}
	return typeParams(e, output)
}

// typeParams gives each `?` that is an operand of a comparison or of
// arithmetic its partner's type — go-mysql-server's rule that a
// placeholder takes its type hint from its parent — so prepared plans
// vectorize as their ad-hoc twins do. IN lists and BETWEEN arrive lowered
// to those two nodes. An untyped NULL literal is typed the same way, so
// `val < NULL` plans as its prepared twin with a NULL argument. A `?` in
// arithmetic whose type reaches an output column (exact) is marked Exact:
// that column's type is fixed here, so the argument may not widen it.
// Below a comparison the result is a boolean whatever the operand types,
// and operators compile their kernels from the bound expression. It also
// rejects a comparison whose operand types share no family
// (sqltypes.Comparable): Compare would read a payload lane the other value
// never set.
func typeParams(e expr.Expr, exact bool) (expr.Expr, error) {
	_, isCmp := e.(*expr.Cmp)
	kids := e.Children()
	typed := make([]expr.Expr, len(kids))
	changed := false
	for i, k := range kids {
		var err error
		if typed[i], err = typeParams(k, exact && !isCmp); err != nil {
			return nil, err
		}
		changed = changed || typed[i] != k
	}
	if changed {
		var err error
		if e, err = e.WithChildren(typed); err != nil {
			return nil, err
		}
	}
	switch t := e.(type) {
	case *expr.Cmp:
		l, r := hint(t.L, t.R, false), hint(t.R, t.L, false)
		if !sqltypes.Comparable(l.Type(), r.Type()) {
			return nil, fmt.Errorf("opt: cannot compare %s (%s) with %s (%s)", l, l.Type(), r, r.Type())
		}
		if l != t.L || r != t.R {
			return expr.NewCmp(t.Op, l, r), nil
		}
	case *expr.Arith:
		if l, r := hint(t.L, t.R, exact), hint(t.R, t.L, exact); l != t.L || r != t.R {
			return expr.NewArith(t.Op, l, r), nil
		}
	}
	return e, nil
}

// checkAggArgTyped rejects a SUM, MIN or MAX whose argument holds a `?`
// that nothing typed: the aggregate's result type, fixed here for the
// plan's schemas, would follow each execution's argument.
func checkAggArgTyped(a expr.Agg) error {
	untyped := false
	expr.Walk(a.Arg, func(n expr.Expr) bool {
		p, ok := n.(*expr.Param)
		untyped = untyped || ok && p.T == sqltypes.Unknown
		return true
	})
	if untyped && a.Arg.Type() == sqltypes.Unknown && a.Func != expr.CountAgg && a.Func != expr.AvgAgg {
		return fmt.Errorf("opt: cannot determine the type of the placeholder in %s; cast it, e.g. CAST(? AS DOUBLE)", a)
	}
	return nil
}

// hint types e from its partner when e is a still-untyped placeholder or
// NULL literal.
func hint(e, partner expr.Expr, exact bool) expr.Expr {
	if t := partner.Type(); t.Valid() && e.Type() == sqltypes.Unknown {
		switch n := e.(type) {
		case *expr.Param:
			return &expr.Param{Index: n.Index, T: t, Exact: exact}
		case *expr.Literal:
			return &expr.Literal{T: t}
		}
	}
	return e
}
