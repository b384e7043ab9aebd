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
				b, err := bindExpr(e, child)
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
			b, err := bindExpr(t.Cond, child)
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
			b, err := bindExpr(t.Cond, js)
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
				b, err := bindExpr(g, child)
				if err != nil {
					return nil, err
				}
				groups[i] = b
			}
			aggs := make([]expr.Agg, len(t.Aggs))
			for i, a := range t.Aggs {
				aggs[i] = a
				if a.Arg != nil {
					b, err := bindExpr(a.Arg, child)
					if err != nil {
						return nil, err
					}
					aggs[i].Arg = b
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
				b, err := bindExpr(o.Expr, child)
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
// types its untyped NULLs and checks its comparisons (typeNulls).
func bindExpr(e expr.Expr, schema *sqltypes.Schema) (expr.Expr, error) {
	if !e.Resolved() {
		var err error
		if e, err = expr.Bind(e, schema); err != nil {
			return nil, err
		}
	}
	return typeNulls(e)
}

// typeNulls gives each untyped NULL that is an operand of a comparison or
// of arithmetic its partner's type (go-mysql-server's rule that an untyped
// operand takes its type hint from its parent), so `val < NULL` compiles
// to a typed kernel. An untyped NULL is a NULL literal, or a `?` whose
// argument is NULL or not given; every other `?` has its argument's type.
// IN lists and BETWEEN arrive lowered to those two nodes. It also rejects
// a comparison whose operand types share no family
// (sqltypes.Comparable): Compare would read a payload lane the other value
// never set.
func typeNulls(e expr.Expr) (expr.Expr, error) {
	return expr.Transform(e, func(n expr.Expr) (expr.Expr, error) {
		switch t := n.(type) {
		case *expr.Cmp:
			l, r := hint(t.L, t.R), hint(t.R, t.L)
			if !sqltypes.Comparable(l.Type(), r.Type()) {
				return nil, compareError(l, r)
			}
			if l != t.L || r != t.R {
				return expr.NewCmp(t.Op, l, r), nil
			}
		case *expr.Arith:
			if l, r := hint(t.L, t.R), hint(t.R, t.L); l != t.L || r != t.R {
				return expr.NewArith(t.Op, l, r), nil
			}
		}
		return n, nil
	})
}

// compareError names a user's argument when one side is a `?`.
func compareError(l, r expr.Expr) error {
	if p, ok := r.(*expr.Param); ok && !p.Lifted {
		l, r = r, l
	}
	if p, ok := l.(*expr.Param); ok && !p.Lifted {
		return fmt.Errorf("opt: argument %d is %s, which cannot compare with %s (%s)", p.Index+1, p.T, r, r.Type())
	}
	return fmt.Errorf("opt: cannot compare %s (%s) with %s (%s)", l, l.Type(), r, r.Type())
}

// hint types e from its partner when e is an untyped NULL.
func hint(e, partner expr.Expr) expr.Expr {
	if t := partner.Type(); t.Valid() && e.Type() == sqltypes.Unknown {
		switch n := e.(type) {
		case *expr.Param:
			return &expr.Param{Index: n.Index, T: t}
		case *expr.Literal:
			return &expr.Literal{T: t}
		}
	}
	return e
}
