package expr

import (
	"fmt"

	"indexeddf/internal/sqltypes"
)

// Transform rewrites the tree bottom-up: children first, then fn on the
// rebuilt node. A node none of whose children changed is passed to fn as
// itself, and a walk that changes nothing allocates nothing.
func Transform(e Expr, fn func(Expr) (Expr, error)) (Expr, error) {
	children := e.Children()
	var newChildren []Expr // allocated at the first changed child
	for i, c := range children {
		nc, err := Transform(c, fn)
		if err != nil {
			return nil, err
		}
		if nc != c && newChildren == nil {
			newChildren = make([]Expr, len(children))
			copy(newChildren, children[:i])
		}
		if newChildren != nil {
			newChildren[i] = nc
		}
	}
	if newChildren != nil {
		var err error
		if e, err = e.WithChildren(newChildren); err != nil {
			return nil, err
		}
	}
	return fn(e)
}

// Walk visits the tree top-down, stopping a subtree when fn returns false.
func Walk(e Expr, fn func(Expr) bool) {
	if !fn(e) {
		return
	}
	for _, c := range e.Children() {
		Walk(c, fn)
	}
}

// Bind resolves all column references in e against schema, returning a tree
// of Bound references ready for evaluation.
func Bind(e Expr, schema *sqltypes.Schema) (Expr, error) {
	return Transform(e, func(n Expr) (Expr, error) {
		c, ok := n.(*Col)
		if !ok {
			return n, nil
		}
		i := schema.IndexOf(c.Name)
		if i < 0 {
			return nil, fmt.Errorf("expr: column %q not found in %s", c.Name, schema)
		}
		f := schema.Field(i)
		return B(i, f.Type, f.Name), nil
	})
}

// Shift rebases every Bound reference by delta ordinals; used when an
// expression bound against a join's right side must evaluate against the
// concatenated row.
func Shift(e Expr, delta int) (Expr, error) {
	return Transform(e, func(n Expr) (Expr, error) {
		if b, ok := n.(*Bound); ok {
			return B(b.Ordinal+delta, b.T, b.Name), nil
		}
		return n, nil
	})
}

// FoldConstants pre-evaluates constant subtrees (no column references) into
// literals — one of the optimizer's logical rules.
func FoldConstants(e Expr) (Expr, error) {
	return Transform(e, func(n Expr) (Expr, error) {
		switch n.(type) {
		case *Literal, *Col, *Bound, *Alias:
			return n, nil
		}
		if !constant(n) {
			return n, nil
		}
		v, err := n.Eval(nil)
		if err != nil {
			// Leave the node for runtime (e.g. cast error surfaces there).
			return n, nil //nolint:nilerr
		}
		return Lit(v), nil
	})
}

func constant(e Expr) bool {
	ok := true
	Walk(e, func(n Expr) bool {
		switch n.(type) {
		case *Col, *Bound, *Param:
			// Params are constant only once bound; folding them would
			// evaluate the placeholder error.
			ok = false
			return false
		}
		return true
	})
	return ok
}

// SplitConjunction flattens nested ANDs into a list of conjuncts.
func SplitConjunction(e Expr) []Expr {
	if lg, ok := e.(*Logic); ok && lg.Op == AndOp {
		return append(SplitConjunction(lg.L), SplitConjunction(lg.R)...)
	}
	return []Expr{e}
}

// JoinConjuncts rebuilds a conjunction from a list (nil for empty).
func JoinConjuncts(conjuncts []Expr) Expr {
	var out Expr
	for _, c := range conjuncts {
		if out == nil {
			out = c
		} else {
			out = And(out, c)
		}
	}
	return out
}

// ReferencedColumns returns the set of unresolved column names in e.
func ReferencedColumns(e Expr) map[string]bool {
	out := map[string]bool{}
	Walk(e, func(n Expr) bool {
		if c, ok := n.(*Col); ok {
			out[c.Name] = true
		}
		return true
	})
	return out
}

// ReferencedOrdinals returns the set of bound ordinals in e.
func ReferencedOrdinals(e Expr) map[int]bool {
	out := map[int]bool{}
	Walk(e, func(n Expr) bool {
		if b, ok := n.(*Bound); ok {
			out[b.Ordinal] = true
		}
		return true
	})
	return out
}

// MaxOrdinal returns the largest bound ordinal in e, or -1.
func MaxOrdinal(e Expr) int {
	max := -1
	Walk(e, func(n Expr) bool {
		if b, ok := n.(*Bound); ok && b.Ordinal > max {
			max = b.Ordinal
		}
		return true
	})
	return max
}

// ColumnEquality recognizes `bound = bound` equi-join conditions, returning
// both sides.
func ColumnEquality(e Expr) (l, r *Bound, ok bool) {
	c, isCmp := e.(*Cmp)
	if !isCmp || c.Op != Eq {
		return nil, nil, false
	}
	lb, okL := c.L.(*Bound)
	rb, okR := c.R.(*Bound)
	if okL && okR {
		return lb, rb, true
	}
	return nil, nil, false
}

// EvalPredicate evaluates a boolean expression as a filter: true keeps the
// row; NULL and false drop it.
func EvalPredicate(e Expr, row sqltypes.Row) (bool, error) {
	v, err := e.Eval(row)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.Bool(), nil
}
