package expr

import (
	"fmt"

	"indexeddf/internal/sqltypes"
)

// Param is a prepared-statement placeholder (`?` in SQL), identified by its
// 0-based position in the statement. It binds no column, so it reports
// Resolved and survives analysis, which types it from the comparison or
// arithmetic that holds it. Plans keep the placeholder; each execution
// substitutes its argument (Bind), and evaluating an unbound parameter is
// an error.
type Param struct {
	Index int
	// T is the slot's type, taken from the placeholder's partner operand;
	// Unknown when nothing types it (the plan then runs it on rows).
	T sqltypes.Type
	// Exact marks an operand of arithmetic whose type reaches an output
	// column (a projection, grouping key or aggregate argument): that
	// column's type was fixed from T at planning, so the argument must
	// convert to T without loss. Any other slot — a comparison operand, or
	// arithmetic in a predicate or sort key — keeps a wider numeric
	// argument as given, as an ad-hoc literal would be.
	Exact bool
}

// NewParam builds the placeholder for 0-based position index.
func NewParam(index int) *Param { return &Param{Index: index} }

func (p *Param) String() string      { return fmt.Sprintf("?%d", p.Index+1) }
func (p *Param) Type() sqltypes.Type { return p.T }
func (p *Param) Resolved() bool      { return true }
func (p *Param) Children() []Expr    { return nil }
func (p *Param) WithChildren(c []Expr) (Expr, error) {
	if len(c) != 0 {
		return nil, fmt.Errorf("expr: parameter takes no children")
	}
	return p, nil
}
func (p *Param) Eval(sqltypes.Row) (sqltypes.Value, error) {
	return sqltypes.Null, fmt.Errorf("expr: unbound parameter ?%d (execute via a prepared statement)", p.Index+1)
}

// Bind returns the literal standing for p's argument in args. A NULL
// argument stays typed as the slot, so a kernel compiled around the slot
// still compiles (as an all-NULL constant); a numeric argument converts to
// a numeric slot when the conversion is exact. An argument that cannot
// compare with its slot's type is an error naming both types.
func (p *Param) Bind(args []sqltypes.Value) (Expr, error) {
	if p.Index >= len(args) {
		_, err := p.Eval(nil)
		return nil, err
	}
	v := args[p.Index]
	switch {
	case v.IsNull():
		return &Literal{T: p.T}, nil
	case p.T == sqltypes.Unknown || v.T == p.T:
		return Lit(v), nil
	case v.T.Numeric() && p.T.Numeric():
		if c, err := v.Cast(p.T); err == nil && sqltypes.Compare(c, v) == 0 {
			return Lit(c), nil
		}
		if !p.Exact {
			return Lit(v), nil
		}
	case sqltypes.Comparable(v.T, p.T):
		return Lit(v), nil
	}
	return nil, fmt.Errorf("expr: argument %d is %s, but ?%d takes %s", p.Index+1, v.T, p.Index+1, p.T)
}

// EqualityWithKeyConst recognizes the shapes the index-aware rules accept
// as a lookup key: `col = literal` and `col = ?` (either operand order).
// It returns the bound column and the key expression (a *Literal or
// *Param).
func EqualityWithKeyConst(e Expr) (col *Bound, key Expr, ok bool) {
	c, isCmp := e.(*Cmp)
	if !isCmp || c.Op != Eq {
		return nil, nil, false
	}
	isKey := func(x Expr) bool {
		switch x.(type) {
		case *Literal, *Param:
			return true
		}
		return false
	}
	if b, okL := c.L.(*Bound); okL && isKey(c.R) {
		return b, c.R, true
	}
	if b, okR := c.R.(*Bound); okR && isKey(c.L) {
		return b, c.L, true
	}
	return nil, nil, false
}
