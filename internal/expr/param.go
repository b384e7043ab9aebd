package expr

import (
	"fmt"
	"strconv"
	"strings"

	"indexeddf/internal/sqltypes"
)

// Param is an argument slot, identified by its 0-based position in the
// execution's argument list. A user's `?` is a Param, and so is every
// literal the session lifts out of a plan before looking it up in the
// plan cache (Lifted). Its type is its argument's type, fixed when the
// plan is compiled for that argument-type tuple; a `?` bound to NULL is
// typed by analysis, as a NULL literal is. It binds no column, so
// it reports Resolved and survives analysis. Plans keep the slot; each
// execution substitutes its argument (Bind), and evaluating an unbound
// parameter is an error.
type Param struct {
	Index int
	T     sqltypes.Type
	// Lifted marks a slot that stands for one of the plan's own literals
	// rather than a user's `?`: rendered plans print its value
	// (FormatArgs), not a placeholder.
	Lifted bool
}

// NewParam builds the placeholder for 0-based position index.
func NewParam(index int) *Param { return &Param{Index: index} }

// liftedMark brackets a lifted slot's index in a rendered plan until
// FormatArgs replaces it with the argument's value. It cannot occur in an
// identifier, and a kept literal would need a NUL byte to forge one.
const liftedMark = '\x00'

func (p *Param) String() string {
	if p.Lifted {
		return string(liftedMark) + strconv.Itoa(p.Index) + string(liftedMark)
	}
	return fmt.Sprintf("?%d", p.Index+1)
}
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

// Bind returns the literal standing for p's argument in args. The plan
// was compiled for the argument's type, so the value goes in as given; a
// NULL keeps the type analysis gave its slot, so a kernel compiled around
// the slot still compiles (as an all-NULL constant).
func (p *Param) Bind(args []sqltypes.Value) (Expr, error) {
	if p.Index >= len(args) {
		_, err := p.Eval(nil)
		return nil, err
	}
	if v := args[p.Index]; !v.IsNull() {
		return Lit(v), nil
	}
	return &Literal{T: p.T}, nil
}

// FormatArgs renders a plan string for one execution: every lifted slot
// printed by Param.String becomes its argument's literal, so a lifted
// literal reads as the value it was. A user's `?N` stays as it is.
func FormatArgs(s string, args []sqltypes.Value) string {
	if strings.IndexByte(s, liftedMark) < 0 {
		return s
	}
	var sb strings.Builder
	for {
		i := strings.IndexByte(s, liftedMark)
		if i < 0 {
			break
		}
		j := strings.IndexByte(s[i+1:], liftedMark)
		if j < 0 {
			break
		}
		sb.WriteString(s[:i])
		mark := s[i : i+j+2]
		if n, err := strconv.Atoi(mark[1 : len(mark)-1]); err == nil && n < len(args) {
			sb.WriteString(Lit(args[n]).String())
		} else {
			sb.WriteString(mark)
		}
		s = s[i+j+2:]
	}
	sb.WriteString(s)
	return sb.String()
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
