// Package expr implements the expression trees shared by the logical and
// physical layers: column references, literals, comparison, arithmetic and
// boolean operators, scalar functions, and aggregate descriptors. It also
// provides name resolution (binding) against schemas, SQL three-valued
// evaluation, and constant folding.
package expr

import (
	"fmt"
	"strings"

	"indexeddf/internal/sqltypes"
)

// Expr is a node of an expression tree. Expressions are immutable;
// transformations build new trees.
type Expr interface {
	fmt.Stringer
	// Type returns the expression's result type. Valid once Resolved.
	Type() sqltypes.Type
	// Resolved reports whether all column references are bound.
	Resolved() bool
	// Children returns the node's sub-expressions. The slice may be the
	// node's own: callers must not modify it.
	Children() []Expr
	// WithChildren rebuilds the node with new children (same arity).
	WithChildren(children []Expr) (Expr, error)
	// Eval evaluates the expression against a row. Requires Resolved.
	Eval(row sqltypes.Row) (sqltypes.Value, error)
}

// ---------------------------------------------------------------------------
// Literal

// Literal is a constant value. T types a NULL that analysis typed from
// its comparison or arithmetic partner, directly or as the NULL argument
// of a typed slot (Param.Bind); every other literal has its value's type.
type Literal struct {
	V sqltypes.Value
	T sqltypes.Type
}

// Lit builds a literal expression.
func Lit(v sqltypes.Value) *Literal { return &Literal{V: v} }

// LitInt64 builds a BIGINT literal.
func LitInt64(i int64) *Literal { return Lit(sqltypes.NewInt64(i)) }

// LitString builds a STRING literal.
func LitString(s string) *Literal { return Lit(sqltypes.NewString(s)) }

func (l *Literal) String() string {
	if l.V.T == sqltypes.String {
		return "'" + l.V.S + "'"
	}
	return l.V.String()
}
func (l *Literal) Type() sqltypes.Type {
	if l.V.IsNull() {
		return l.T
	}
	return l.V.T
}
func (l *Literal) Resolved() bool   { return true }
func (l *Literal) Children() []Expr { return nil }
func (l *Literal) WithChildren(c []Expr) (Expr, error) {
	if len(c) != 0 {
		return nil, fmt.Errorf("expr: literal takes no children")
	}
	return l, nil
}
func (l *Literal) Eval(sqltypes.Row) (sqltypes.Value, error) { return l.V, nil }

// ---------------------------------------------------------------------------
// Column references

// Col is an unresolved column reference ("name" or "qualifier.name").
type Col struct{ Name string }

// C builds an unresolved column reference.
func C(name string) *Col { return &Col{Name: name} }

func (c *Col) String() string      { return c.Name }
func (c *Col) Type() sqltypes.Type { return sqltypes.Unknown }
func (c *Col) Resolved() bool      { return false }
func (c *Col) Children() []Expr    { return nil }
func (c *Col) WithChildren(ch []Expr) (Expr, error) {
	if len(ch) != 0 {
		return nil, fmt.Errorf("expr: column ref takes no children")
	}
	return c, nil
}
func (c *Col) Eval(sqltypes.Row) (sqltypes.Value, error) {
	return sqltypes.Null, fmt.Errorf("expr: evaluating unresolved column %q", c.Name)
}

// Bound is a resolved column reference addressing a row ordinal.
type Bound struct {
	Ordinal int
	T       sqltypes.Type
	Name    string
}

// B builds a bound reference.
func B(ordinal int, t sqltypes.Type, name string) *Bound {
	return &Bound{Ordinal: ordinal, T: t, Name: name}
}

func (b *Bound) String() string      { return b.Name }
func (b *Bound) Type() sqltypes.Type { return b.T }
func (b *Bound) Resolved() bool      { return true }
func (b *Bound) Children() []Expr    { return nil }
func (b *Bound) WithChildren(c []Expr) (Expr, error) {
	if len(c) != 0 {
		return nil, fmt.Errorf("expr: bound ref takes no children")
	}
	return b, nil
}
func (b *Bound) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	if b.Ordinal < 0 || b.Ordinal >= len(row) {
		return sqltypes.Null, fmt.Errorf("expr: ordinal %d out of range for row of %d", b.Ordinal, len(row))
	}
	return row[b.Ordinal], nil
}

// ---------------------------------------------------------------------------
// Comparison

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (op CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[op]
}

// Cmp is a binary comparison with SQL NULL semantics (NULL operand yields
// NULL). Build it with NewCmp: kids holds L and R for Children, so
// walking a comparison allocates nothing.
type Cmp struct {
	Op   CmpOp
	L, R Expr
	kids [2]Expr
}

// NewCmp builds a comparison.
func NewCmp(op CmpOp, l, r Expr) *Cmp { return &Cmp{Op: op, L: l, R: r, kids: [2]Expr{l, r}} }

func (c *Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R)
}
func (c *Cmp) Type() sqltypes.Type { return sqltypes.Bool }
func (c *Cmp) Resolved() bool      { return c.L.Resolved() && c.R.Resolved() }
func (c *Cmp) Children() []Expr    { return c.kids[:] }
func (c *Cmp) WithChildren(ch []Expr) (Expr, error) {
	if len(ch) != 2 {
		return nil, fmt.Errorf("expr: comparison takes 2 children")
	}
	return NewCmp(c.Op, ch[0], ch[1]), nil
}
func (c *Cmp) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	l, err := c.L.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	r, err := c.R.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return sqltypes.Null, nil
	}
	cmp := sqltypes.Compare(l, r)
	var b bool
	switch c.Op {
	case Eq:
		b = cmp == 0
	case Ne:
		b = cmp != 0
	case Lt:
		b = cmp < 0
	case Le:
		b = cmp <= 0
	case Gt:
		b = cmp > 0
	case Ge:
		b = cmp >= 0
	}
	return sqltypes.NewBool(b), nil
}

// ---------------------------------------------------------------------------
// Arithmetic

// ArithOp enumerates arithmetic operators.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
	Mod
)

func (op ArithOp) String() string { return [...]string{"+", "-", "*", "/", "%"}[op] }

// Arith is a binary arithmetic expression over numeric operands.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// NewArith builds an arithmetic expression.
func NewArith(op ArithOp, l, r Expr) *Arith { return &Arith{Op: op, L: l, R: r} }

func (a *Arith) String() string { return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R) }
func (a *Arith) Type() sqltypes.Type {
	t, err := sqltypes.CommonType(a.L.Type(), a.R.Type())
	if err != nil {
		return sqltypes.Unknown
	}
	return t
}
func (a *Arith) Resolved() bool   { return a.L.Resolved() && a.R.Resolved() }
func (a *Arith) Children() []Expr { return []Expr{a.L, a.R} }
func (a *Arith) WithChildren(ch []Expr) (Expr, error) {
	if len(ch) != 2 {
		return nil, fmt.Errorf("expr: arithmetic takes 2 children")
	}
	return &Arith{Op: a.Op, L: ch[0], R: ch[1]}, nil
}
func (a *Arith) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	l, err := a.L.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	r, err := a.R.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return sqltypes.Null, nil
	}
	t, err := sqltypes.CommonType(l.T, r.T)
	if err != nil {
		return sqltypes.Null, fmt.Errorf("expr: %s: %v", a, err)
	}
	if t == sqltypes.Float64 {
		lf, rf := l.Float64Val(), r.Float64Val()
		switch a.Op {
		case Add:
			return sqltypes.NewFloat64(lf + rf), nil
		case Sub:
			return sqltypes.NewFloat64(lf - rf), nil
		case Mul:
			return sqltypes.NewFloat64(lf * rf), nil
		case Div:
			if rf == 0 {
				return sqltypes.Null, nil
			}
			return sqltypes.NewFloat64(lf / rf), nil
		case Mod:
			if int64(rf) == 0 {
				// A fractional divisor in (-1, 1) truncates to zero; NULL,
				// not an integer-divide panic.
				return sqltypes.Null, nil
			}
			return sqltypes.NewFloat64(float64(int64(lf) % int64(rf))), nil
		}
	}
	li, ri := l.Int64Val(), r.Int64Val()
	var out int64
	switch a.Op {
	case Add:
		out = li + ri
	case Sub:
		out = li - ri
	case Mul:
		out = li * ri
	case Div:
		if ri == 0 {
			return sqltypes.Null, nil
		}
		out = li / ri
	case Mod:
		if ri == 0 {
			return sqltypes.Null, nil
		}
		out = li % ri
	}
	if t == sqltypes.Int32 {
		return sqltypes.NewInt32(int32(out)), nil
	}
	return sqltypes.NewInt64(out), nil
}

// ---------------------------------------------------------------------------
// Boolean connectives

// LogicOp enumerates boolean connectives.
type LogicOp uint8

// Boolean connectives.
const (
	AndOp LogicOp = iota
	OrOp
)

func (op LogicOp) String() string { return [...]string{"AND", "OR"}[op] }

// Logic is a binary AND/OR with three-valued semantics.
type Logic struct {
	Op   LogicOp
	L, R Expr
}

// And builds a conjunction.
func And(l, r Expr) *Logic { return &Logic{Op: AndOp, L: l, R: r} }

// Or builds a disjunction.
func Or(l, r Expr) *Logic { return &Logic{Op: OrOp, L: l, R: r} }

func (lg *Logic) String() string      { return fmt.Sprintf("(%s %s %s)", lg.L, lg.Op, lg.R) }
func (lg *Logic) Type() sqltypes.Type { return sqltypes.Bool }
func (lg *Logic) Resolved() bool      { return lg.L.Resolved() && lg.R.Resolved() }
func (lg *Logic) Children() []Expr    { return []Expr{lg.L, lg.R} }
func (lg *Logic) WithChildren(ch []Expr) (Expr, error) {
	if len(ch) != 2 {
		return nil, fmt.Errorf("expr: logic takes 2 children")
	}
	return &Logic{Op: lg.Op, L: ch[0], R: ch[1]}, nil
}
func (lg *Logic) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	l, err := lg.L.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	// Short circuit where three-valued logic allows it.
	if !l.IsNull() {
		if lg.Op == AndOp && !l.Bool() {
			return sqltypes.NewBool(false), nil
		}
		if lg.Op == OrOp && l.Bool() {
			return sqltypes.NewBool(true), nil
		}
	}
	r, err := lg.R.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	switch {
	case lg.Op == AndOp:
		if !r.IsNull() && !r.Bool() {
			return sqltypes.NewBool(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(true), nil
	default: // OrOp
		if !r.IsNull() && r.Bool() {
			return sqltypes.NewBool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(false), nil
	}
}

// Not negates a boolean expression (NULL stays NULL).
type Not struct{ E Expr }

// NewNot builds a negation.
func NewNot(e Expr) *Not { return &Not{E: e} }

func (n *Not) String() string      { return fmt.Sprintf("(NOT %s)", n.E) }
func (n *Not) Type() sqltypes.Type { return sqltypes.Bool }
func (n *Not) Resolved() bool      { return n.E.Resolved() }
func (n *Not) Children() []Expr    { return []Expr{n.E} }
func (n *Not) WithChildren(ch []Expr) (Expr, error) {
	if len(ch) != 1 {
		return nil, fmt.Errorf("expr: NOT takes 1 child")
	}
	return &Not{E: ch[0]}, nil
}
func (n *Not) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	v, err := n.E.Eval(row)
	if err != nil || v.IsNull() {
		return sqltypes.Null, err
	}
	return sqltypes.NewBool(!v.Bool()), nil
}

// IsNull tests nullness; with Negate it is IS NOT NULL.
type IsNull struct {
	E      Expr
	Negate bool
}

func (i *IsNull) String() string {
	if i.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", i.E)
	}
	return fmt.Sprintf("(%s IS NULL)", i.E)
}
func (i *IsNull) Type() sqltypes.Type { return sqltypes.Bool }
func (i *IsNull) Resolved() bool      { return i.E.Resolved() }
func (i *IsNull) Children() []Expr    { return []Expr{i.E} }
func (i *IsNull) WithChildren(ch []Expr) (Expr, error) {
	if len(ch) != 1 {
		return nil, fmt.Errorf("expr: IS NULL takes 1 child")
	}
	return &IsNull{E: ch[0], Negate: i.Negate}, nil
}
func (i *IsNull) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	v, err := i.E.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	return sqltypes.NewBool(v.IsNull() != i.Negate), nil
}

// ---------------------------------------------------------------------------
// Alias and Cast

// Alias names an expression in a projection list.
type Alias struct {
	E    Expr
	Name string
}

// As builds an alias.
func As(e Expr, name string) *Alias { return &Alias{E: e, Name: name} }

func (a *Alias) String() string      { return fmt.Sprintf("%s AS %s", a.E, a.Name) }
func (a *Alias) Type() sqltypes.Type { return a.E.Type() }
func (a *Alias) Resolved() bool      { return a.E.Resolved() }
func (a *Alias) Children() []Expr    { return []Expr{a.E} }
func (a *Alias) WithChildren(ch []Expr) (Expr, error) {
	if len(ch) != 1 {
		return nil, fmt.Errorf("expr: alias takes 1 child")
	}
	return &Alias{E: ch[0], Name: a.Name}, nil
}
func (a *Alias) Eval(row sqltypes.Row) (sqltypes.Value, error) { return a.E.Eval(row) }

// Cast converts its operand to type To.
type Cast struct {
	E  Expr
	To sqltypes.Type
}

func (c *Cast) String() string      { return fmt.Sprintf("CAST(%s AS %s)", c.E, c.To) }
func (c *Cast) Type() sqltypes.Type { return c.To }
func (c *Cast) Resolved() bool      { return c.E.Resolved() }
func (c *Cast) Children() []Expr    { return []Expr{c.E} }
func (c *Cast) WithChildren(ch []Expr) (Expr, error) {
	if len(ch) != 1 {
		return nil, fmt.Errorf("expr: cast takes 1 child")
	}
	return &Cast{E: ch[0], To: c.To}, nil
}
func (c *Cast) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	v, err := c.E.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	return v.Cast(c.To)
}

// ---------------------------------------------------------------------------
// Scalar functions

// Func is a scalar function call.
type Func struct {
	Name string
	Args []Expr
}

// NewFunc builds a scalar function call (name is case-insensitive).
func NewFunc(name string, args ...Expr) *Func {
	return &Func{Name: strings.ToUpper(name), Args: args}
}

func (f *Func) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", f.Name, strings.Join(parts, ", "))
}
func (f *Func) Type() sqltypes.Type {
	switch f.Name {
	case "UPPER", "LOWER", "CONCAT", "SUBSTR":
		return sqltypes.String
	case "LENGTH", "YEAR":
		return sqltypes.Int64
	case "LIKE":
		return sqltypes.Bool
	case "ABS":
		if len(f.Args) == 1 {
			return f.Args[0].Type()
		}
		return sqltypes.Unknown
	case "COALESCE":
		for _, a := range f.Args {
			if t := a.Type(); t != sqltypes.Unknown {
				return t
			}
		}
		return sqltypes.Unknown
	}
	return sqltypes.Unknown
}
func (f *Func) Resolved() bool {
	for _, a := range f.Args {
		if !a.Resolved() {
			return false
		}
	}
	return true
}
func (f *Func) Children() []Expr { return f.Args }
func (f *Func) WithChildren(ch []Expr) (Expr, error) {
	if len(ch) != len(f.Args) {
		return nil, fmt.Errorf("expr: %s takes %d args", f.Name, len(f.Args))
	}
	return &Func{Name: f.Name, Args: ch}, nil
}

func (f *Func) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	args := make([]sqltypes.Value, len(f.Args))
	for i, a := range f.Args {
		v, err := a.Eval(row)
		if err != nil {
			return sqltypes.Null, err
		}
		args[i] = v
	}
	switch f.Name {
	case "UPPER":
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewString(strings.ToUpper(args[0].S)), nil
	case "LOWER":
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewString(strings.ToLower(args[0].S)), nil
	case "LENGTH":
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewInt64(int64(len(args[0].S))), nil
	case "ABS":
		v := args[0]
		if v.IsNull() {
			return sqltypes.Null, nil
		}
		switch v.T {
		case sqltypes.Float64:
			if v.F < 0 {
				return sqltypes.NewFloat64(-v.F), nil
			}
			return v, nil
		default:
			if v.I < 0 {
				return sqltypes.Value{T: v.T, I: -v.I}, nil
			}
			return v, nil
		}
	case "CONCAT":
		var sb strings.Builder
		for _, a := range args {
			if !a.IsNull() {
				sb.WriteString(a.String())
			}
		}
		return sqltypes.NewString(sb.String()), nil
	case "SUBSTR":
		if len(args) < 2 || args[0].IsNull() || args[1].IsNull() {
			return sqltypes.Null, nil
		}
		s := args[0].S
		start := int(args[1].Int64Val()) - 1 // SQL is 1-based
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			return sqltypes.NewString(""), nil
		}
		end := len(s)
		if len(args) == 3 && !args[2].IsNull() {
			if n := int(args[2].Int64Val()); start+n < end {
				end = start + n
			}
		}
		return sqltypes.NewString(s[start:end]), nil
	case "YEAR":
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewInt64(int64(args[0].Time().Year())), nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return sqltypes.Null, nil
	case "LIKE":
		if len(args) != 2 || args[0].IsNull() || args[1].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(likeMatch(args[0].S, args[1].S)), nil
	}
	return sqltypes.Null, fmt.Errorf("expr: unknown function %s", f.Name)
}

// likeMatch implements SQL LIKE: '%' matches any run, '_' any single byte.
func likeMatch(s, pattern string) bool {
	// Dynamic-programming match over bytes.
	m, n := len(s), len(pattern)
	// dp[j] = does pattern[:j] match s[:i] for the current i.
	prev := make([]bool, n+1)
	cur := make([]bool, n+1)
	prev[0] = true
	for j := 1; j <= n; j++ {
		prev[j] = prev[j-1] && pattern[j-1] == '%'
	}
	for i := 1; i <= m; i++ {
		cur[0] = false
		for j := 1; j <= n; j++ {
			switch pattern[j-1] {
			case '%':
				cur[j] = cur[j-1] || prev[j]
			case '_':
				cur[j] = prev[j-1]
			default:
				cur[j] = prev[j-1] && pattern[j-1] == s[i-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[n]
}

// ---------------------------------------------------------------------------
// Aggregates (descriptors consumed by the Aggregate plan node)

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	CountAgg AggFunc = iota
	CountStarAgg
	SumAgg
	MinAgg
	MaxAgg
	AvgAgg
)

func (f AggFunc) String() string {
	return [...]string{"COUNT", "COUNT(*)", "SUM", "MIN", "MAX", "AVG"}[f]
}

// Agg describes one aggregate output column.
type Agg struct {
	Func AggFunc
	Arg  Expr // nil for COUNT(*)
	Name string
}

// ResultType returns the aggregate's output type.
func (a Agg) ResultType() sqltypes.Type {
	switch a.Func {
	case CountAgg, CountStarAgg:
		return sqltypes.Int64
	case AvgAgg:
		return sqltypes.Float64
	case SumAgg:
		if t := a.Arg.Type(); t == sqltypes.Float64 {
			return sqltypes.Float64
		}
		return sqltypes.Int64
	default:
		if a.Arg != nil {
			return a.Arg.Type()
		}
		return sqltypes.Unknown
	}
}

func (a Agg) String() string {
	if a.Func == CountStarAgg {
		return "COUNT(*)"
	}
	return fmt.Sprintf("%s(%s)", a.Func, a.Arg)
}
