package expr

import (
	"strings"

	"indexeddf/internal/columnar"
	"indexeddf/internal/sqltypes"
	"indexeddf/internal/vector"
)

// This file implements the vectorized expression kernels: a compiled form
// of an expression tree that evaluates a whole batch per call, writing
// results into reused output vectors. Kernels match the row evaluator's SQL
// semantics exactly (three-valued logic, NULL propagation, division by zero
// yielding NULL, Int32 wraparound) — the equivalence tests in vec_test.go
// pin this down.
//
// A compiled VecExpr owns its scratch vectors and is NOT safe for
// concurrent use: operators compile one instance per partition task.

// VecExpr is a compiled, batch-at-a-time evaluator for a bound expression.
type VecExpr struct {
	root vecNode
}

// CompileVec compiles a bound expression into a vectorized evaluator.
// It returns ok=false when the tree contains a node the vectorized engine
// does not cover (scalar functions, casts, unresolved columns, untyped NULL
// literals and placeholders, or comparisons across incompatible type
// families); callers fall back to row-at-a-time evaluation.
func CompileVec(e Expr) (*VecExpr, bool) {
	n, ok := compileVec(e)
	if !ok {
		return nil, false
	}
	return &VecExpr{root: n}, true
}

// CanVectorize reports whether CompileVec would succeed for e.
func CanVectorize(e Expr) bool {
	_, ok := CompileVec(e)
	return ok
}

// Type returns the compiled expression's result type.
func (v *VecExpr) Type() sqltypes.Type { return v.root.typ() }

// Eval evaluates the expression over every row of b. The returned vector
// has b.Len() entries and is owned by the evaluator (or is a column of b);
// it is valid until the next Eval call.
func (v *VecExpr) Eval(b *vector.Batch) (*columnar.Vector, error) {
	return v.root.eval(b)
}

type vecNode interface {
	typ() sqltypes.Type
	eval(b *vector.Batch) (*columnar.Vector, error)
}

func compileVec(e Expr) (vecNode, bool) {
	switch n := e.(type) {
	case *Alias:
		return compileVec(n.E)
	case *Bound:
		if !n.T.Valid() {
			return nil, false
		}
		return &vecBound{ord: n.Ordinal, t: n.T}, true
	case *Literal:
		if !n.Type().Valid() {
			return nil, false // an untyped NULL
		}
		return &vecLit{v: n.V, t: n.Type(), out: columnar.NewVector(n.Type())}, true
	case *Param:
		// A typed placeholder compiles as a constant of its slot's type;
		// executions bind it to a literal first.
		if !n.T.Valid() {
			return nil, false
		}
		return &vecParam{n}, true
	case *Cmp:
		return compileCmp(n)
	case *Arith:
		return compileArith(n)
	case *Logic:
		l, ok := compileVec(n.L)
		if !ok {
			return nil, false
		}
		r, ok := compileVec(n.R)
		if !ok {
			return nil, false
		}
		if l.typ() != sqltypes.Bool || r.typ() != sqltypes.Bool {
			return nil, false
		}
		return &vecLogic{op: n.Op, l: l, r: r, out: columnar.NewVector(sqltypes.Bool)}, true
	case *Not:
		c, ok := compileVec(n.E)
		if !ok || c.typ() != sqltypes.Bool {
			return nil, false
		}
		return &vecNot{c: c, out: columnar.NewVector(sqltypes.Bool)}, true
	case *IsNull:
		c, ok := compileVec(n.E)
		if !ok {
			return nil, false
		}
		return &vecIsNull{c: c, negate: n.Negate, out: columnar.NewVector(sqltypes.Bool)}, true
	default:
		return nil, false
	}
}

// cmpFamily classifies the comparison loop for two operand types, matching
// sqltypes.Compare: float when both numeric and either is DOUBLE, int when
// both are int-lane types, string when both are strings.
type cmpKind uint8

const (
	cmpUnsupported cmpKind = iota
	cmpInt
	cmpFloat
	cmpString
)

func cmpFamily(lt, rt sqltypes.Type) cmpKind {
	if lt.Numeric() && rt.Numeric() && (lt == sqltypes.Float64 || rt == sqltypes.Float64) {
		return cmpFloat
	}
	if lt.IntLane() && rt.IntLane() {
		return cmpInt
	}
	if lt == sqltypes.String && rt == sqltypes.String {
		return cmpString
	}
	return cmpUnsupported
}

// ---------------------------------------------------------------------------
// Leaves

type vecBound struct {
	ord int
	t   sqltypes.Type
}

func (n *vecBound) typ() sqltypes.Type { return n.t }
func (n *vecBound) eval(b *vector.Batch) (*columnar.Vector, error) {
	return b.Cols[n.ord], nil
}

// vecLit is a constant; a NULL one (typed by its slot) is all-NULL.
type vecLit struct {
	v   sqltypes.Value
	t   sqltypes.Type
	out *columnar.Vector
}

func (n *vecLit) typ() sqltypes.Type { return n.t }
func (n *vecLit) eval(b *vector.Batch) (*columnar.Vector, error) {
	m := b.Len()
	if n.out.Len() == m {
		return n.out, nil // still filled from the previous batch
	}
	n.out.Reset(n.t)
	n.out.Resize(m)
	if n.v.IsNull() {
		for i := 0; i < m; i++ {
			n.out.SetNull(i)
		}
		return n.out, nil
	}
	switch n.v.T {
	case sqltypes.Float64:
		f := n.out.Float64s()
		for i := range f {
			f[i] = n.v.F
		}
	case sqltypes.String:
		s := n.out.Strings()
		for i := range s {
			s[i] = n.v.S
		}
	default:
		x := n.out.Int64s()
		for i := range x {
			x[i] = n.v.I
		}
	}
	return n.out, nil
}

type vecParam struct{ p *Param }

func (n *vecParam) typ() sqltypes.Type { return n.p.T }
func (n *vecParam) eval(*vector.Batch) (*columnar.Vector, error) {
	_, err := n.p.Eval(nil)
	return nil, err
}

// litOf unwraps a non-NULL literal child for the scalar fast paths.
func litOf(n vecNode) (sqltypes.Value, bool) {
	if l, ok := n.(*vecLit); ok && !l.v.IsNull() {
		return l.v, true
	}
	return sqltypes.Null, false
}

// ---------------------------------------------------------------------------
// Comparison

type vecCmp struct {
	op   CmpOp
	kind cmpKind
	l, r vecNode
	out  *columnar.Vector
}

func compileCmp(c *Cmp) (vecNode, bool) {
	l, ok := compileVec(c.L)
	if !ok {
		return nil, false
	}
	r, ok := compileVec(c.R)
	if !ok {
		return nil, false
	}
	kind := cmpFamily(l.typ(), r.typ())
	if kind == cmpUnsupported {
		return nil, false
	}
	return &vecCmp{op: c.Op, kind: kind, l: l, r: r, out: columnar.NewVector(sqltypes.Bool)}, true
}

func (n *vecCmp) typ() sqltypes.Type { return sqltypes.Bool }

// floatAt reads position i of v widened to float64 (numeric lanes only).
func floatAt(v *columnar.Vector, fs []float64, is []int64, i int) float64 {
	if fs != nil {
		return fs[i]
	}
	_ = v
	return float64(is[i])
}

func numericLanes(v *columnar.Vector) (fs []float64, is []int64) {
	if v.Type == sqltypes.Float64 {
		return v.Float64s(), nil
	}
	return nil, v.Int64s()
}

func (n *vecCmp) eval(b *vector.Batch) (*columnar.Vector, error) {
	m := b.Len()
	n.out.Reset(sqltypes.Bool)
	n.out.Resize(m)
	bits := n.out.Int64s()

	// Scalar fast paths: column-vs-literal is the dominant filter shape.
	if lit, ok := litOf(n.r); ok {
		lv, err := n.l.eval(b)
		if err != nil {
			return nil, err
		}
		n.evalScalar(lv, lit, n.op, bits)
		orNullWords(n.out, lv, nil)
		return n.out, nil
	}
	if lit, ok := litOf(n.l); ok {
		rv, err := n.r.eval(b)
		if err != nil {
			return nil, err
		}
		// lit OP col  ==  col MIRROR(OP) lit
		n.evalScalar(rv, lit, mirrorCmp(n.op), bits)
		orNullWords(n.out, rv, nil)
		return n.out, nil
	}

	lv, err := n.l.eval(b)
	if err != nil {
		return nil, err
	}
	rv, err := n.r.eval(b)
	if err != nil {
		return nil, err
	}
	op := n.op
	switch n.kind {
	case cmpInt:
		li, ri := lv.Int64s(), rv.Int64s()
		for i := 0; i < m; i++ {
			bits[i] = boolBit(cmpHolds(op, compareInt64(li[i], ri[i])))
		}
	case cmpFloat:
		lf, li := numericLanes(lv)
		rf, ri := numericLanes(rv)
		for i := 0; i < m; i++ {
			x, y := floatAt(lv, lf, li, i), floatAt(rv, rf, ri, i)
			bits[i] = boolBit(cmpHolds(op, compareFloat64(x, y)))
		}
	case cmpString:
		ls, rs := lv.Strings(), rv.Strings()
		for i := 0; i < m; i++ {
			bits[i] = boolBit(cmpHolds(op, strings.Compare(ls[i], rs[i])))
		}
	}
	orNullWords(n.out, lv, rv)
	return n.out, nil
}

// evalScalar runs the column-vs-constant loops, one tight loop per operator.
func (n *vecCmp) evalScalar(col *columnar.Vector, lit sqltypes.Value, op CmpOp, bits []int64) {
	m := len(bits)
	switch n.kind {
	case cmpInt:
		xs, k := col.Int64s(), lit.I
		switch op {
		case Eq:
			for i := 0; i < m; i++ {
				bits[i] = boolBit(xs[i] == k)
			}
		case Ne:
			for i := 0; i < m; i++ {
				bits[i] = boolBit(xs[i] != k)
			}
		case Lt:
			for i := 0; i < m; i++ {
				bits[i] = boolBit(xs[i] < k)
			}
		case Le:
			for i := 0; i < m; i++ {
				bits[i] = boolBit(xs[i] <= k)
			}
		case Gt:
			for i := 0; i < m; i++ {
				bits[i] = boolBit(xs[i] > k)
			}
		case Ge:
			for i := 0; i < m; i++ {
				bits[i] = boolBit(xs[i] >= k)
			}
		}
	case cmpFloat:
		fs, is := numericLanes(col)
		k := lit.Float64Val()
		for i := 0; i < m; i++ {
			x := floatAt(col, fs, is, i)
			bits[i] = boolBit(cmpHolds(op, compareFloat64(x, k)))
		}
	case cmpString:
		xs, k := col.Strings(), lit.S
		switch op {
		case Eq:
			for i := 0; i < m; i++ {
				bits[i] = boolBit(xs[i] == k)
			}
		case Ne:
			for i := 0; i < m; i++ {
				bits[i] = boolBit(xs[i] != k)
			}
		default:
			for i := 0; i < m; i++ {
				bits[i] = boolBit(cmpHolds(op, strings.Compare(xs[i], k)))
			}
		}
	}
}

func compareInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareFloat64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpHolds(op CmpOp, c int) bool {
	switch op {
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	default:
		return c >= 0
	}
}

// mirrorCmp returns the operator with swapped operands: a OP b == b MIRROR(OP) a.
func mirrorCmp(op CmpOp) CmpOp {
	switch op {
	case Lt:
		return Gt
	case Le:
		return Ge
	case Gt:
		return Lt
	case Ge:
		return Le
	default: // Eq, Ne are symmetric
		return op
	}
}

func boolBit(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// orNullWords marks out NULL wherever a or b (b may be nil) is NULL,
// OR-ing whole bitmap words.
func orNullWords(out, a, b *columnar.Vector) {
	if !a.AnyNulls() && (b == nil || !b.AnyNulls()) {
		return
	}
	ow, aw := out.NullWords(), a.NullWords()
	for i := range ow {
		ow[i] |= aw[i]
	}
	if b != nil {
		bw := b.NullWords()
		for i := range ow {
			ow[i] |= bw[i]
		}
	}
}

// ---------------------------------------------------------------------------
// Arithmetic

type vecArith struct {
	op   ArithOp
	t    sqltypes.Type // CommonType of the operands
	l, r vecNode
	out  *columnar.Vector
}

func compileArith(a *Arith) (vecNode, bool) {
	l, ok := compileVec(a.L)
	if !ok {
		return nil, false
	}
	r, ok := compileVec(a.R)
	if !ok {
		return nil, false
	}
	if !l.typ().Numeric() || !r.typ().Numeric() {
		return nil, false
	}
	t, err := sqltypes.CommonType(l.typ(), r.typ())
	if err != nil {
		return nil, false
	}
	return &vecArith{op: a.Op, t: t, l: l, r: r, out: columnar.NewVector(t)}, true
}

func (n *vecArith) typ() sqltypes.Type { return n.t }

func (n *vecArith) eval(b *vector.Batch) (*columnar.Vector, error) {
	lv, err := n.l.eval(b)
	if err != nil {
		return nil, err
	}
	rv, err := n.r.eval(b)
	if err != nil {
		return nil, err
	}
	m := b.Len()
	n.out.Reset(n.t)
	n.out.Resize(m)
	if n.t == sqltypes.Float64 {
		outF := n.out.Float64s()
		lf, li := numericLanes(lv)
		rf, ri := numericLanes(rv)
		for i := 0; i < m; i++ {
			x, y := floatAt(lv, lf, li, i), floatAt(rv, rf, ri, i)
			switch n.op {
			case Add:
				outF[i] = x + y
			case Sub:
				outF[i] = x - y
			case Mul:
				outF[i] = x * y
			case Div:
				if y == 0 {
					n.out.SetNull(i)
				} else {
					outF[i] = x / y
				}
			case Mod:
				if int64(y) == 0 {
					// Matches the row evaluator: float modulo runs over
					// truncated operands, and a divisor truncating to zero
					// yields NULL instead of an integer-divide panic.
					n.out.SetNull(i)
				} else {
					outF[i] = float64(int64(x) % int64(y))
				}
			}
		}
	} else {
		outI := n.out.Int64s()
		li, ri := lv.Int64s(), rv.Int64s()
		narrow := n.t == sqltypes.Int32
		for i := 0; i < m; i++ {
			x, y := li[i], ri[i]
			var z int64
			switch n.op {
			case Add:
				z = x + y
			case Sub:
				z = x - y
			case Mul:
				z = x * y
			case Div:
				if y == 0 {
					n.out.SetNull(i)
					continue
				}
				z = x / y
			case Mod:
				if y == 0 {
					n.out.SetNull(i)
					continue
				}
				z = x % y
			}
			if narrow {
				z = int64(int32(z))
			}
			outI[i] = z
		}
	}
	orNullWords(n.out, lv, rv)
	return n.out, nil
}

// ---------------------------------------------------------------------------
// Boolean connectives

type vecLogic struct {
	op   LogicOp
	l, r vecNode
	out  *columnar.Vector
}

func (n *vecLogic) typ() sqltypes.Type { return sqltypes.Bool }

func (n *vecLogic) eval(b *vector.Batch) (*columnar.Vector, error) {
	lv, err := n.l.eval(b)
	if err != nil {
		return nil, err
	}
	rv, err := n.r.eval(b)
	if err != nil {
		return nil, err
	}
	m := b.Len()
	n.out.Reset(sqltypes.Bool)
	n.out.Resize(m)
	bits := n.out.Int64s()
	li, ri := lv.Int64s(), rv.Int64s()
	if !lv.AnyNulls() && !rv.AnyNulls() {
		if n.op == AndOp {
			for i := 0; i < m; i++ {
				bits[i] = li[i] & ri[i]
			}
		} else {
			for i := 0; i < m; i++ {
				bits[i] = li[i] | ri[i]
			}
		}
		return n.out, nil
	}
	// Three-valued logic with NULLs: AND is false if either side is a
	// non-null false, true only if both are non-null true, otherwise NULL;
	// OR dually.
	for i := 0; i < m; i++ {
		ln, rn := lv.IsNull(i), rv.IsNull(i)
		lt := !ln && li[i] != 0
		rt := !rn && ri[i] != 0
		lf := !ln && li[i] == 0
		rf := !rn && ri[i] == 0
		if n.op == AndOp {
			switch {
			case lf || rf:
				bits[i] = 0
			case lt && rt:
				bits[i] = 1
			default:
				n.out.SetNull(i)
			}
		} else {
			switch {
			case lt || rt:
				bits[i] = 1
			case lf && rf:
				bits[i] = 0
			default:
				n.out.SetNull(i)
			}
		}
	}
	return n.out, nil
}

type vecNot struct {
	c   vecNode
	out *columnar.Vector
}

func (n *vecNot) typ() sqltypes.Type { return sqltypes.Bool }

func (n *vecNot) eval(b *vector.Batch) (*columnar.Vector, error) {
	cv, err := n.c.eval(b)
	if err != nil {
		return nil, err
	}
	m := b.Len()
	n.out.Reset(sqltypes.Bool)
	n.out.Resize(m)
	bits, ci := n.out.Int64s(), cv.Int64s()
	for i := 0; i < m; i++ {
		bits[i] = ci[i] ^ 1
	}
	orNullWords(n.out, cv, nil)
	return n.out, nil
}

type vecIsNull struct {
	c      vecNode
	negate bool
	out    *columnar.Vector
}

func (n *vecIsNull) typ() sqltypes.Type { return sqltypes.Bool }

func (n *vecIsNull) eval(b *vector.Batch) (*columnar.Vector, error) {
	cv, err := n.c.eval(b)
	if err != nil {
		return nil, err
	}
	m := b.Len()
	n.out.Reset(sqltypes.Bool)
	n.out.Resize(m)
	bits := n.out.Int64s()
	for i := 0; i < m; i++ {
		bits[i] = boolBit(cv.IsNull(i) != n.negate)
	}
	return n.out, nil
}
