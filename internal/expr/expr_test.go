package expr

import (
	"strings"
	"testing"
	"testing/quick"

	"indexeddf/internal/sqltypes"
)

func testSchema() *sqltypes.Schema {
	return sqltypes.NewSchema(
		sqltypes.Field{Name: "id", Type: sqltypes.Int64},
		sqltypes.Field{Name: "name", Type: sqltypes.String, Nullable: true},
		sqltypes.Field{Name: "score", Type: sqltypes.Float64, Nullable: true},
	)
}

func mustBind(t *testing.T, e Expr, s *sqltypes.Schema) Expr {
	t.Helper()
	b, err := Bind(e, s)
	if err != nil {
		t.Fatalf("Bind(%s): %v", e, err)
	}
	return b
}

func evalOn(t *testing.T, e Expr, row sqltypes.Row) sqltypes.Value {
	t.Helper()
	v, err := e.Eval(row)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return v
}

func TestBindAndEval(t *testing.T) {
	s := testSchema()
	row := sqltypes.Row{sqltypes.NewInt64(7), sqltypes.NewString("ann"), sqltypes.NewFloat64(2.5)}

	e := mustBind(t, NewCmp(Eq, C("id"), LitInt64(7)), s)
	if v := evalOn(t, e, row); !v.Bool() {
		t.Errorf("id = 7 evaluated to %v", v)
	}
	e = mustBind(t, NewCmp(Gt, C("score"), Lit(sqltypes.NewFloat64(3))), s)
	if v := evalOn(t, e, row); v.Bool() {
		t.Errorf("score > 3 evaluated to %v", v)
	}
	if _, err := Bind(C("nope"), s); err == nil {
		t.Error("binding unknown column should fail")
	}
}

func TestUnresolvedEvalFails(t *testing.T) {
	if _, err := C("x").Eval(nil); err == nil {
		t.Error("evaluating unresolved column should fail")
	}
	if C("x").Resolved() {
		t.Error("Col should be unresolved")
	}
}

func TestComparisonNullSemantics(t *testing.T) {
	s := testSchema()
	row := sqltypes.Row{sqltypes.NewInt64(1), sqltypes.Null, sqltypes.Null}
	e := mustBind(t, NewCmp(Eq, C("name"), LitString("x")), s)
	if v := evalOn(t, e, row); !v.IsNull() {
		t.Errorf("NULL = 'x' should be NULL, got %v", v)
	}
	keep, err := EvalPredicate(e, row)
	if err != nil || keep {
		t.Errorf("NULL predicate must drop the row (keep=%v err=%v)", keep, err)
	}
}

func TestAllComparisonOps(t *testing.T) {
	two, three := LitInt64(2), LitInt64(3)
	cases := []struct {
		op   CmpOp
		want bool
	}{
		{Eq, false}, {Ne, true}, {Lt, true}, {Le, true}, {Gt, false}, {Ge, false},
	}
	for _, c := range cases {
		v := evalOn(t, NewCmp(c.op, two, three), nil)
		if v.Bool() != c.want {
			t.Errorf("2 %s 3 = %v, want %v", c.op, v.Bool(), c.want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		e    Expr
		want sqltypes.Value
	}{
		{NewArith(Add, LitInt64(2), LitInt64(3)), sqltypes.NewInt64(5)},
		{NewArith(Sub, LitInt64(2), LitInt64(3)), sqltypes.NewInt64(-1)},
		{NewArith(Mul, LitInt64(4), LitInt64(3)), sqltypes.NewInt64(12)},
		{NewArith(Div, LitInt64(7), LitInt64(2)), sqltypes.NewInt64(3)},
		{NewArith(Mod, LitInt64(7), LitInt64(2)), sqltypes.NewInt64(1)},
		{NewArith(Div, LitInt64(7), LitInt64(0)), sqltypes.Null},
		{NewArith(Add, LitInt64(2), Lit(sqltypes.NewFloat64(0.5))), sqltypes.NewFloat64(2.5)},
		{NewArith(Div, Lit(sqltypes.NewFloat64(1)), Lit(sqltypes.NewFloat64(4))), sqltypes.NewFloat64(0.25)},
		{NewArith(Add, Lit(sqltypes.Null), LitInt64(1)), sqltypes.Null},
	}
	for _, c := range cases {
		if got := evalOn(t, c.e, nil); got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	tr := Lit(sqltypes.NewBool(true))
	fa := Lit(sqltypes.NewBool(false))
	nu := Lit(sqltypes.Null)
	cases := []struct {
		e    Expr
		want sqltypes.Value
	}{
		{And(tr, tr), sqltypes.NewBool(true)},
		{And(tr, fa), sqltypes.NewBool(false)},
		{And(fa, nu), sqltypes.NewBool(false)}, // false AND NULL = false
		{And(nu, fa), sqltypes.NewBool(false)},
		{And(tr, nu), sqltypes.Null},
		{Or(fa, fa), sqltypes.NewBool(false)},
		{Or(tr, nu), sqltypes.NewBool(true)}, // true OR NULL = true
		{Or(nu, tr), sqltypes.NewBool(true)},
		{Or(fa, nu), sqltypes.Null},
		{NewNot(tr), sqltypes.NewBool(false)},
	}
	for _, c := range cases {
		if got := evalOn(t, c.e, nil); got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestIsNullAndNot(t *testing.T) {
	nu := Lit(sqltypes.Null)
	one := LitInt64(1)
	if v := evalOn(t, &IsNull{E: nu}, nil); !v.Bool() {
		t.Error("NULL IS NULL = false")
	}
	if v := evalOn(t, &IsNull{E: one, Negate: true}, nil); !v.Bool() {
		t.Error("1 IS NOT NULL = false")
	}
	if v := evalOn(t, NewNot(nu), nil); !v.IsNull() {
		t.Error("NOT NULL should be NULL")
	}
}

func TestCastAndAlias(t *testing.T) {
	c := &Cast{E: LitString("42"), To: sqltypes.Int64}
	if v := evalOn(t, c, nil); v != sqltypes.NewInt64(42) {
		t.Errorf("CAST = %v", v)
	}
	a := As(LitInt64(1), "one")
	if a.Name != "one" || evalOn(t, a, nil) != sqltypes.NewInt64(1) {
		t.Error("alias misbehaves")
	}
}

func TestScalarFunctions(t *testing.T) {
	cases := []struct {
		e    Expr
		want sqltypes.Value
	}{
		{NewFunc("upper", LitString("abc")), sqltypes.NewString("ABC")},
		{NewFunc("lower", LitString("AbC")), sqltypes.NewString("abc")},
		{NewFunc("length", LitString("abcd")), sqltypes.NewInt64(4)},
		{NewFunc("abs", LitInt64(-5)), sqltypes.NewInt64(5)},
		{NewFunc("abs", Lit(sqltypes.NewFloat64(-2.5))), sqltypes.NewFloat64(2.5)},
		{NewFunc("concat", LitString("a"), LitString("b"), LitInt64(1)), sqltypes.NewString("ab1")},
		{NewFunc("substr", LitString("hello"), LitInt64(2), LitInt64(3)), sqltypes.NewString("ell")},
		{NewFunc("substr", LitString("hello"), LitInt64(99)), sqltypes.NewString("")},
		{NewFunc("coalesce", Lit(sqltypes.Null), LitInt64(3)), sqltypes.NewInt64(3)},
		{NewFunc("upper", Lit(sqltypes.Null)), sqltypes.Null},
		{NewFunc("year", Lit(sqltypes.NewTimestamp(0))), sqltypes.NewInt64(1970)},
	}
	for _, c := range cases {
		if got := evalOn(t, c.e, nil); got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
	if _, err := NewFunc("no_such_fn", LitInt64(1)).Eval(nil); err == nil {
		t.Error("unknown function should fail")
	}
}

func TestFoldConstants(t *testing.T) {
	e := NewArith(Add, LitInt64(2), NewArith(Mul, LitInt64(3), LitInt64(4)))
	folded, err := FoldConstants(e)
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := folded.(*Literal)
	if !ok || lit.V != sqltypes.NewInt64(14) {
		t.Errorf("folded = %s", folded)
	}
	// Column-dependent parts survive.
	s := testSchema()
	e2 := mustBind(t, And(NewCmp(Gt, C("id"), NewArith(Add, LitInt64(1), LitInt64(1))),
		Lit(sqltypes.NewBool(true))), s)
	folded2, err := FoldConstants(e2)
	if err != nil {
		t.Fatal(err)
	}
	if folded2.String() != "((id > 2) AND true)" {
		t.Errorf("folded2 = %s", folded2)
	}
}

func TestSplitJoinConjunction(t *testing.T) {
	a := NewCmp(Eq, C("a"), LitInt64(1))
	b := NewCmp(Eq, C("b"), LitInt64(2))
	c := NewCmp(Eq, C("c"), LitInt64(3))
	conj := And(And(a, b), c)
	parts := SplitConjunction(conj)
	if len(parts) != 3 {
		t.Fatalf("SplitConjunction = %d parts", len(parts))
	}
	back := JoinConjuncts(parts)
	if back.String() != conj.String() {
		t.Errorf("JoinConjuncts = %s, want %s", back, conj)
	}
	if JoinConjuncts(nil) != nil {
		t.Error("JoinConjuncts(nil) should be nil")
	}
}

func TestReferencedColumnsAndOrdinals(t *testing.T) {
	e := And(NewCmp(Eq, C("a"), LitInt64(1)), NewCmp(Gt, C("b"), C("a")))
	cols := ReferencedColumns(e)
	if !cols["a"] || !cols["b"] || len(cols) != 2 {
		t.Errorf("ReferencedColumns = %v", cols)
	}
	s := sqltypes.NewSchema(
		sqltypes.Field{Name: "a", Type: sqltypes.Int64},
		sqltypes.Field{Name: "b", Type: sqltypes.Int64},
	)
	be := mustBind(t, e, s)
	ords := ReferencedOrdinals(be)
	if !ords[0] || !ords[1] {
		t.Errorf("ReferencedOrdinals = %v", ords)
	}
	if MaxOrdinal(be) != 1 {
		t.Errorf("MaxOrdinal = %d", MaxOrdinal(be))
	}
}

func TestShift(t *testing.T) {
	s := testSchema()
	e := mustBind(t, NewCmp(Eq, C("id"), LitInt64(1)), s)
	shifted, err := Shift(e, 5)
	if err != nil {
		t.Fatal(err)
	}
	if MaxOrdinal(shifted) != 5 {
		t.Errorf("shifted MaxOrdinal = %d", MaxOrdinal(shifted))
	}
}

func TestEqualityWithKeyConst(t *testing.T) {
	s := testSchema()
	e := mustBind(t, NewCmp(Eq, C("id"), LitInt64(9)), s)
	col, key, ok := EqualityWithKeyConst(e)
	if lit, isLit := key.(*Literal); !ok || col.Ordinal != 0 || !isLit || lit.V != sqltypes.NewInt64(9) {
		t.Errorf("EqualityWithKeyConst = %v %v %v", col, key, ok)
	}
	// Reversed operands, and a placeholder key.
	e2 := mustBind(t, NewCmp(Eq, NewParam(0), C("id")), s)
	if _, key, ok := EqualityWithKeyConst(e2); !ok || key.String() != "?1" {
		t.Errorf("reversed placeholder equality: %v %v", key, ok)
	}
	// Non-equality rejected.
	e3 := mustBind(t, NewCmp(Gt, C("id"), LitInt64(9)), s)
	if _, _, ok := EqualityWithKeyConst(e3); ok {
		t.Error("non-equality accepted")
	}
}

// TestParamBind pins how an argument fills its slot: the plan was
// compiled for the argument's own type, so the value goes in as given,
// NULL included; a slot past the arguments is unbound. A lifted slot
// renders as a mark that FormatArgs turns back into the value, while a
// user's `?N` renders as itself.
func TestParamBind(t *testing.T) {
	args := []sqltypes.Value{sqltypes.NewInt64(5), sqltypes.NewFloat64(2.5), sqltypes.Null, sqltypes.NewString("o'x")}
	for i, want := range args {
		p := &Param{Index: i, T: want.T}
		got, err := p.Bind(args)
		if err != nil {
			t.Fatal(err)
		}
		if lit := got.(*Literal); lit.V != want {
			t.Errorf("%s <- %s: got %s", p, want, lit.V)
		}
	}
	if _, err := NewParam(4).Bind(args); err == nil || !strings.Contains(err.Error(), "unbound parameter ?5") {
		t.Errorf("slot past the arguments: err = %v", err)
	}
	e := And(NewCmp(Lt, C("a"), &Param{Index: 1, T: sqltypes.Float64, Lifted: true}),
		NewCmp(Eq, C("s"), &Param{Index: 3, T: sqltypes.String, Lifted: true}))
	e = And(e, NewCmp(Gt, C("b"), NewParam(0)))
	if got, want := FormatArgs(e.String(), args), "(((a < 2.5) AND (s = 'o'x')) AND (b > ?1))"; got != want {
		t.Errorf("FormatArgs = %q, want %q", got, want)
	}
	if s := "(a < 1)"; FormatArgs(s, nil) != s {
		t.Error("FormatArgs changed a string with no lifted slot")
	}
}

func TestColumnEquality(t *testing.T) {
	s := sqltypes.NewSchema(
		sqltypes.Field{Name: "a", Type: sqltypes.Int64},
		sqltypes.Field{Name: "b", Type: sqltypes.Int64},
	)
	e := mustBind(t, NewCmp(Eq, C("a"), C("b")), s)
	l, r, ok := ColumnEquality(e)
	if !ok || l.Ordinal != 0 || r.Ordinal != 1 {
		t.Errorf("ColumnEquality = %v %v %v", l, r, ok)
	}
}

func TestAggResultTypes(t *testing.T) {
	b := B(0, sqltypes.Int64, "x")
	f := B(0, sqltypes.Float64, "y")
	cases := []struct {
		a    Agg
		want sqltypes.Type
	}{
		{Agg{Func: CountStarAgg}, sqltypes.Int64},
		{Agg{Func: CountAgg, Arg: b}, sqltypes.Int64},
		{Agg{Func: SumAgg, Arg: b}, sqltypes.Int64},
		{Agg{Func: SumAgg, Arg: f}, sqltypes.Float64},
		{Agg{Func: AvgAgg, Arg: b}, sqltypes.Float64},
		{Agg{Func: MinAgg, Arg: b}, sqltypes.Int64},
		{Agg{Func: MaxAgg, Arg: f}, sqltypes.Float64},
	}
	for _, c := range cases {
		if got := c.a.ResultType(); got != c.want {
			t.Errorf("%s.ResultType() = %v, want %v", c.a, got, c.want)
		}
	}
}

func TestCmpQuickConsistentWithCompare(t *testing.T) {
	f := func(a, b int64) bool {
		lt := evalOn(t, NewCmp(Lt, LitInt64(a), LitInt64(b)), nil).Bool()
		ge := evalOn(t, NewCmp(Ge, LitInt64(a), LitInt64(b)), nil).Bool()
		eq := evalOn(t, NewCmp(Eq, LitInt64(a), LitInt64(b)), nil).Bool()
		return lt != ge && eq == (a == b) && lt == (a < b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	s := testSchema()
	e := mustBind(t, And(NewCmp(Eq, C("id"), LitInt64(1)), NewCmp(Ne, C("name"), LitString("x"))), s)
	want := "((id = 1) AND (name <> 'x'))"
	if e.String() != want {
		t.Errorf("String = %q, want %q", e.String(), want)
	}
}
