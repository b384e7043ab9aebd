package plan

import (
	"bytes"
	"strings"
	"testing"

	"indexeddf/internal/expr"
	"indexeddf/internal/sqltypes"
)

// keyOf returns n's plan-cache key with the user's arguments, and the
// execution's argument list.
func keyOf(n Node, user ...sqltypes.Value) ([]byte, []sqltypes.Value) {
	var s Shape
	key := append([]byte(nil), s.Key(n, user)...)
	return key, s.Args()
}

// TestShapeLiftsLiterals: the key pass collects every liftable literal's
// value after the user's `?` slots, and Lift rebuilds the plan with those
// slots in the same order, typed by their values. What a rule reads by
// value stays in the plan: NULL, booleans, constant subtrees, LIMIT and an
// unnamed aggregate's argument.
func TestShapeLiftsLiterals(t *testing.T) {
	rel := NewRelation(table("t", 3), "")
	cond := expr.And(
		expr.And(expr.NewCmp(expr.Gt, expr.C("id"), expr.LitInt64(5)), expr.NewCmp(expr.Eq, expr.C("v"), expr.NewParam(0))),
		expr.And(expr.NewCmp(expr.Lt, expr.C("id"), expr.NewArith(expr.Add, expr.LitInt64(1), expr.LitInt64(2))),
			expr.Or(expr.NewCmp(expr.Ne, expr.C("v"), expr.Lit(sqltypes.Null)), expr.Lit(sqltypes.NewBool(true)))))
	n := NewLimit(10, NewAggregate(
		[]expr.Expr{expr.C("v")},
		[]expr.Agg{
			{Func: expr.SumAgg, Arg: expr.NewArith(expr.Mul, expr.C("id"), expr.LitInt64(3)), Name: "s"},
			{Func: expr.SumAgg, Arg: expr.NewArith(expr.Mul, expr.C("id"), expr.LitInt64(4))},
		},
		NewFilter(cond, rel)))
	key, args := keyOf(n, sqltypes.NewString("x"))
	want := []sqltypes.Value{sqltypes.NewString("x"), sqltypes.NewInt64(3), sqltypes.NewInt64(5)}
	if len(args) != len(want) {
		t.Fatalf("args = %v, want %v", args, want)
	}
	for i := range want {
		if args[i] != want[i] {
			t.Fatalf("args = %v, want %v", args, want)
		}
	}
	var s Shape
	s.Key(n, []sqltypes.Value{sqltypes.NewString("x")})
	lifted := s.Lift(n)
	if got := s.Key(n, []sqltypes.Value{sqltypes.NewString("x")}); !bytes.Equal(got, key) {
		t.Fatal("keying the same plan twice gave two keys")
	}
	got := TreeString(lifted)
	for _, w := range []string{
		"Limit 10",
		"SUM((id * \x001\x00))", // named: lifted into slot 1, after the user's ?1
		"SUM((id * 4))",         // unnamed: its name reads the literal
		"(id > \x002\x00)",      // aggregates key before their input
		"(v = ?1)",
		"(id < (1 + 2))", // constant: FoldConstants folds it
		"(v <> NULL)",
		"true",
	} {
		if !strings.Contains(got, w) {
			t.Errorf("lifted plan lacks %q:\n%q", w, got)
		}
	}
	if f := expr.FormatArgs(got, args); !strings.Contains(f, "(id > 5)") || !strings.Contains(f, "SUM((id * 3))") {
		t.Errorf("FormatArgs does not print the lifted values:\n%s", f)
	}
	var params []*expr.Param
	expr.Walk(lifted.(*Limit).Child.(*Aggregate).Child.(*Filter).Cond, func(e expr.Expr) bool {
		if p, ok := e.(*expr.Param); ok {
			params = append(params, p)
		}
		return true
	})
	if len(params) != 2 || params[0].Index != 2 || !params[0].Lifted || params[0].T != sqltypes.Int64 ||
		params[1].Index != 0 || params[1].Lifted || params[1].T != sqltypes.String {
		t.Errorf("filter slots = %+v %+v", params[0], params[1])
	}
}

// TestShapeKeyCarriesTableIdentity: two tables of one name and schema key
// differently.
func TestShapeKeyCarriesTableIdentity(t *testing.T) {
	a, _ := keyOf(NewRelation(table("t", 3), ""))
	b, _ := keyOf(NewRelation(table("t", 3), ""))
	if bytes.Equal(a, b) {
		t.Fatal("two tables named t share a key")
	}
}

// FuzzPlanKey: replacing a literal with another value of its type keeps
// the key; changing a column name, an operator, a literal's type or the
// LIMIT changes it. `go test` runs the seeds; `go test -fuzz FuzzPlanKey`
// explores.
func FuzzPlanKey(f *testing.F) {
	f.Add("id", uint8(2), int64(5), int64(7), 1.5, "abc", "abd", int64(10))
	f.Add("v", uint8(0), int64(0), int64(-1), 0.0, "", "x", int64(0))
	f.Add("t.id", uint8(5), int64(1<<40), int64(3), -2.25, "o'x", "", int64(1))
	rel := NewRelation(table("t", 1), "")
	f.Fuzz(func(t *testing.T, col string, op uint8, i1, i2 int64, fl float64, s1, s2 string, limit int64) {
		build := func(col string, op expr.CmpOp, num, str expr.Expr, limit int64) Node {
			return NewLimit(limit, NewProject([]expr.Expr{expr.C(col)},
				NewFilter(expr.And(expr.NewCmp(op, expr.C(col), num), expr.NewCmp(expr.Eq, expr.C("v"), str)), rel)))
		}
		cmp := expr.CmpOp(op % 6)
		base, args := keyOf(build(col, cmp, expr.LitInt64(i1), expr.LitString(s1), limit))
		if len(args) != 2 || args[0] != sqltypes.NewInt64(i1) || args[1] != sqltypes.NewString(s1) {
			t.Fatalf("args = %v", args)
		}
		same, _ := keyOf(build(col, cmp, expr.LitInt64(i2), expr.LitString(s2), limit))
		if !bytes.Equal(base, same) {
			t.Fatalf("new literal values changed the key:\n%q\n%q", base, same)
		}
		for what, n := range map[string]Node{
			"column":       build(col+"x", cmp, expr.LitInt64(i1), expr.LitString(s1), limit),
			"operator":     build(col, (cmp+1)%6, expr.LitInt64(i1), expr.LitString(s1), limit),
			"literal type": build(col, cmp, expr.Lit(sqltypes.NewFloat64(fl)), expr.LitString(s1), limit),
			"LIMIT":        build(col, cmp, expr.LitInt64(i1), expr.LitString(s1), limit+1),
		} {
			if k, _ := keyOf(n); bytes.Equal(base, k) {
				t.Errorf("changing the %s kept the key %q", what, k)
			}
		}
	})
}
