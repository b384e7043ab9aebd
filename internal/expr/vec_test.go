package expr

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"indexeddf/internal/sqltypes"
	"indexeddf/internal/vector"
)

// The vectorized kernels must agree with the row evaluator on every input,
// including NULLs, division by zero, Int32 wraparound and three-valued
// logic. These tests compare both evaluators over random batches.

func vecTestSchema() *sqltypes.Schema {
	return sqltypes.NewSchema(
		sqltypes.Field{Name: "i32", Type: sqltypes.Int32, Nullable: true},
		sqltypes.Field{Name: "i64", Type: sqltypes.Int64, Nullable: true},
		sqltypes.Field{Name: "f", Type: sqltypes.Float64, Nullable: true},
		sqltypes.Field{Name: "s", Type: sqltypes.String, Nullable: true},
		sqltypes.Field{Name: "b", Type: sqltypes.Bool, Nullable: true},
		sqltypes.Field{Name: "ts", Type: sqltypes.Timestamp, Nullable: true},
	)
}

func vecTestRows(rng *rand.Rand, n int) []sqltypes.Row {
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		row := sqltypes.Row{
			sqltypes.NewInt32(int32(rng.Intn(21) - 10)),
			sqltypes.NewInt64(int64(rng.Intn(21) - 10)),
			sqltypes.NewFloat64(float64(rng.Intn(21)-10) / 2),
			sqltypes.NewString(fmt.Sprintf("k%d", rng.Intn(5))),
			sqltypes.NewBool(rng.Intn(2) == 0),
			sqltypes.NewTimestamp(int64(rng.Intn(1000))),
		}
		for c := range row {
			if rng.Intn(4) == 0 {
				row[c] = sqltypes.Null
			}
		}
		rows[i] = row
	}
	return rows
}

func bindCol(t *testing.T, schema *sqltypes.Schema, name string) Expr {
	t.Helper()
	e, err := Bind(C(name), schema)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// checkKernel evaluates e both ways over rows and compares.
func checkKernel(t *testing.T, schema *sqltypes.Schema, rows []sqltypes.Row, e Expr) {
	t.Helper()
	ve, ok := CompileVec(e)
	if !ok {
		t.Fatalf("%s did not compile", e)
	}
	b := vector.NewBatch(schema)
	for _, r := range rows {
		if err := b.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ve.Eval(b)
	if err != nil {
		t.Fatalf("%s: vector eval: %v", e, err)
	}
	if got.Len() != len(rows) {
		t.Fatalf("%s: result has %d entries, want %d", e, got.Len(), len(rows))
	}
	for i, r := range rows {
		want, err := e.Eval(r)
		if err != nil {
			t.Fatalf("%s row %d: row eval: %v", e, i, err)
		}
		g := got.Get(i)
		if want.IsNull() != g.IsNull() {
			t.Fatalf("%s row %d (%s): null mismatch: vec=%s row=%s", e, i, r, g, want)
		}
		if !want.IsNull() && sqltypes.Compare(want, g) != 0 {
			t.Fatalf("%s row %d (%s): vec=%s row=%s", e, i, r, g, want)
		}
	}
}

func TestVecKernelsMatchRowEval(t *testing.T) {
	schema := vecTestSchema()
	rng := rand.New(rand.NewSource(42))
	rows := vecTestRows(rng, 777)

	i32 := bindCol(t, schema, "i32")
	i64 := bindCol(t, schema, "i64")
	f := bindCol(t, schema, "f")
	s := bindCol(t, schema, "s")
	bcol := bindCol(t, schema, "b")
	ts := bindCol(t, schema, "ts")

	ops := []CmpOp{Eq, Ne, Lt, Le, Gt, Ge}
	var exprs []Expr
	for _, op := range ops {
		exprs = append(exprs,
			NewCmp(op, i64, LitInt64(3)),                 // int vs scalar
			NewCmp(op, LitInt64(3), i64),                 // scalar vs int (mirrored)
			NewCmp(op, i32, i64),                         // mixed int widths
			NewCmp(op, f, i64),                           // float vs int
			NewCmp(op, f, Lit(sqltypes.NewFloat64(0.5))), // float vs scalar
			NewCmp(op, s, LitString("k2")),               // string vs scalar
			NewCmp(op, ts, i64),                          // timestamp vs int
		)
	}
	for _, aop := range []ArithOp{Add, Sub, Mul, Div, Mod} {
		exprs = append(exprs,
			NewArith(aop, i64, i32),         // Int64 result
			NewArith(aop, i32, i32),         // Int32 result (wraparound)
			NewArith(aop, f, i64),           // Float64 result
			NewArith(aop, i64, LitInt64(0)), // division by zero -> NULL
		)
	}
	exprs = append(exprs,
		// Fractional divisors in (-1, 1) truncate to zero: NULL, not an
		// integer-divide panic (regression).
		NewArith(Mod, f, Lit(sqltypes.NewFloat64(0.5))),
		NewArith(Mod, f, f),
		NewArith(Mod, i64, Lit(sqltypes.NewFloat64(0.25))),
		And(NewCmp(Gt, i64, LitInt64(0)), NewCmp(Lt, i32, LitInt64(5))),
		Or(NewCmp(Gt, i64, LitInt64(0)), bcol),
		And(bcol, bcol),
		Or(bcol, NewNot(bcol)),
		NewNot(NewCmp(Eq, s, LitString("k1"))),
		&IsNull{E: f},
		&IsNull{E: f, Negate: true},
		As(NewArith(Add, i64, LitInt64(7)), "aliased"),
		NewCmp(Gt, NewArith(Mul, i64, LitInt64(2)), NewArith(Add, i32, i64)),
		// A NULL typed by its slot compiles as an all-NULL constant.
		NewCmp(Lt, i64, &Literal{T: sqltypes.Int64}),
		NewArith(Add, &Literal{T: sqltypes.Float64}, f),
		Or(bcol, &Literal{T: sqltypes.Bool}),
	)
	for _, e := range exprs {
		checkKernel(t, schema, rows, e)
	}
}

// TestVecKernelEmptyAndChunked checks kernels across several batch shapes.
func TestVecKernelEmptyAndChunked(t *testing.T) {
	schema := vecTestSchema()
	rng := rand.New(rand.NewSource(3))
	e := And(NewCmp(Gt, bindCol(t, schema, "i64"), LitInt64(0)),
		NewCmp(Ne, bindCol(t, schema, "s"), LitString("k0")))
	for _, n := range []int{0, 1, 63, 64, 65, 128, 1024} {
		checkKernel(t, schema, vecTestRows(rng, n), e)
	}
}

// TestCompileVecRejects pins the fallback boundary: unsupported nodes must
// not compile (the planner keeps those operators row-at-a-time).
func TestCompileVecRejects(t *testing.T) {
	schema := vecTestSchema()
	s := bindCol(t, schema, "s")
	i64 := bindCol(t, schema, "i64")
	bad := []Expr{
		C("unbound"),                         // unresolved
		NewFunc("UPPER", s),                  // scalar function
		&Cast{E: i64, To: sqltypes.String},   // cast
		Lit(sqltypes.Null),                   // untyped NULL literal
		NewCmp(Eq, NewParam(0), NewParam(1)), // untyped placeholders
		NewCmp(Eq, s, i64),                   // incompatible comparison
		NewArith(Add, s, s),                  // non-numeric arithmetic
		And(i64, i64),                        // non-boolean logic operands
	}
	for _, e := range bad {
		if CanVectorize(e) {
			t.Errorf("%s unexpectedly compiled", e)
		}
	}
	if !CanVectorize(NewCmp(Eq, i64, LitInt64(1))) {
		t.Error("simple comparison failed to compile")
	}
	// A typed placeholder compiles; evaluating it unbound fails.
	ve, ok := CompileVec(NewCmp(Lt, i64, &Param{Index: 0, T: sqltypes.Int64}))
	if !ok {
		t.Fatal("typed placeholder comparison failed to compile")
	}
	b := vector.NewBatch(schema)
	if err := b.AppendRow(vecTestRows(rand.New(rand.NewSource(1)), 1)[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := ve.Eval(b); err == nil || !strings.Contains(err.Error(), "unbound parameter ?1") {
		t.Fatalf("unbound placeholder evaluated: err = %v", err)
	}
}
