package plan

import (
	"strings"
	"testing"

	"indexeddf/internal/catalog"
	"indexeddf/internal/expr"
	"indexeddf/internal/sqltypes"
)

func table(name string, n int) catalog.Table {
	schema := sqltypes.NewSchema(
		sqltypes.Field{Name: "id", Type: sqltypes.Int64},
		sqltypes.Field{Name: "v", Type: sqltypes.String},
	)
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = sqltypes.Row{sqltypes.NewInt64(int64(i)), sqltypes.NewString("x")}
	}
	return catalog.NewColumnTable(name, schema, [][]sqltypes.Row{rows})
}

func TestRelationSchemaQualified(t *testing.T) {
	r := NewRelation(table("t", 5), "")
	if r.Alias != "t" {
		t.Fatalf("default alias = %q", r.Alias)
	}
	if r.Schema().Field(0).Name != "t.id" {
		t.Fatalf("schema = %s", r.Schema())
	}
	r2 := NewRelation(table("t", 5), "a")
	if r2.Schema().Field(0).Name != "a.id" {
		t.Fatalf("aliased schema = %s", r2.Schema())
	}
	if r.Stats().Rows != 5 {
		t.Fatalf("stats = %+v", r.Stats())
	}
}

// TestSharedSchemas pins that nodes build their schemas once and share
// them: repeated Schema calls return one pointer, and a left outer join's
// nullable right side is its own copy, leaving the right child's schema
// as it was.
func TestSharedSchemas(t *testing.T) {
	left, right := NewRelation(table("l", 5), ""), NewRelation(table("r", 5), "b")
	if left.Schema() != left.Schema() {
		t.Fatal("Relation.Schema returns a new schema on every call")
	}
	if got := right.Schema().Field(1).Name; got != "b.v" {
		t.Fatalf("relation field = %q, want the alias-qualified b.v", got)
	}
	cond := expr.NewCmp(expr.Eq, expr.B(0, sqltypes.Int64, "l.id"), expr.B(2, sqltypes.Int64, "b.id"))
	j := NewJoin(LeftOuterJoin, left, right, cond)
	js := j.Schema()
	if js != j.Schema() {
		t.Fatal("Join.Schema returns a new schema on every call")
	}
	if js.Len() != 4 || js.Field(0).Nullable || !js.Field(2).Nullable || !js.Field(3).Nullable {
		t.Fatalf("left outer join schema = %s, want only the right side nullable", js)
	}
	for i, f := range right.Schema().Fields {
		if f.Nullable {
			t.Fatalf("left outer join marked the right child's field %d nullable: %s", i, right.Schema())
		}
	}
	inner := NewJoin(InnerJoin, left, right, cond)
	if inner.Schema().Field(2).Nullable {
		t.Fatalf("inner join schema = %s, want the right side as the child has it", inner.Schema())
	}
	// Transform with a callback that never fires hands back the same tree.
	root := NewLimit(3, NewFilter(cond, j))
	out, err := Transform(root, func(n Node) (Node, error) { return n, nil })
	if err != nil || out != Node(root) {
		t.Fatalf("identity transform rebuilt the tree (err %v)", err)
	}
}

func TestProjectSchemaAndStats(t *testing.T) {
	rel := NewRelation(table("t", 100), "")
	// Unresolved exprs -> nil schema.
	p := NewProject([]expr.Expr{expr.C("id")}, rel)
	if p.Schema() != nil {
		t.Fatal("unresolved project has schema")
	}
	// Resolved.
	b := expr.B(0, sqltypes.Int64, "id")
	p2 := NewProject([]expr.Expr{expr.As(b, "renamed")}, rel)
	if p2.Schema().Field(0).Name != "renamed" || p2.Schema().Field(0).Type != sqltypes.Int64 {
		t.Fatalf("schema = %s", p2.Schema())
	}
	if p2.Stats().Rows != 100 {
		t.Fatalf("stats = %+v", p2.Stats())
	}
}

func TestFilterStatsSelectivity(t *testing.T) {
	rel := NewRelation(table("t", 1000), "")
	b := expr.B(0, sqltypes.Int64, "id")
	eq := NewFilter(expr.NewCmp(expr.Eq, b, expr.LitInt64(1)), rel)
	rng := NewFilter(expr.NewCmp(expr.Gt, b, expr.LitInt64(1)), rel)
	if eq.Stats().Rows >= rng.Stats().Rows {
		t.Fatalf("equality (%d) should be more selective than range (%d)",
			eq.Stats().Rows, rng.Stats().Rows)
	}
}

func TestJoinSchemaNullability(t *testing.T) {
	l := NewRelation(table("l", 10), "")
	r := NewRelation(table("r", 20), "")
	inner := NewJoin(InnerJoin, l, r, nil)
	if inner.Schema().Len() != 4 {
		t.Fatalf("join schema = %s", inner.Schema())
	}
	outer := NewJoin(LeftOuterJoin, l, r, nil)
	if !outer.Schema().Field(2).Nullable {
		t.Fatal("left outer join right side not nullable")
	}
	if inner.Stats().Rows != 20 {
		t.Fatalf("join stats = %+v", inner.Stats())
	}
}

func TestAggregateSchema(t *testing.T) {
	rel := NewRelation(table("t", 100), "")
	g := expr.B(1, sqltypes.String, "v")
	a := NewAggregate([]expr.Expr{g},
		[]expr.Agg{{Func: expr.CountStarAgg, Name: "cnt"}}, rel)
	s := a.Schema()
	if s.Len() != 2 || s.Field(0).Name != "v" || s.Field(1).Name != "cnt" ||
		s.Field(1).Type != sqltypes.Int64 {
		t.Fatalf("schema = %s", s)
	}
	if a.Stats().Rows != 10 {
		t.Fatalf("grouped stats = %+v", a.Stats())
	}
	global := NewAggregate(nil, []expr.Agg{{Func: expr.CountStarAgg}}, rel)
	if global.Stats().Rows != 1 {
		t.Fatalf("global agg stats = %+v", global.Stats())
	}
}

func TestLimitUnionValuesStats(t *testing.T) {
	rel := NewRelation(table("t", 100), "")
	l := NewLimit(7, rel)
	if l.Stats().Rows != 7 {
		t.Fatalf("limit stats = %+v", l.Stats())
	}
	u := NewUnion(rel, rel)
	if u.Stats().Rows != 200 || u.Schema().Len() != 2 {
		t.Fatalf("union: %+v %s", u.Stats(), u.Schema())
	}
	v := NewValues(rel.Schema(), []sqltypes.Row{{sqltypes.NewInt64(1), sqltypes.NewString("a")}})
	if v.Stats().Rows != 1 {
		t.Fatalf("values stats = %+v", v.Stats())
	}
}

func TestTreeStringAndTransform(t *testing.T) {
	rel := NewRelation(table("t", 10), "")
	b := expr.B(0, sqltypes.Int64, "id")
	p := NewLimit(5, NewFilter(expr.NewCmp(expr.Gt, b, expr.LitInt64(1)), rel))
	s := TreeString(p)
	for _, want := range []string{"Limit 5", "Filter", "Relation t"} {
		if !strings.Contains(s, want) {
			t.Fatalf("TreeString missing %q:\n%s", want, s)
		}
	}
	// Transform: replace the limit with its child.
	out, err := Transform(p, func(n Node) (Node, error) {
		if l, ok := n.(*Limit); ok {
			return l.Child, nil
		}
		return n, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out.(*Filter); !ok {
		t.Fatalf("Transform result = %T", out)
	}
}

func TestWithChildrenArityChecks(t *testing.T) {
	rel := NewRelation(table("t", 10), "")
	b := expr.B(0, sqltypes.Int64, "id")
	f := NewFilter(expr.NewCmp(expr.Gt, b, expr.LitInt64(1)), rel)
	if _, err := f.WithChildren(nil); err == nil {
		t.Fatal("filter with 0 children accepted")
	}
	if _, err := rel.WithChildren([]Node{rel}); err == nil {
		t.Fatal("relation with a child accepted")
	}
	j := NewJoin(InnerJoin, rel, rel, nil)
	if _, err := j.WithChildren([]Node{rel}); err == nil {
		t.Fatal("join with 1 child accepted")
	}
}

func TestOutputName(t *testing.T) {
	if OutputName(expr.As(expr.LitInt64(1), "x"), 0) != "x" {
		t.Fatal("alias name")
	}
	if OutputName(expr.B(0, sqltypes.Int64, "col"), 0) != "col" {
		t.Fatal("bound name")
	}
	if OutputName(expr.LitInt64(1), 3) != "col3" {
		t.Fatal("generated name")
	}
}
