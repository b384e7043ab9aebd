package opt

import (
	"strings"
	"testing"

	"indexeddf/internal/catalog"
	"indexeddf/internal/core"
	"indexeddf/internal/expr"
	"indexeddf/internal/physical"
	"indexeddf/internal/plan"
	"indexeddf/internal/sqltypes"
)

func colTable(name string, n int) catalog.Table {
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

func idxTable(t *testing.T, name string, n int) catalog.Table {
	t.Helper()
	schema := sqltypes.NewSchema(
		sqltypes.Field{Name: "id", Type: sqltypes.Int64},
		sqltypes.Field{Name: "v", Type: sqltypes.String},
	)
	ct, err := core.NewIndexedTable(schema, 0, core.Options{NumPartitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = sqltypes.Row{sqltypes.NewInt64(int64(i)), sqltypes.NewString("x")}
	}
	if err := ct.Append(rows); err != nil {
		t.Fatal(err)
	}
	return catalog.NewIndexedTable(name, ct)
}

func analyze(t *testing.T, n plan.Node) plan.Node {
	t.Helper()
	out, err := Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAnalyzeBindsFilter(t *testing.T) {
	rel := plan.NewRelation(colTable("t", 10), "")
	f := plan.NewFilter(expr.NewCmp(expr.Eq, expr.C("id"), expr.LitInt64(1)), rel)
	out := analyze(t, f)
	cond := out.(*plan.Filter).Cond
	if !cond.Resolved() {
		t.Fatalf("condition unresolved: %s", cond)
	}
	// Unknown column fails.
	bad := plan.NewFilter(expr.NewCmp(expr.Eq, expr.C("nope"), expr.LitInt64(1)), rel)
	if _, err := Analyze(bad); err == nil {
		t.Fatal("unknown column accepted")
	}
	// Non-boolean condition fails.
	nb := plan.NewFilter(expr.NewArith(expr.Add, expr.C("id"), expr.LitInt64(1)), rel)
	if _, err := Analyze(nb); err == nil {
		t.Fatal("non-boolean filter accepted")
	}
}

func TestAnalyzeJoinBindsAgainstConcat(t *testing.T) {
	l := plan.NewRelation(colTable("l", 10), "")
	r := plan.NewRelation(colTable("r", 10), "")
	j := plan.NewJoin(plan.InnerJoin, l, r,
		expr.NewCmp(expr.Eq, expr.C("l.id"), expr.C("r.id")))
	out := analyze(t, j).(*plan.Join)
	lb, rb, ok := expr.ColumnEquality(out.Cond)
	if !ok || lb.Ordinal != 0 || rb.Ordinal != 2 {
		t.Fatalf("join cond = %s", out.Cond)
	}
}

func TestAnalyzeUnionChecks(t *testing.T) {
	a := plan.NewRelation(colTable("a", 5), "")
	b := plan.NewRelation(colTable("b", 5), "")
	if _, err := Analyze(plan.NewUnion(a, b)); err != nil {
		t.Fatalf("compatible union rejected: %v", err)
	}
	narrow := plan.NewProject([]expr.Expr{expr.B(0, sqltypes.Int64, "id")}, a)
	if _, err := Analyze(plan.NewUnion(narrow, b)); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestOptimizeFoldsAndSimplifies(t *testing.T) {
	rel := plan.NewRelation(colTable("t", 10), "")
	// WHERE 1 = 1 folds to true and the filter disappears.
	f := plan.NewFilter(expr.NewCmp(expr.Eq, expr.LitInt64(1), expr.LitInt64(1)), rel)
	out, err := Optimize(analyze(t, f))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out.(*plan.Relation); !ok {
		t.Fatalf("trivial filter not removed:\n%s", plan.TreeString(out))
	}
}

func TestOptimizeCombinesFilters(t *testing.T) {
	rel := plan.NewRelation(colTable("t", 10), "")
	f := plan.NewFilter(expr.NewCmp(expr.Gt, expr.C("id"), expr.LitInt64(1)),
		plan.NewFilter(expr.NewCmp(expr.Lt, expr.C("id"), expr.LitInt64(9)), rel))
	out, err := Optimize(analyze(t, f))
	if err != nil {
		t.Fatal(err)
	}
	top, ok := out.(*plan.Filter)
	if !ok {
		t.Fatalf("top not filter:\n%s", plan.TreeString(out))
	}
	if _, ok := top.Child.(*plan.Relation); !ok {
		t.Fatalf("filters not combined:\n%s", plan.TreeString(out))
	}
	if len(expr.SplitConjunction(top.Cond)) != 2 {
		t.Fatalf("cond = %s", top.Cond)
	}
}

func TestOptimizePushesFilterIntoJoin(t *testing.T) {
	l := plan.NewRelation(colTable("l", 10), "")
	r := plan.NewRelation(colTable("r", 10), "")
	j := plan.NewJoin(plan.InnerJoin, l, r,
		expr.NewCmp(expr.Eq, expr.C("l.id"), expr.C("r.id")))
	f := plan.NewFilter(expr.And(
		expr.NewCmp(expr.Gt, expr.C("l.id"), expr.LitInt64(2)),
		expr.NewCmp(expr.Lt, expr.C("r.id"), expr.LitInt64(8))), j)
	out, err := Optimize(analyze(t, f))
	if err != nil {
		t.Fatal(err)
	}
	tree := plan.TreeString(out)
	jn, ok := out.(*plan.Join)
	if !ok {
		t.Fatalf("top is %T:\n%s", out, tree)
	}
	if _, ok := jn.Left.(*plan.Filter); !ok {
		t.Fatalf("left conjunct not pushed:\n%s", tree)
	}
	if _, ok := jn.Right.(*plan.Filter); !ok {
		t.Fatalf("right conjunct not pushed:\n%s", tree)
	}
}

func TestOptimizePushFilterBelowProject(t *testing.T) {
	rel := plan.NewRelation(colTable("t", 10), "")
	p := plan.NewProject([]expr.Expr{expr.C("v"), expr.C("id")}, rel)
	f := plan.NewFilter(expr.NewCmp(expr.Eq, expr.C("id"), expr.LitInt64(3)), p)
	out, err := Optimize(analyze(t, f))
	if err != nil {
		t.Fatal(err)
	}
	proj, ok := out.(*plan.Project)
	if !ok {
		t.Fatalf("top is %T:\n%s", out, plan.TreeString(out))
	}
	inner, ok := proj.Child.(*plan.Filter)
	if !ok {
		t.Fatalf("filter not pushed below project:\n%s", plan.TreeString(out))
	}
	// The pushed filter must address the relation's ordinal of id (0).
	col, _, ok := expr.EqualityWithKeyConst(inner.Cond)
	if !ok || col.Ordinal != 0 {
		t.Fatalf("pushed cond = %s", inner.Cond)
	}
}

func TestOptimizeCombineLimits(t *testing.T) {
	rel := plan.NewRelation(colTable("t", 100), "")
	l := plan.NewLimit(5, plan.NewLimit(10, rel))
	out, err := Optimize(analyze(t, l))
	if err != nil {
		t.Fatal(err)
	}
	lim, ok := out.(*plan.Limit)
	if !ok || lim.N != 5 {
		t.Fatalf("limits not combined:\n%s", plan.TreeString(out))
	}
	if _, ok := lim.Child.(*plan.Relation); !ok {
		t.Fatalf("nested limit survived:\n%s", plan.TreeString(out))
	}
}

func planOf(t *testing.T, n plan.Node) physical.Exec {
	t.Helper()
	analyzed := analyze(t, n)
	optimized, err := Optimize(analyzed)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := NewPlanner(PlannerConfig{ShufflePartitions: 4, BroadcastThreshold: 10_000}).Plan(optimized)
	if err != nil {
		t.Fatal(err)
	}
	return exec
}

func TestPlannerSelectsIndexLookup(t *testing.T) {
	rel := plan.NewRelation(idxTable(t, "it", 100), "")
	f := plan.NewFilter(expr.NewCmp(expr.Eq, expr.C("id"), expr.LitInt64(5)), rel)
	exec := planOf(t, f)
	if !strings.Contains(physical.TreeString(exec), "IndexLookup") {
		t.Fatalf("no index lookup:\n%s", physical.TreeString(exec))
	}
	// Equality on the non-key column must not use the index.
	f2 := plan.NewFilter(expr.NewCmp(expr.Eq, expr.C("v"), expr.LitString("x")), rel)
	exec2 := planOf(t, f2)
	if strings.Contains(physical.TreeString(exec2), "IndexLookup") {
		t.Fatalf("index lookup on non-key:\n%s", physical.TreeString(exec2))
	}
}

func TestPlannerSelectsIndexedJoin(t *testing.T) {
	l := plan.NewRelation(idxTable(t, "it", 100), "")
	r := plan.NewRelation(colTable("t", 50), "")
	j := plan.NewJoin(plan.InnerJoin, l, r,
		expr.NewCmp(expr.Eq, expr.C("it.id"), expr.C("t.id")))
	exec := planOf(t, j)
	tree := physical.TreeString(exec)
	if !strings.Contains(tree, "IndexedJoin") {
		t.Fatalf("no indexed join:\n%s", tree)
	}
	// Small probe side => broadcast mode.
	if !strings.Contains(tree, "broadcast") {
		t.Fatalf("expected broadcast probe:\n%s", tree)
	}
}

func TestPlannerIndexedJoinShuffleWhenProbeLarge(t *testing.T) {
	l := plan.NewRelation(idxTable(t, "it", 100), "")
	r := plan.NewRelation(colTable("t", 50_000), "")
	j := plan.NewJoin(plan.InnerJoin, l, r,
		expr.NewCmp(expr.Eq, expr.C("it.id"), expr.C("t.id")))
	exec := planOf(t, j)
	tree := physical.TreeString(exec)
	if !strings.Contains(tree, "IndexedJoin Inner shuffle") {
		t.Fatalf("expected shuffle probe:\n%s", tree)
	}
}

func TestPlannerLeftOuterWithIndexedLeftFallsBack(t *testing.T) {
	// LeftOuter with the indexed side on the left would not preserve probe
	// rows; the planner must fall back to a hash join.
	l := plan.NewRelation(idxTable(t, "it", 100), "")
	r := plan.NewRelation(colTable("t", 50), "")
	j := plan.NewJoin(plan.LeftOuterJoin, l, r,
		expr.NewCmp(expr.Eq, expr.C("it.id"), expr.C("t.id")))
	exec := planOf(t, j)
	tree := physical.TreeString(exec)
	if strings.Contains(tree, "IndexedJoin") {
		t.Fatalf("unsound indexed left-outer join:\n%s", tree)
	}
}

func TestPlannerVanillaJoinStrategies(t *testing.T) {
	small := plan.NewRelation(colTable("s", 10), "")
	big := plan.NewRelation(colTable("b", 100_000), "")
	big2 := plan.NewRelation(colTable("b2", 100_000), "")
	// small right side -> broadcast.
	j1 := planOf(t, plan.NewJoin(plan.InnerJoin, big, small,
		expr.NewCmp(expr.Eq, expr.C("b.id"), expr.C("s.id"))))
	if !strings.Contains(physical.TreeString(j1), "BroadcastHashJoin") {
		t.Fatalf("no broadcast:\n%s", physical.TreeString(j1))
	}
	// both big -> shuffle.
	j2 := planOf(t, plan.NewJoin(plan.InnerJoin, big, big2,
		expr.NewCmp(expr.Eq, expr.C("b.id"), expr.C("b2.id"))))
	if !strings.Contains(physical.TreeString(j2), "ShuffleHashJoin") {
		t.Fatalf("no shuffle join:\n%s", physical.TreeString(j2))
	}
	// non-equi -> nested loop.
	j3 := planOf(t, plan.NewJoin(plan.InnerJoin, small, small,
		expr.NewCmp(expr.Lt, expr.C("s.id"), expr.LitInt64(5))))
	if !strings.Contains(physical.TreeString(j3), "NestedLoopJoin") {
		t.Fatalf("no nested loop:\n%s", physical.TreeString(j3))
	}
}

func TestPlannerAggregateShape(t *testing.T) {
	rel := plan.NewRelation(colTable("t", 100), "")
	a := plan.NewAggregate([]expr.Expr{expr.C("v")},
		[]expr.Agg{{Func: expr.CountStarAgg, Name: "c"}}, rel)
	exec := planOf(t, a)
	tree := physical.TreeString(exec)
	for _, want := range []string{"HashAggregate(final)", "Exchange hash", "HashAggregate(partial)"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("aggregate plan missing %q:\n%s", want, tree)
		}
	}
	// Global aggregate exchanges to a single partition.
	g := plan.NewAggregate(nil, []expr.Agg{{Func: expr.CountStarAgg}}, rel)
	gt := physical.TreeString(planOf(t, g))
	if !strings.Contains(gt, "Exchange single") {
		t.Fatalf("global agg plan:\n%s", gt)
	}
}

func TestPlannerProjectionPushdown(t *testing.T) {
	rel := plan.NewRelation(colTable("t", 100), "")
	p := plan.NewProject([]expr.Expr{expr.C("v")}, rel)
	tree := physical.TreeString(planOf(t, p))
	if !strings.Contains(tree, "ColumnarScan t cols=[1]") {
		t.Fatalf("projection not pushed into scan:\n%s", tree)
	}
	// Computed projections stay as ProjectExec.
	p2 := plan.NewProject([]expr.Expr{expr.NewArith(expr.Add, expr.C("id"), expr.LitInt64(1))}, rel)
	tree2 := physical.TreeString(planOf(t, p2))
	if !strings.Contains(tree2, "Project") {
		t.Fatalf("computed projection lost:\n%s", tree2)
	}
}
