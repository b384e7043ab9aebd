package indexeddf_test

import (
	"strings"
	"testing"

	"indexeddf"
	"indexeddf/internal/opt"
)

// TestVectorizedPlanShapes guards the planner wiring: hot operators must
// actually lower to their vectorized forms (a silent fallback to the row
// path would keep results correct but forfeit the speedup).
func TestVectorizedPlanShapes(t *testing.T) {
	sess := buildSession(t, indexeddf.Config{}, 0, false)
	ixSess := buildSession(t, indexeddf.Config{}, 0, true)

	explain := func(s *indexeddf.Session, build func(*indexeddf.Session) (*indexeddf.DataFrame, error)) string {
		df, err := build(s)
		if err != nil {
			t.Fatal(err)
		}
		out, err := df.Explain()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	filterAgg := func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
		df, err := s.Table("facts")
		if err != nil {
			return nil, err
		}
		return df.Filter(indexeddf.Gt(indexeddf.Col("val"), indexeddf.Lit(float64(0)))).
			GroupBy("grp").Count(), nil
	}
	// A shuffle GROUP BY must be columnar end to end: partial aggregate,
	// exchange and final merge all vectorized — no row fallback at the
	// stage boundary.
	plan := explain(sess, filterAgg)
	for _, want := range []string{"VecFilter", "VecHashAggregate(partial)", "VecColumnarScan",
		"VecExchange", "VecHashAggregate(final)"} {
		if !strings.Contains(plan, want) {
			t.Errorf("vanilla filter+agg plan missing %s:\n%s", want, plan)
		}
	}
	if strings.Contains(plan, "\nExchange") || strings.Contains(plan, " Exchange") {
		t.Errorf("aggregate exchange fell back to the row exchange:\n%s", plan)
	}

	plan = explain(ixSess, filterAgg)
	if !strings.Contains(plan, "VecIndexedScan") {
		t.Errorf("indexed filter+agg plan missing VecIndexedScan:\n%s", plan)
	}

	// A join whose output feeds a vectorized aggregate gets the vectorized
	// probe; a join at the root (output collected as rows) stays row-based
	// — the columnar detour would be wasted work there.
	joinAgg := func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
		f, err := s.Table("facts")
		if err != nil {
			return nil, err
		}
		d, err := s.Table("dims")
		if err != nil {
			return nil, err
		}
		return f.Join(d, indexeddf.Eq(indexeddf.Col("grp"), indexeddf.Col("gid"))).
			GroupBy("label").Count(), nil
	}
	plan = explain(sess, joinAgg)
	if !strings.Contains(plan, "VecBroadcastHashJoin") {
		t.Errorf("vanilla join-under-agg plan missing VecBroadcastHashJoin:\n%s", plan)
	}
	plan = explain(ixSess, joinAgg)
	if !strings.Contains(plan, "VecIndexedJoin") {
		t.Errorf("indexed join-under-agg plan missing VecIndexedJoin:\n%s", plan)
	}

	join := func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
		f, err := s.Table("facts")
		if err != nil {
			return nil, err
		}
		d, err := s.Table("dims")
		if err != nil {
			return nil, err
		}
		return f.Join(d, indexeddf.Eq(indexeddf.Col("grp"), indexeddf.Col("gid"))), nil
	}
	plan = explain(sess, join)
	if strings.Contains(plan, "VecBroadcastHashJoin") {
		t.Errorf("root join must stay row-based (output is collected):\n%s", plan)
	}
	plan = explain(ixSess, join)
	if strings.Contains(plan, "VecIndexedJoin") {
		t.Errorf("root indexed join must stay row-based (output is collected):\n%s", plan)
	}

	// Projection pushdown becomes a vectorized scan with pruned columns.
	proj := func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
		df, err := s.Table("facts")
		if err != nil {
			return nil, err
		}
		return df.SelectCols("tag"), nil
	}
	plan = explain(sess, proj)
	if !strings.Contains(plan, "VecColumnarScan facts cols=[3]") {
		t.Errorf("projection pushdown lost in vectorized plan:\n%s", plan)
	}

	// A scalar function is not vectorizable: the Project must stay
	// row-based while the scan beneath it still vectorizes.
	fallback := func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
		df, err := s.Table("facts")
		if err != nil {
			return nil, err
		}
		return df.Select(indexeddf.Fn("UPPER", indexeddf.Col("tag"))), nil
	}
	plan = explain(sess, fallback)
	if strings.Contains(plan, "VecProject") {
		t.Errorf("UPPER projection must not vectorize:\n%s", plan)
	}
	if !strings.Contains(plan, "VecColumnarScan") {
		t.Errorf("scan under row Project should still vectorize:\n%s", plan)
	}

	// physicalOf isolates the physical section: the logical sections
	// legitimately show Sort/Limit/TopN nodes.
	physicalOf := func(plan string) string {
		_, phys, ok := strings.Cut(plan, "== Physical Plan ==")
		if !ok {
			t.Fatalf("EXPLAIN output missing physical plan:\n%s", plan)
		}
		return phys
	}

	// ORDER BY lowers to the batch sort; ORDER BY ... LIMIT fuses into the
	// bounded top-n — the full Sort (and its trailing Limit) must be gone.
	orderBy := func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
		return s.SQL("SELECT grp, val FROM facts ORDER BY val DESC, grp")
	}
	phys := physicalOf(explain(sess, orderBy))
	if !strings.Contains(phys, "VecSort [") {
		t.Errorf("ORDER BY plan missing VecSort:\n%s", phys)
	}
	if strings.Contains(phys, "\nSort") || strings.Contains(phys, " Sort [") {
		t.Errorf("ORDER BY plan kept the row sort:\n%s", phys)
	}
	topN := func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
		return s.SQL("SELECT grp, val FROM facts ORDER BY val LIMIT 100")
	}
	plan = explain(sess, topN)
	if !strings.Contains(plan, "TopN 100 [facts.val ASC]") {
		t.Errorf("optimized logical plan missing the fused TopN:\n%s", plan)
	}
	phys = physicalOf(plan)
	if !strings.Contains(phys, "VecTopN 100 [") {
		t.Errorf("ORDER BY ... LIMIT plan missing VecTopN:\n%s", phys)
	}
	if strings.Contains(phys, "Sort [") || strings.Contains(phys, "Limit 100") {
		t.Errorf("top-n fusion left a Sort/Limit behind:\n%s", phys)
	}

	// A non-vectorizable sort key (scalar function) keeps the row sort;
	// the scan beneath still vectorizes.
	exprSort := func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
		return s.SQL("SELECT tag FROM facts ORDER BY UPPER(tag)")
	}
	phys = physicalOf(explain(sess, exprSort))
	if strings.Contains(phys, "VecSort") || strings.Contains(phys, "VecTopN") {
		t.Errorf("UPPER sort key must not vectorize the sort:\n%s", phys)
	}
	if !strings.Contains(phys, "Sort [") || !strings.Contains(phys, "VecColumnarScan") {
		t.Errorf("want row Sort over a vectorized scan:\n%s", phys)
	}

	// A point-lookup-rooted ORDER BY stays row-bound end to end.
	lookupSort := func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
		return s.SQL("SELECT id, val FROM facts WHERE grp = 3 ORDER BY val LIMIT 10")
	}
	plan = explain(ixSess, lookupSort)
	if !strings.Contains(plan, "IndexLookup") {
		t.Errorf("expected an IndexLookup under the sort:\n%s", plan)
	}
	if strings.Contains(plan, "Vec") {
		t.Errorf("point-lookup-rooted sort must stay row-at-a-time:\n%s", plan)
	}

	// Outer joins stay on the row operators.
	outer := func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
		f, err := s.Table("facts")
		if err != nil {
			return nil, err
		}
		d, err := s.Table("dims")
		if err != nil {
			return nil, err
		}
		return f.LeftJoin(d, indexeddf.Eq(indexeddf.Col("grp"), indexeddf.Col("gid"))), nil
	}
	plan = explain(sess, outer)
	if strings.Contains(plan, "VecBroadcastHashJoin") || strings.Contains(plan, "VecShuffleHashJoin") {
		t.Errorf("left outer join must not vectorize:\n%s", plan)
	}

	// Point-lookup-rooted subtrees are row-bound: a handful of rows per
	// query, where vectorization overhead cannot amortize. The whole plan
	// must stay row-at-a-time.
	lookupJoin := func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
		f, err := s.Table("facts")
		if err != nil {
			return nil, err
		}
		d, err := s.Table("dims")
		if err != nil {
			return nil, err
		}
		return f.Filter(indexeddf.Eq(indexeddf.Col("grp"), indexeddf.Lit(int64(3)))).
			Join(d, indexeddf.Eq(indexeddf.Col("grp"), indexeddf.Col("gid"))).
			SelectCols("label", "val"), nil
	}
	plan = explain(ixSess, lookupJoin)
	if !strings.Contains(plan, "IndexLookup") {
		t.Errorf("expected an IndexLookup plan:\n%s", plan)
	}
	if strings.Contains(plan, "Vec") {
		t.Errorf("point-lookup-rooted plan must stay row-at-a-time:\n%s", plan)
	}

	// The RowEngine ablation turns the rewrite off entirely — including the
	// sort/top-n lowering (the logical TopN still lowers to Sort + Limit).
	rowSess := buildSession(t, indexeddf.Config{}, opt.RowEngine, false)
	plan = explain(rowSess, filterAgg)
	if strings.Contains(plan, "Vec") {
		t.Errorf("RowEngine plan contains vectorized operators:\n%s", plan)
	}
	plan = explain(rowSess, topN)
	if strings.Contains(plan, "Vec") {
		t.Errorf("RowEngine top-n plan contains vectorized operators:\n%s", plan)
	}
	for _, want := range []string{"Limit 100", "Sort ["} {
		if !strings.Contains(plan, want) {
			t.Errorf("RowEngine top-n plan missing %s:\n%s", want, plan)
		}
	}
}
