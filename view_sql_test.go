package indexeddf

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"indexeddf/internal/opt"
	"indexeddf/internal/stream"
	"indexeddf/internal/testutil"
	"indexeddf/internal/view"
)

func salesSchema() *Schema {
	return NewSchema(
		Field{Name: "id", Type: Int64},
		Field{Name: "region", Type: String},
		Field{Name: "amount", Type: Int64, Nullable: true},
	)
}

// newViewSession returns a session with an indexed "sales" table of n rows
// (id indexed; region one of 4 values; amount = id*10).
func newViewSession(t *testing.T, n int, ablate opt.Ablation) (*Session, *DataFrame) {
	t.Helper()
	s := newSession(Config{}, ablate)
	df, err := s.CreateIndexedTable("sales", salesSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	regions := []string{"emea", "amer", "apac", "anz"}
	var rows []Row
	for i := 0; i < n; i++ {
		rows = append(rows, R(int64(i), regions[i%len(regions)], int64(i*10)))
	}
	if _, err := df.AppendRowsSlice(rows); err != nil {
		t.Fatal(err)
	}
	return s, df
}

// sortRows orders rows by their string rendering (set comparison).
func sortRows(rows []Row) {
	sort.Slice(rows, func(i, j int) bool {
		return fmt.Sprint(rows[i]) < fmt.Sprint(rows[j])
	})
}

func collectSorted(t *testing.T, s *Session, q string) []Row {
	t.Helper()
	rows, err := s.MustSQL(q).Collect()
	if err != nil {
		t.Fatal(err)
	}
	sortRows(rows)
	return rows
}

const salesAggSQL = "SELECT region, COUNT(*) AS cnt, SUM(amount) AS total FROM sales GROUP BY region"

func TestCreateMaterializedViewSQLAndRewrite(t *testing.T) {
	s, df := newViewSession(t, 100, 0)
	want := collectSorted(t, s, salesAggSQL)

	rows, err := s.MustSQL("CREATE MATERIALIZED VIEW sales_by_region AS " + salesAggSQL).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !strings.Contains(rows[0][0].StringVal(), "created materialized view") {
		t.Fatalf("status = %v", rows)
	}

	// The same aggregate now plans as a view scan...
	explain, err := s.MustSQL(salesAggSQL).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "ViewScan sales_by_region") {
		t.Fatalf("explain missing ViewScan:\n%s", explain)
	}
	if !strings.Contains(explain, "answered from materialized view \"sales_by_region\"") {
		t.Fatalf("explain missing view annotation:\n%s", explain)
	}
	if strings.Contains(explain, "HashAggregate") {
		t.Fatalf("view-answered plan still aggregates:\n%s", explain)
	}

	// ...with identical results, also after further appends and overwrites.
	if got := collectSorted(t, s, salesAggSQL); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("view-answered = %v\nwant %v", got, want)
	}
	if _, err := df.AppendRowsSlice([]Row{R(int64(1000), "emea", int64(7)), R(int64(1001), "apac", nil), R(int64(4), "anz", int64(-3))}); err != nil {
		t.Fatal(err)
	}
	v, ok := s.MaterializedView("sales_by_region")
	if !ok {
		t.Fatal("view not registered")
	}
	got := collectSorted(t, s, salesAggSQL)
	want = freshAggregate(t, s)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after append+overwrite: view %v\nwant %v", got, want)
	}
	if v.RefreshedVersion() == 0 {
		t.Fatal("view never advertised a refreshed version")
	}
}

func TestViewRewriteDisabled(t *testing.T) {
	s, _ := newViewSession(t, 50, opt.NoViewRewrite)
	if _, err := s.SQL("CREATE MATERIALIZED VIEW v AS " + salesAggSQL); err != nil {
		t.Fatal(err)
	}
	explain, err := s.MustSQL(salesAggSQL).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(explain, "ViewScan") {
		t.Fatalf("NoViewRewrite ignored:\n%s", explain)
	}
	if !strings.Contains(explain, "HashAggregate") {
		t.Fatalf("expected from-scratch aggregate:\n%s", explain)
	}
	// The view is still queryable by name.
	rows := collectSorted(t, s, "SELECT region, cnt, total FROM v")
	if len(rows) != 4 {
		t.Fatalf("view rows = %d", len(rows))
	}
}

func TestSelectFromViewByName(t *testing.T) {
	s, _ := newViewSession(t, 80, 0)
	if _, err := s.SQL("CREATE MATERIALIZED VIEW v AS " + salesAggSQL); err != nil {
		t.Fatal(err)
	}
	want := collectSorted(t, s, salesAggSQL)
	got := collectSorted(t, s, "SELECT * FROM v")
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("SELECT * FROM v = %v\nwant %v", got, want)
	}
	// Projection pushdown through the view's visible schema.
	cnts := collectSorted(t, s, "SELECT cnt FROM v")
	if len(cnts) != 4 || len(cnts[0]) != 1 {
		t.Fatalf("projected view scan = %v", cnts)
	}
}

func TestViewWithWhereAndHaving(t *testing.T) {
	s, _ := newViewSession(t, 120, 0)
	def := "SELECT region, SUM(amount) AS total FROM sales WHERE amount > 100 GROUP BY region"
	if _, err := s.SQL("CREATE MATERIALIZED VIEW big_sales AS " + def); err != nil {
		t.Fatal(err)
	}
	// HAVING over the view-answered aggregate: the filter stays above the
	// view scan.
	q := def + " HAVING SUM(amount) > 1000"
	explain, err := s.MustSQL(q).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "ViewScan big_sales") {
		t.Fatalf("HAVING query not view-answered:\n%s", explain)
	}
	got := collectSorted(t, s, q)
	if len(got) == 0 {
		t.Fatal("no groups passed HAVING")
	}
	// An aggregate with a different WHERE must not match.
	other := "SELECT region, SUM(amount) AS total FROM sales WHERE amount > 999 GROUP BY region"
	explain, err = s.MustSQL(other).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(explain, "ViewScan") {
		t.Fatalf("mismatched filter wrongly view-answered:\n%s", explain)
	}
}

func TestDropAndRefreshMaterializedViewSQL(t *testing.T) {
	s, df := newViewSession(t, 40, 0)
	if _, err := s.SQL("CREATE MATERIALIZED VIEW v AS " + salesAggSQL); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SQL("REFRESH MATERIALIZED VIEW v"); err != nil {
		t.Fatal(err)
	}
	if names := s.MaterializedViews(); len(names) != 1 || names[0] != "v" {
		t.Fatalf("views = %v", names)
	}
	if _, err := s.SQL("DROP MATERIALIZED VIEW v"); err != nil {
		t.Fatal(err)
	}
	if names := s.MaterializedViews(); len(names) != 0 {
		t.Fatalf("views after drop = %v", names)
	}
	explain, err := s.MustSQL(salesAggSQL).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(explain, "ViewScan") {
		t.Fatal("dropped view still answers queries")
	}
	// Dropping the last view turned change capture off: further appends
	// must not accumulate log records.
	if df.IndexedCore().ChangeCaptureEnabled() {
		t.Fatal("capture still on after last view dropped")
	}
	if _, err := df.AppendRowsSlice([]Row{R(int64(9000), "emea", int64(1))}); err != nil {
		t.Fatal(err)
	}
	if n := df.IndexedCore().ChangeLogSize(); n != 0 {
		t.Fatalf("change log grew to %d with no views", n)
	}
	// The name is reusable.
	if _, err := s.SQL("CREATE MATERIALIZED VIEW v AS " + salesAggSQL); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SQL("REFRESH MATERIALIZED VIEW missing"); err == nil {
		t.Fatal("refreshing a missing view should fail")
	}
}

func TestCreateViewRejectsUnsupportedQueries(t *testing.T) {
	s, _ := newViewSession(t, 10, 0)
	for _, q := range []string{
		"CREATE MATERIALIZED VIEW bad1 AS SELECT id, region FROM sales",                                 // no aggregation
		"CREATE MATERIALIZED VIEW bad2 AS SELECT region, COUNT(*) c FROM sales GROUP BY region LIMIT 1", // limit
	} {
		if _, err := s.SQL(q); err == nil {
			t.Fatalf("%s: expected rejection", q)
		}
	}
	// Vanilla (non-indexed) base tables are rejected too.
	if _, err := s.CreateTable("plain", salesSchema(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SQL("CREATE MATERIALIZED VIEW bad3 AS SELECT region, COUNT(*) c FROM plain GROUP BY region"); err == nil {
		t.Fatal("view over vanilla table should be rejected")
	}
}

func TestViewOverwriteRegression(t *testing.T) {
	// Overwritten keys keep every version visible: the delta-maintained
	// view must fold each new version beside the old ones and stay
	// value-identical to a from-scratch aggregate.
	s, df := newViewSession(t, 60, 0)
	if _, err := s.SQL("CREATE MATERIALIZED VIEW v AS " + salesAggSQL); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MustSQL(salesAggSQL).Collect(); err != nil {
		t.Fatal(err)
	}
	regions := []string{"emea", "amer", "apac", "anz"}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		var rows []Row
		for j := 0; j < 1+rng.Intn(3); j++ {
			k := int64(rng.Intn(60))
			rows = append(rows, R(k, regions[rng.Intn(len(regions))], k))
		}
		if _, err := df.AppendRowsSlice(rows); err != nil {
			t.Fatal(err)
		}
		if i%10 != 9 {
			continue
		}
		got := collectSorted(t, s, salesAggSQL)
		want := freshAggregate(t, s)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("after %d overwrites: view %v\nwant %v", i+1, got, want)
		}
	}
	v, _ := s.MaterializedView("v")
	if v.(*view.View).Stats().FullRecomputes != 1 {
		t.Fatal("overwrites must fold as deltas, not force a recompute")
	}
}

// freshAggregate recomputes salesAggSQL from scratch in a rewrite-free
// session sharing the same storage (registering the same core table).
func freshAggregate(t *testing.T, s *Session) []Row {
	t.Helper()
	rows, err := s.aggregateWithoutViews(salesAggSQL)
	if err != nil {
		t.Fatal(err)
	}
	sortRows(rows)
	return rows
}

func TestStreamIngestKeepsViewFresh(t *testing.T) {
	testutil.CheckGoroutines(t)
	s, _ := newViewSession(t, 20, 0)
	v, err := s.CreateMaterializedView("v", salesAggSQL)
	if err != nil {
		t.Fatal(err)
	}
	topic := stream.NewTopic("sales-updates", 3)
	for i := 0; i < 50; i++ {
		row := R(int64(100+i), []string{"emea", "apac"}[i%2], int64(i))
		topic.Produce(row[0], row)
	}
	applied, err := s.IngestTopic(topic, "applier", "sales", 16)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 50 {
		t.Fatalf("applied = %d", applied)
	}
	// Ingestion refreshed the view without any query: no pending delta.
	version := v.RefreshedVersion()
	got := collectSorted(t, s, salesAggSQL)
	want := freshAggregate(t, s)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after ingest: view %v\nwant %v", got, want)
	}
	if v.RefreshedVersion() != version {
		t.Fatal("query should have found the ingested view already fresh")
	}
	// A second drain with nothing pending is a no-op.
	if n, err := s.IngestTopic(topic, "applier", "sales", 16); err != nil || n != 0 {
		t.Fatalf("re-drain = %d, %v", n, err)
	}
}
