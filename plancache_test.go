package indexeddf

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// The cached-plan contract: every query compiles through one plan cache
// keyed on plan shape and argument types, with its literals lifted into
// argument slots. These tests pin what the key must carry and what a
// shared plan must not keep between executions.

// TestCachedPlanKeysTableIdentity: a DataFrame over a table that was
// dropped and re-created under its name keys on the old table itself, so
// neither frame ever runs the other's plan — even when the old frame
// compiles after the re-creation, which a name-keyed cache would then
// serve to the new table's queries.
func TestCachedPlanKeysTableIdentity(t *testing.T) {
	s := NewSession(Config{TablePartitions: 2})
	create := func(val int64) *DataFrame {
		df, err := s.CreateIndexedTable("t", bigSchema(), 0)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]Row, 10)
		for i := range rows {
			rows[i] = R(int64(i), val)
		}
		if _, err := df.AppendRowsSlice(rows); err != nil {
			t.Fatal(err)
		}
		return df
	}
	lookup := func(df *DataFrame, id int64) int64 {
		t.Helper()
		rows, err := df.Filter(Eq(Col("id"), Lit(id))).SelectCols("val").Collect()
		if err != nil || len(rows) != 1 {
			t.Fatalf("lookup %d: %v, %v", id, rows, err)
		}
		return rows[0][0].Int64Val()
	}
	old := create(1)
	if got := lookup(old, 3); got != 1 {
		t.Fatalf("old table: val = %d, want 1", got)
	}
	s.DropTable("t")
	fresh := create(2)
	if got := lookup(old, 4); got != 1 {
		t.Fatalf("old frame after re-create: val = %d, want 1", got)
	}
	if got := lookup(fresh, 5); got != 2 {
		t.Fatalf("new table read the old table's plan: val = %d, want 2", got)
	}
	named, err := s.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := lookup(named, 6); got != 2 {
		t.Fatalf("Table(t) after re-create: val = %d, want 2", got)
	}
	if got, err := s.MustSQL("SELECT val FROM t WHERE id = 7").Collect(); err != nil || got[0][0].Int64Val() != 2 {
		t.Fatalf("SQL after re-create: %v, %v", got, err)
	}
}

// TestCachedPlanViewFilterLiteral: an aggregate over a view's base table
// with the view's own filter literal is answered from the view; the same
// shape with another literal must not be (the view holds other rows) and
// answers as a recompute does. The literal stays in the key by value for
// that shape, so the two never share a plan, in either order.
func TestCachedPlanViewFilterLiteral(t *testing.T) {
	s, _ := newViewSession(t, 400, 0)
	plain := copySales(t, s)
	const def = "SELECT region, SUM(amount) AS total FROM %s WHERE amount > %d GROUP BY region"
	if _, err := s.CreateMaterializedView("big_sales", fmt.Sprintf(def, "sales", 1000)); err != nil {
		t.Fatal(err)
	}
	for _, lit := range []int{1000, 2000, 1000, 3000} {
		df := s.MustSQL(fmt.Sprintf(def, "sales", lit))
		explain, err := df.Explain()
		if err != nil {
			t.Fatal(err)
		}
		if fromView := strings.Contains(explain, "ViewScan"); fromView != (lit == 1000) {
			t.Fatalf("amount > %d: answered from the view = %v:\n%s", lit, fromView, explain)
		}
		if !strings.Contains(explain, fmt.Sprintf("(sales.amount > %d)", lit)) {
			t.Fatalf("amount > %d: the plan does not print its literal:\n%s", lit, explain)
		}
		got, err := df.Collect()
		if err != nil {
			t.Fatal(err)
		}
		wantSameRows(t, got, collectSorted(t, s, fmt.Sprintf(def, plain, lit)), false)
	}
}

// copySales registers a vanilla copy of the view session's sales table —
// never answered from a view — and returns its name.
func copySales(t *testing.T, s *Session) string {
	t.Helper()
	rows, err := s.MustSQL("SELECT id, region, amount FROM sales").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("sales_plain", salesSchema(), rows); err != nil {
		t.Fatal(err)
	}
	return "sales_plain"
}

// TestCachedPlanViewReadSeesRefresh: a repeated ad-hoc read of a view,
// answered by one cached plan, sees every append to the base table.
func TestCachedPlanViewReadSeesRefresh(t *testing.T) {
	s, sales := newViewSession(t, 200, 0)
	if _, err := s.CreateMaterializedView("by_region", salesAggSQL); err != nil {
		t.Fatal(err)
	}
	const read = "SELECT region, total FROM by_region"
	collectSorted(t, s, read) // compiles
	for round := 0; round < 5; round++ {
		var rows []Row
		for i := 0; i < 40; i++ {
			id := int64(1_000 + round*40 + i)
			rows = append(rows, R(id, []string{"emea", "amer", "apac", "anz", "latam"}[i%5], id))
		}
		if _, err := sales.AppendRowsSlice(rows); err != nil {
			t.Fatal(err)
		}
		hits0, misses0 := s.PlanCacheStats()
		got := collectSorted(t, s, read)
		hits1, misses1 := s.PlanCacheStats()
		if hits1 != hits0+1 || misses1 != misses0 {
			t.Fatalf("round %d: the view read was not a plan-cache hit (hits +%d, misses +%d)", round, hits1-hits0, misses1-misses0)
		}
		// The filter keeps every row but matches no view: a recompute.
		want := collectSorted(t, s, "SELECT region, SUM(amount) AS total FROM sales WHERE id >= 0 GROUP BY region")
		wantSameRows(t, got, want, false)
	}
}

// cachedShape is one query shape of TestCachedPlanConcurrentLiterals: a
// SQL text with one %d, and whether its rows come ordered.
type cachedShape struct {
	name    string
	sql     string
	lits    []int64
	ordered bool
}

// TestCachedPlanConcurrentLiterals runs one cached plan per shape from 4
// goroutines at once, each with its own literal, and requires every
// answer to equal the serial run's. The executions share the compiled
// operator tree: any per-execution state kept in it shows up here
// (meaningful under -race). The shapes are the analytic workload's —
// filter, GROUP BY, shuffle join and top-100 over indexed tables with no
// broadcast — and the out-of-core ones: a sort, a GROUP BY and a join at
// about ten times the query's memory budget, spilling.
func TestCachedPlanConcurrentLiterals(t *testing.T) {
	t.Run("analytic", func(t *testing.T) {
		s := NewSession(Config{TablePartitions: 4, ShufflePartitions: 4, Parallelism: 2,
			BroadcastThreshold: 1, MemoryLimit: 1 << 30, QueryMemoryLimit: 1 << 29})
		k, err := s.CreateIndexedTable("k", NewSchema(
			Field{Name: "a", Type: Int64}, Field{Name: "b", Type: Int64}, Field{Name: "c", Type: Int64}), 0)
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.CreateIndexedTable("p", NewSchema(
			Field{Name: "id", Type: Int64}, Field{Name: "name", Type: String}), 0)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(46))
		var krows, prows []Row
		for i := 0; i < 8_000; i++ {
			krows = append(krows, R(int64(rng.Intn(500)), int64(rng.Intn(1_000)), int64(rng.Intn(100_000))))
		}
		for i := 0; i < 1_000; i++ {
			prows = append(prows, R(int64(i), fmt.Sprintf("p%d", i)))
		}
		if _, err := k.AppendRowsSlice(krows); err != nil {
			t.Fatal(err)
		}
		if _, err := p.AppendRowsSlice(prows); err != nil {
			t.Fatal(err)
		}
		lits := []int64{10_000, 35_000, 60_000, 90_000}
		runShapes(t, s, []cachedShape{
			{"filter", "SELECT a, b FROM k WHERE c > %d", lits, false},
			{"group by", "SELECT a, COUNT(*) AS n, SUM(b) AS s FROM k WHERE c < %d GROUP BY a", lits, false},
			{"shuffle join", "SELECT k.a, p.name FROM k JOIN p ON k.b = p.id WHERE k.c < %d", lits, false},
			{"top-100", "SELECT a, b, c FROM k WHERE c > %d ORDER BY c DESC, a, b LIMIT 100", lits, true},
		}, 0)
	})
	t.Run("spill", func(t *testing.T) {
		const limit = 160 << 10
		dir := t.TempDir()
		s := NewSession(Config{TablePartitions: 8, ShufflePartitions: 4, Parallelism: 2,
			BroadcastThreshold: 1, QueryMemoryLimit: limit, SpillDir: dir})
		t.Cleanup(func() {
			if err := s.Close(); err != nil {
				t.Errorf("Session.Close: %v", err)
			}
		})
		rng := rand.New(rand.NewSource(47))
		big := spillRows(rng, 20_000, 400) // ~1.6 MiB: about ten times the budget
		if _, err := s.CreateTable("big", spillSchema(), big); err != nil {
			t.Fatal(err)
		}
		var right []Row
		for i := 0; i < 1_000; i++ {
			right = append(right, R(int64(i%50), int64(i), fmt.Sprintf("r-%04d", i)))
		}
		if _, err := s.CreateTable("r", spillSchema(), right); err != nil {
			t.Fatal(err)
		}
		lits := []int64{0, 2_000, 5_000, 9_000}
		runShapes(t, s, []cachedShape{
			{"sort", "SELECT id, val, grp FROM big WHERE id >= %d ORDER BY val, id", lits, true},
			{"group by", "SELECT grp, COUNT(*) AS n, SUM(id) AS s, MIN(val) AS m FROM big WHERE id >= %d GROUP BY grp", lits, false},
			{"join", "SELECT r.id, COUNT(*) AS n, MIN(big.grp) AS g FROM big JOIN r ON big.val = r.id WHERE big.id >= %d GROUP BY r.id", lits, false},
		}, limit)
	})
}

// runShapes runs each shape serially once per literal (compiling its one
// plan), then from 4 goroutines at once, goroutine g with literal g, and
// compares. A positive limit also requires the serial runs to spill and
// stay under it.
func runShapes(t *testing.T, s *Session, shapes []cachedShape, limit int64) {
	t.Helper()
	ctx := context.Background()
	run := func(q string) ([]Row, int64, error) {
		rows, err := s.Query(ctx, q)
		if err != nil {
			return nil, 0, err
		}
		out, err := drainRows(rows)
		return out, rows.Stats().SpillRuns(), err
	}
	for _, sh := range shapes {
		want := make([][]Row, len(sh.lits))
		_, misses0 := s.PlanCacheStats()
		for i, lit := range sh.lits {
			out, spills, err := run(fmt.Sprintf(sh.sql, lit))
			if err != nil {
				t.Fatalf("%s(%d): %v", sh.name, lit, err)
			}
			if limit > 0 && spills == 0 {
				t.Fatalf("%s(%d) did not spill at a %d-byte budget", sh.name, lit, limit)
			}
			want[i] = out
		}
		_, misses1 := s.PlanCacheStats()
		if misses1-misses0 != 1 {
			t.Fatalf("%s: %d literals compiled %d plans, want 1", sh.name, len(sh.lits), misses1-misses0)
		}
		var wg sync.WaitGroup
		errs := make(chan error, len(sh.lits))
		for g := range sh.lits {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for rep := 0; rep < 2; rep++ {
					got, _, err := run(fmt.Sprintf(sh.sql, sh.lits[g]))
					if err == nil && !sameRows(got, want[g], sh.ordered) {
						err = fmt.Errorf("%d rows differ from the serial run's %d", len(got), len(want[g]))
					}
					if err != nil {
						errs <- fmt.Errorf("%s(%d), goroutine %d: %w", sh.name, sh.lits[g], g, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if _, misses := s.PlanCacheStats(); misses != misses1 {
			t.Errorf("%s: concurrent runs compiled %d plans", sh.name, misses-misses1)
		}
	}
}

// sameRows compares result sets, positionally when ordered.
func sameRows(got, want []Row, ordered bool) bool {
	if ordered {
		return fmt.Sprint(got) == fmt.Sprint(want)
	}
	return fmt.Sprint(canonicalRows(got)) == fmt.Sprint(canonicalRows(want))
}

// TestCachedPlanNegativeLiteral: a minus applied to a number parses as a
// negative literal, so `val > -5` then `val > -6` share one plan like
// their positive twins, and answer as the subtraction `0 - n` does —
// down to the sign of zero: -0.0 is +0.0, as 0 - 0.0 evaluates.
func TestCachedPlanNegativeLiteral(t *testing.T) {
	s := NewSession(Config{TablePartitions: 2})
	df, err := s.CreateIndexedTable("t", bigSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	for i := 0; i < 20; i++ {
		rows = append(rows, R(int64(i), int64(i-10)))
	}
	if _, err := df.AppendRowsSlice(rows); err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := s.PlanCacheStats()
	got5 := collectSorted(t, s, "SELECT id FROM t WHERE val > -5")
	got6 := collectSorted(t, s, "SELECT id FROM t WHERE val > -6")
	if hits1, misses1 := s.PlanCacheStats(); misses1-misses0 != 1 || hits1-hits0 != 1 {
		t.Fatalf("> -5 then > -6: %d misses and %d hits, want 1 and 1", misses1-misses0, hits1-hits0)
	}
	wantSameRows(t, got5, collectSorted(t, s, "SELECT id FROM t WHERE val > 0 - 5"), true)
	wantSameRows(t, got6, collectSorted(t, s, "SELECT id FROM t WHERE val > 0 - 6"), true)
	if len(got5) != 14 || len(got6) != 15 {
		t.Fatalf("> -5 kept %d rows, > -6 kept %d, want 14 and 15", len(got5), len(got6))
	}

	// val is -7 for id 3: -7 * +0.0 is -0.0, -7 * -0.0 would be +0.0.
	zero := func(q string) float64 {
		t.Helper()
		out := collectSorted(t, s, q)
		if len(out) != 1 {
			t.Fatalf("%s: %d rows, want 1", q, len(out))
		}
		return out[0][0].Float64Val()
	}
	lit, sub := zero("SELECT val * -0.0 FROM t WHERE id = 3"), zero("SELECT val * (0 - 0.0) FROM t WHERE id = 3")
	if math.Signbit(lit) != math.Signbit(sub) {
		t.Fatalf("val * -0.0 = %v, val * (0 - 0.0) = %v: -0.0 must read as 0 - 0.0", lit, sub)
	}
}
