package indexeddf

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"indexeddf/internal/testutil"
)

// bigSchema is a two-column schema for streaming tests.
func bigSchema() *Schema {
	return NewSchema(
		Field{Name: "id", Type: Int64},
		Field{Name: "val", Type: Int64},
	)
}

// newStreamSession creates a session tuned for streaming assertions: many
// partitions, a narrow task pool, and n rows in a vanilla table so the
// scan runs one task per partition.
func newStreamSession(t *testing.T, n, partitions, parallelism int) (*Session, *DataFrame) {
	t.Helper()
	s := NewSession(Config{TablePartitions: partitions, Parallelism: parallelism})
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = R(int64(i), int64(i%101))
	}
	df, err := s.CreateTable("big", bigSchema(), rows)
	if err != nil {
		t.Fatal(err)
	}
	return s, df
}

// TestCursorStreamsBeforeJobCompletes is the headline streaming property:
// a LIMIT-free scan of a 1M-row table yields its first row while well
// under 10% of partition tasks have completed.
func TestCursorStreamsBeforeJobCompletes(t *testing.T) {
	const nRows, nParts = 1_000_000, 64
	_, df := newStreamSession(t, nRows, nParts, 2)

	rows, err := df.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	completed := rows.Stats().TasksCompleted()
	if limit := int64(nParts / 10); completed >= limit {
		t.Fatalf("first row only after %d of %d partition tasks completed (want < %d)", completed, nParts, limit)
	}
	// Full drain still sees every row in Collect order.
	n := int64(1)
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != nRows {
		t.Fatalf("streamed %d rows, want %d", n, nRows)
	}
}

// TestLimitStreamingEarlyTerminates: a cursor over LIMIT n stops the job
// as soon as n rows are delivered — the remaining partition tasks are
// never launched, instead of every partition being gathered first.
func TestLimitStreamingEarlyTerminates(t *testing.T) {
	const nRows, nParts = 200_000, 64
	_, df := newStreamSession(t, nRows, nParts, 2)

	rows, err := df.Limit(5).Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var got []Row
	for rows.Next() {
		got = append(got, rows.Row())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("LIMIT 5 cursor delivered %d rows", len(got))
	}
	// Delivering 5 rows needed the first partition (plus whatever the
	// 2-wide pool had already picked up) — nowhere near all 64.
	started := rows.Stats().TasksStarted()
	if started >= nParts/2 {
		t.Fatalf("LIMIT 5 launched %d of %d partition tasks (want far fewer)", started, nParts)
	}
	// The truncated stream keeps Collect-order semantics: the same rows a
	// full unlimited Collect puts first.
	all, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(all[:5]) {
		t.Fatalf("streamed LIMIT rows %v differ from Collect prefix %v", got, all[:5])
	}
}

// TestLimitStreamingEarlyTerminatesSorted: ORDER BY ... LIMIT n over a
// cursor. Every partition must contribute its top-n candidates (a global
// top-n can skip no partition), but the final merge is bounded: it stops
// the moment the merged heap has proven no later row enters the top n —
// n rows delivered — instead of draining the full sorted result. The
// merge runs as a lazy final-stage task: abandoning the cursor mid-merge
// leaves that task started but never completed.
func TestLimitStreamingEarlyTerminatesSorted(t *testing.T) {
	const nRows, nParts = 200_000, 32
	s, df := newStreamSession(t, nRows, nParts, 4)

	// Reference: the sorted prefix (same engine, full-sort plan).
	all, err := df.OrderBy("val", "id").Limit(5).Collect()
	if err != nil {
		t.Fatal(err)
	}

	baseStarted := s.Context().TasksStarted()
	rows, err := df.OrderBy("val", "id").Limit(5).Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var got []Row
	for len(got) < 3 && rows.Next() {
		got = append(got, rows.Row())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(all[:3]) {
		t.Fatalf("streamed top-n rows %v differ from sorted prefix %v", got, all[:3])
	}
	// One heap task per partition plus the lazy merge task — no gather
	// stage, no global-limit stage.
	started := rows.Stats().TasksStarted()
	if started != nParts+1 {
		t.Fatalf("top-n cursor started %d tasks, want %d map + 1 merge", started, nParts)
	}
	// The per-query counter and the session-global counter count the same
	// task set.
	if global := s.Context().TasksStarted() - baseStarted; global != started {
		t.Fatalf("session-global task counter moved by %d, per-query counted %d", global, started)
	}
	// The abandoned merge never drained the remaining candidate rows: all
	// map tasks completed, the merge task did not.
	completed := rows.Stats().TasksCompleted()
	if completed != nParts {
		t.Fatalf("top-n cursor completed %d tasks, want %d (merge must stay incomplete)", completed, nParts)
	}
}

// TestCursorCloseCancelsRemainingTasks: closing the cursor after a few
// rows stops the remaining partition tasks (task counter).
func TestCursorCloseCancelsRemainingTasks(t *testing.T) {
	testutil.CheckGoroutines(t)
	const nRows, nParts = 400_000, 64
	_, df := newStreamSession(t, nRows, nParts, 2)

	rows, err := df.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10 && rows.Next(); i++ {
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	// Close waits for the workers to exit, so the counters are final.
	started := rows.Stats().TasksStarted()
	if started >= nParts/2 {
		t.Fatalf("%d of %d partition tasks started despite early Close (want far fewer)", started, nParts)
	}
	if rows.Next() {
		t.Fatal("Next returned true after Close")
	}
}

// TestQueryContextCancelMidStream: cancelling the caller's context
// surfaces context.Canceled from Rows.Err and stops the job.
func TestQueryContextCancelMidStream(t *testing.T) {
	testutil.CheckGoroutines(t)
	const nRows, nParts = 400_000, 64
	_, df := newStreamSession(t, nRows, nParts, 2)

	ctx, cancel := context.WithCancel(context.Background())
	rows, err := df.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	baseStarted := rows.Stats().TasksStarted()
	cancel()
	// Drain until the cancellation lands (buffered partitions may still
	// deliver a bounded number of rows).
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	if started := rows.Stats().TasksStarted() - baseStarted; started > nParts/2 {
		t.Fatalf("%d tasks started after cancel", started)
	}
}

// TestQueryDeadlineExceeded: an expired context surfaces
// context.DeadlineExceeded.
func TestQueryDeadlineExceeded(t *testing.T) {
	_, df := newStreamSession(t, 100_000, 16, 2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // deadline certainly past
	rows, err := df.Query(ctx)
	if err != nil {
		// Compilation happens before streaming; an error here is fine too
		// as long as it is the deadline.
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Query error = %v, want DeadlineExceeded", err)
		}
		return
	}
	defer rows.Close()
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want context.DeadlineExceeded", err)
	}
}

// TestConfigQueryTimeout: the session-wide default deadline applies when
// the caller passes a deadline-free context.
func TestConfigQueryTimeout(t *testing.T) {
	s := NewSession(Config{TablePartitions: 64, Parallelism: 2, QueryTimeout: time.Nanosecond})
	rows := make([]Row, 400_000)
	for i := range rows {
		rows[i] = R(int64(i), int64(i))
	}
	df, err := s.CreateTable("big", bigSchema(), rows)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := df.GroupBy("val").Count().Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for cur.Next() {
	}
	if err := cur.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want context.DeadlineExceeded from Config.QueryTimeout", err)
	}
}

// TestCollectMatchesQueryDrain: the Collect shim and a hand-drained cursor
// agree row for row (same partition order).
func TestCollectMatchesQueryDrain(t *testing.T) {
	_, df := newStreamSession(t, 10_000, 8, 4)
	want, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var got []Row
	for rows.Next() {
		got = append(got, rows.Row())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("cursor drained %d rows, Collect returned %d", len(got), len(want))
	}
	for i := range got {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("row %d: cursor %v vs Collect %v", i, got[i], want[i])
		}
	}
}

// TestRowsScan: Scan converts into native Go destinations.
func TestRowsScan(t *testing.T) {
	s := NewSession(Config{})
	df, err := s.CreateTable("t", NewSchema(
		Field{Name: "id", Type: Int64},
		Field{Name: "name", Type: String},
		Field{Name: "score", Type: Float64},
	), []Row{R(int64(7), "ada", 2.5)})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no row: %v", rows.Err())
	}
	var (
		id    int64
		name  string
		score float64
	)
	if err := rows.Scan(&id, &name, &score); err != nil {
		t.Fatal(err)
	}
	if id != 7 || name != "ada" || score != 2.5 {
		t.Fatalf("scanned (%d, %q, %v)", id, name, score)
	}
	if err := rows.Scan(&id); err == nil {
		t.Fatal("Scan with wrong arity did not fail")
	}
	// Type mismatches error instead of yielding zero values.
	var wrongType int64
	if err := rows.Scan(&wrongType, &name, &score); err != nil {
		t.Fatalf("int64 from Int64 column: %v", err)
	}
	if err := rows.Scan(&id, &wrongType, &score); err == nil {
		t.Fatal("scanning a non-numeric string into *int64 did not fail")
	}
}

// TestStmtSurvivesCatalogChange: a prepared statement recompiles after DDL
// instead of executing against a dropped table's stale handle.
func TestStmtSurvivesCatalogChange(t *testing.T) {
	s := newKeyedSession(t, 100)
	stmt, err := s.Prepare("SELECT city FROM users WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	before, err := stmt.Collect(context.Background(), int64(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 1 || before[0][0].String() != "nyc" {
		t.Fatalf("unexpected pre-DDL result %v", before)
	}
	s.DropTable("users")
	if _, err := stmt.Query(context.Background(), int64(3)); err == nil {
		t.Fatal("statement over a dropped table did not fail")
	}
	// Recreate with different contents: the statement must see the new table.
	df, err := s.CreateIndexedTable("users", NewSchema(
		Field{Name: "id", Type: Int64},
		Field{Name: "city", Type: String},
		Field{Name: "age", Type: Int64},
	), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.AppendRowsSlice([]Row{R(int64(3), "lisbon", int64(30))}); err != nil {
		t.Fatal(err)
	}
	after, err := stmt.Collect(context.Background(), int64(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 1 || after[0][0].String() != "lisbon" {
		t.Fatalf("statement did not recompile against the recreated table: %v", after)
	}
}

// newKeyedSession builds an indexed table keyed on id for prepared
// statement tests.
func newKeyedSession(t *testing.T, n int) *Session {
	t.Helper()
	s := NewSession(Config{})
	df, err := s.CreateIndexedTable("users", NewSchema(
		Field{Name: "id", Type: Int64},
		Field{Name: "city", Type: String},
		Field{Name: "age", Type: Int64},
	), 0)
	if err != nil {
		t.Fatal(err)
	}
	cities := []string{"ams", "del", "rio", "nyc", "sfo"}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = R(int64(i), cities[i%len(cities)], int64(18+i%60))
	}
	if _, err := df.AppendRowsSlice(rows); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPreparedStatementMatchesAdHoc: 50 randomized parameter bindings
// return results identical to the parse-per-call SQL path.
func TestPreparedStatementMatchesAdHoc(t *testing.T) {
	const n = 5_000
	s := newKeyedSession(t, n)
	stmt, err := s.Prepare("SELECT id, city, age FROM users WHERE id = ? AND age >= ?")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 2 {
		t.Fatalf("NumParams = %d, want 2", stmt.NumParams())
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		id := rng.Int63n(n)
		age := int64(18 + rng.Intn(60))
		got, err := stmt.Collect(context.Background(), id, age)
		if err != nil {
			t.Fatalf("binding %d (id=%d age=%d): %v", i, id, age, err)
		}
		want, err := s.MustSQL(fmt.Sprintf(
			"SELECT id, city, age FROM users WHERE id = %d AND age >= %d", id, age)).Collect()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("binding %d (id=%d age=%d): prepared %v vs ad-hoc %v", i, id, age, got, want)
		}
	}
	// The lookup must hit the index, not scan: verify via the plan shape.
	explain, err := s.MustSQL("SELECT id, city, age FROM users WHERE id = 1 AND age >= 0").Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "IndexLookup") {
		t.Fatalf("ad-hoc point lookup not index-assisted:\n%s", explain)
	}
}

// TestPreparedStatementErrors: arity mismatches, non-SELECT statements and
// cross-family comparisons fail cleanly, and unbound params error at
// execution.
func TestPreparedStatementErrors(t *testing.T) {
	s := newKeyedSession(t, 100)
	stmt, err := s.Prepare("SELECT id FROM users WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(context.Background()); err == nil {
		t.Fatal("missing argument did not fail")
	}
	if _, err := stmt.Query(context.Background(), 1, 2); err == nil {
		t.Fatal("extra argument did not fail")
	}
	if _, err := stmt.Query(context.Background(), struct{}{}); err == nil {
		t.Fatal("unsupported argument type did not fail")
	}
	if _, err := s.Prepare("DROP MATERIALIZED VIEW v"); err == nil {
		t.Fatal("preparing DDL did not fail")
	}
	// Running a parameterized statement ad hoc errors at execution.
	if _, err := s.MustSQL("SELECT id FROM users WHERE id = ?").Collect(); err == nil {
		t.Fatal("ad-hoc execution of parameterized SQL did not fail")
	}
	// A comparison across type families fails: ad hoc at analysis, and
	// prepared at execution, naming the argument and both types.
	if _, err := s.MustSQL("SELECT COUNT(*) FROM users WHERE age > 'abc'").Collect(); err == nil {
		t.Fatal("BIGINT > STRING literal did not fail")
	}
	cross, err := s.Prepare("SELECT COUNT(*) FROM users WHERE age > ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cross.Query(context.Background(), "abc"); err == nil ||
		!strings.Contains(err.Error(), "argument 1 is STRING") || !strings.Contains(err.Error(), "BIGINT") {
		t.Fatalf("BIGINT > STRING argument: err = %v", err)
	}
}

// TestCrossFamilyComparisonRejected: comparing a BIGINT column with a
// string used to read the string's unused integer lane (0) and return 990
// of 1,000 rows for `val > 'abc'`. Analysis now rejects the ad-hoc form,
// and a prepared statement rejects the argument, naming both types.
func TestCrossFamilyComparisonRejected(t *testing.T) {
	s := newObsSession(t, Config{}, 0, 1_000)
	if n, err := s.MustSQL("SELECT COUNT(*) FROM t WHERE val > 'abc'").Collect(); err == nil {
		t.Fatalf("BIGINT > STRING compared (COUNT %v)", n)
	}
	st, err := s.Prepare("SELECT COUNT(*) FROM t WHERE val > ?")
	if err != nil {
		t.Fatal(err)
	}
	n, err := st.Collect(context.Background(), "abc")
	if err == nil {
		t.Fatalf("BIGINT > STRING argument compared (COUNT %v)", n)
	}
	for _, want := range []string{"argument 1", "STRING", "BIGINT"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	// A float argument in an INT slot compares in the float family, as an
	// ad-hoc literal does.
	got, err := st.Collect(context.Background(), 99.5)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0].Int64Val() != 9 {
		t.Fatalf("val > 99.5 counted %v, want 9", got)
	}
}

// TestPreparedParamBelowVecExchange: a parameter that sits beneath a
// columnar exchange (a row Filter with a placeholder feeding a vectorized
// shuffle GROUP BY) must still be bound — the plan rewrite has to recurse
// through VecExchange, not stop at it and hand back the template with the
// placeholder unbound.
func TestPreparedParamBelowVecExchange(t *testing.T) {
	s := NewSession(Config{TablePartitions: 4})
	df, err := s.CreateTable("t", bigSchema(), func() []Row {
		rows := make([]Row, 4_000)
		for i := range rows {
			rows[i] = R(int64(i), int64(i%50))
		}
		return rows
	}())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.Cache(); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT val, COUNT(*) AS c FROM t WHERE id >= ? GROUP BY val"
	// The shape under test: a VecExchange above the param-bearing subtree.
	explain, err := s.MustSQL("SELECT val, COUNT(*) AS c FROM t WHERE id >= 0 GROUP BY val").Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "VecExchange") {
		t.Fatalf("expected a VecExchange in the aggregate plan:\n%s", explain)
	}
	stmt, err := s.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, bound := range []int64{0, 3_999, 1_234} {
		got, err := stmt.Collect(context.Background(), bound)
		if err != nil {
			t.Fatalf("bound=%d: %v", bound, err)
		}
		want, err := s.MustSQL(fmt.Sprintf(
			"SELECT val, COUNT(*) AS c FROM t WHERE id >= %d GROUP BY val", bound)).Collect()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(canonicalRows(got)) != fmt.Sprint(canonicalRows(want)) {
			t.Fatalf("bound=%d: prepared %v vs ad-hoc %v", bound, got, want)
		}
	}
}

// canonicalRows renders rows order-independently (group output order is
// partition-dependent).
func canonicalRows(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// TestPreparedPlanCacheReuse: preparing the same normalized SQL twice hits
// the LRU plan cache.
func TestPreparedPlanCacheReuse(t *testing.T) {
	s := newKeyedSession(t, 100)
	if _, err := s.Prepare("SELECT id FROM users WHERE id = ?"); err != nil {
		t.Fatal(err)
	}
	// Different whitespace and keyword case, same normalized statement.
	if _, err := s.Prepare("select  id\nfrom users\twhere id = ?"); err != nil {
		t.Fatal(err)
	}
	hits, misses := s.PlanCacheStats()
	if hits < 1 {
		t.Fatalf("plan cache hits = %d (misses %d), want >= 1", hits, misses)
	}
	// DDL on an unrelated table keeps the plan warm: invalidation is keyed
	// by the tables a compiled plan references.
	if _, err := s.CreateTable("other", bigSchema(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prepare("SELECT id FROM users WHERE id = ?"); err != nil {
		t.Fatal(err)
	}
	hits2, misses2 := s.PlanCacheStats()
	if misses2 != misses {
		t.Fatalf("unrelated DDL purged the plan (misses %d -> %d)", misses, misses2)
	}
	if hits2 <= hits {
		t.Fatalf("expected a cache hit after unrelated DDL (hits %d -> %d)", hits, hits2)
	}
	// DDL on the referenced table purges just its plans.
	s.DropTable("other") // unrelated drop: still warm
	if _, err := s.Prepare("SELECT id FROM users WHERE id = ?"); err != nil {
		t.Fatal(err)
	}
	if _, m := s.PlanCacheStats(); m != misses {
		t.Fatalf("dropping an unrelated table purged the plan (misses %d -> %d)", misses, m)
	}
	s.DropTable("users")
	if _, err := s.CreateIndexedTable("users", NewSchema(
		Field{Name: "id", Type: Int64},
		Field{Name: "city", Type: String},
		Field{Name: "age", Type: Int64},
	), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prepare("SELECT id FROM users WHERE id = ?"); err != nil {
		t.Fatal(err)
	}
	if _, m := s.PlanCacheStats(); m <= misses {
		t.Fatalf("expected a cache miss after DDL on the referenced table (misses %d -> %d)", misses, m)
	}
}

// TestConcurrentCursors runs many cursors over one session at once —
// meaningful under -race.
func TestConcurrentCursors(t *testing.T) {
	testutil.CheckGoroutines(t)
	const n = 50_000
	s, df := newStreamSession(t, n, 16, 4)
	stmt, err := s.Prepare("SELECT id, val FROM big WHERE val = ?")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Half the goroutines stream full scans, half run prepared
			// lookups with distinct bindings.
			if g%2 == 0 {
				rows, err := df.Query(context.Background())
				if err != nil {
					errs <- err
					return
				}
				defer rows.Close()
				c := 0
				for rows.Next() {
					c++
				}
				if err := rows.Err(); err != nil {
					errs <- err
					return
				}
				if c != n {
					errs <- fmt.Errorf("goroutine %d: streamed %d rows, want %d", g, c, n)
				}
			} else {
				for i := 0; i < 20; i++ {
					got, err := stmt.Collect(context.Background(), int64((g*31+i)%101))
					if err != nil {
						errs <- err
						return
					}
					if len(got) == 0 {
						errs <- fmt.Errorf("goroutine %d: empty lookup result", g)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDropTableDropsDependentViews: dropping a base table drops every
// materialized view defined over it (regression for the view leak).
func TestDropTableDropsDependentViews(t *testing.T) {
	s, _ := newViewSession(t, 1_000, 0)
	if _, err := s.CreateMaterializedView("by_region", salesAggSQL); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateMaterializedView("totals", "SELECT SUM(amount) AS total FROM sales"); err != nil {
		t.Fatal(err)
	}
	s.DropTable("sales")
	if got := s.MaterializedViews(); len(got) != 0 {
		t.Fatalf("views leaked after DropTable: %v", got)
	}
	for _, name := range []string{"sales", "by_region", "totals"} {
		if _, ok := s.LookupTable(name); ok {
			t.Fatalf("table/view %q still registered after DropTable", name)
		}
	}
}

// TestQueriesNeverSeePartialBatch: every query reads whole append batches.
// A writer appends 64-row batches, each tagged with its own b and spread
// over 8 partitions, while 64 GROUP BY queries count rows per b; none may
// see a batch with fewer than its 64 rows.
func TestQueriesNeverSeePartialBatch(t *testing.T) {
	testutil.CheckGoroutines(t)
	const batch = 64
	s := NewSession(Config{TablePartitions: 8, Parallelism: 2})
	schema := NewSchema(Field{Name: "a", Type: Int64}, Field{Name: "b", Type: Int64})
	df, err := s.CreateIndexedTable("t", schema, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(done)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := int64(0); ; b++ {
			select {
			case <-done:
				return
			default:
			}
			rows := make([]Row, batch)
			for i := range rows {
				rows[i] = Row{V(b*batch + int64(i)), V(b)}
			}
			if _, err := df.AppendRowsSlice(rows); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for q := 0; q < 64; q++ {
		out, err := s.SQL("SELECT b, COUNT(*) FROM t GROUP BY b HAVING COUNT(*) <> 64")
		if err != nil {
			t.Fatal(err)
		}
		rows, err := out.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 0 {
			t.Fatalf("query %d saw partial batches: %v", q, rows)
		}
	}
}
