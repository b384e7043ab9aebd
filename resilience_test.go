package indexeddf

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"indexeddf/internal/faultpoint"
	"indexeddf/internal/memory"
	"indexeddf/internal/rdd"
	"indexeddf/internal/stream"
	"indexeddf/internal/testutil"
	"indexeddf/internal/view"
)

// newBudgetSession builds a session over an n-row "big" table with the
// given memory budgets (engine / per-query, 0 = unbounded).
func newBudgetSession(t *testing.T, n int, engineLimit, queryLimit int64) *Session {
	t.Helper()
	s := NewSession(Config{MemoryLimit: engineLimit, QueryMemoryLimit: queryLimit})
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = R(int64(i), int64(i%101))
	}
	if _, err := s.CreateTable("big", bigSchema(), rows); err != nil {
		t.Fatal(err)
	}
	return s
}

// newSpillBudgetSession is newBudgetSession with out-of-core execution
// enabled: a tight per-query budget plus a SpillDir whose end-of-test
// emptiness is asserted — failed and chaos-ridden queries must reap every
// run file.
func newSpillBudgetSession(t *testing.T, n int, queryLimit int64) *Session {
	t.Helper()
	dir := t.TempDir()
	testutil.CheckNoFiles(t, dir)
	s := NewSession(Config{QueryMemoryLimit: queryLimit, SpillDir: dir,
		TablePartitions: 8, ShufflePartitions: 4, Parallelism: 2})
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Session.Close: %v", err)
		}
	})
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = R(int64(i), int64(i%101))
	}
	if _, err := s.CreateTable("big", bigSchema(), rows); err != nil {
		t.Fatal(err)
	}
	return s
}

// collectSQL runs a query to completion, returning the rows or the error
// that terminated the cursor.
func collectSQL(s *Session, q string) ([]Row, error) {
	rows, err := s.Query(context.Background(), q)
	if err != nil {
		return nil, err
	}
	return drainRows(rows)
}

// wantLimitError asserts err is a memory-budget failure naming op at scope.
func wantLimitError(t *testing.T, err error, op, scope string) {
	t.Helper()
	if !errors.Is(err, memory.ErrMemoryExceeded) {
		t.Fatalf("err = %v, want ErrMemoryExceeded", err)
	}
	var le *memory.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *memory.LimitError", err)
	}
	if le.Operator != op || le.Scope != scope {
		t.Fatalf("limit error names operator %q scope %q (query %q), want %q/%q: %v",
			le.Operator, le.Scope, le.Query, op, scope, err)
	}
}

// TestQueryMemoryLimitGroupBy: a high-cardinality GROUP BY blows its
// per-query budget and fails with a structured error naming the aggregate
// operator — while a concurrent query under budget completes untouched.
func TestQueryMemoryLimitGroupBy(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := newBudgetSession(t, 200_000, 0, 256<<10)

	var wg sync.WaitGroup
	wg.Add(1)
	small := make(chan error, 1)
	go func() {
		defer wg.Done()
		rows, err := collectSQL(s, "SELECT COUNT(*) FROM big WHERE val < 50")
		if err == nil && (len(rows) != 1 || rows[0][0].Int64Val() == 0) {
			err = fmt.Errorf("bad small-query result %v", rows)
		}
		small <- err
	}()

	_, err := collectSQL(s, "SELECT id, COUNT(*) FROM big GROUP BY id")
	wantLimitError(t, err, "VecHashAgg", "query")

	wg.Wait()
	if err := <-small; err != nil {
		t.Fatalf("concurrent under-budget query: %v", err)
	}
	// The failed query's whole grant went back to the engine pool.
	if used := s.MemoryPool().Used(); used > 64<<10 {
		t.Fatalf("pool still holds %d bytes after queries finished", used)
	}
	if n := s.Context().ShuffleOutstanding(); n != 0 {
		t.Fatalf("%d shuffles still retained", n)
	}
}

// TestQueryMemoryLimitOrderBy: an ORDER BY whose sort buffers exceed the
// per-query budget fails naming the sort operator; the same session then
// answers a budget-friendly query (LIMIT pushes down to a bounded top-n).
func TestQueryMemoryLimitOrderBy(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := newBudgetSession(t, 200_000, 0, 256<<10)

	_, err := collectSQL(s, "SELECT id, val FROM big ORDER BY val, id")
	wantLimitError(t, err, "VecSort", "query")

	rows, err := collectSQL(s, "SELECT id, val FROM big ORDER BY val, id LIMIT 5")
	if err != nil {
		t.Fatalf("bounded top-n after budget failure: %v", err)
	}
	if len(rows) != 5 {
		t.Fatalf("top-n returned %d rows", len(rows))
	}
	if used := s.MemoryPool().Used(); used > 64<<10 {
		t.Fatalf("pool still holds %d bytes", used)
	}
}

// TestEngineMemoryLimit: with only the engine-wide pool bounded, a
// runaway query fails engine-scope and the pool drains back so later
// queries run.
func TestEngineMemoryLimit(t *testing.T) {
	s := newBudgetSession(t, 200_000, 4<<20, 0)

	_, err := collectSQL(s, "SELECT id, COUNT(*) FROM big GROUP BY id")
	if !errors.Is(err, memory.ErrMemoryExceeded) {
		t.Fatalf("err = %v, want ErrMemoryExceeded", err)
	}
	var le *memory.LimitError
	if !errors.As(err, &le) || le.Scope != "engine" {
		t.Fatalf("err = %v, want engine-scope limit error", err)
	}

	rows, err := collectSQL(s, "SELECT val, COUNT(*) FROM big GROUP BY val")
	if err != nil {
		t.Fatalf("session unusable after engine-limit failure: %v", err)
	}
	if len(rows) != 101 {
		t.Fatalf("follow-up GROUP BY returned %d groups, want 101", len(rows))
	}
}

// TestPanicContainmentAtFaultpoints arms a panic at every engine-side
// injection site in turn and asserts the resilience contract: the query
// fails with a *rdd.TaskPanicError carrying the injected value and a
// stack, the process survives, no shuffle outputs leak, and the very same
// session answers the very same query correctly once the fault is gone.
func TestPanicContainmentAtFaultpoints(t *testing.T) {
	defer faultpoint.Reset()
	testutil.CheckGoroutines(t)
	s := newBudgetSession(t, 50_000, 0, 0)
	const q = "SELECT val, COUNT(*) AS c FROM big GROUP BY val"
	want, err := collectSQL(s, q)
	if err != nil {
		t.Fatal(err)
	}
	sortRows(want)

	for _, p := range []faultpoint.Point{
		faultpoint.TaskStart, faultpoint.ShuffleWrite,
		faultpoint.BatchSeal, faultpoint.ShuffleFetch,
	} {
		t.Run(string(p), func(t *testing.T) {
			faultpoint.Reset()
			faultpoint.Arm(p, faultpoint.Schedule{Panic: "injected-boom", Limit: 1})
			_, err := collectSQL(s, q)
			if err == nil {
				t.Fatalf("query survived a panic at %s (site never reached?)", p)
			}
			var tp *rdd.TaskPanicError
			if !errors.As(err, &tp) {
				t.Fatalf("err = %v (%T), want *rdd.TaskPanicError", err, err)
			}
			inj, ok := tp.Val.(*faultpoint.Injected)
			if !ok || inj.Point != p || inj.Val != "injected-boom" {
				t.Fatalf("panic value = %#v, want injected at %s", tp.Val, p)
			}
			if len(tp.Stack) == 0 || !strings.Contains(string(tp.Stack), "goroutine") {
				t.Fatal("panic error carries no stack")
			}

			// Fault cleared: the same session answers correctly.
			faultpoint.Reset()
			got, err := collectSQL(s, q)
			if err != nil {
				t.Fatalf("session unserviceable after contained panic: %v", err)
			}
			sortRows(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("post-fault results diverge:\n got %v\nwant %v", got, want)
			}
			waitShufflesReleased(t, s)
		})
	}
}

// TestErrorInjectionAtFaultpoints: scheduled errors (not panics) surface
// to the caller with errors.Is intact through every wrapping layer.
func TestErrorInjectionAtFaultpoints(t *testing.T) {
	defer faultpoint.Reset()
	s := newBudgetSession(t, 20_000, 0, 0)
	boom := errors.New("injected failure")
	const q = "SELECT val, COUNT(*) FROM big GROUP BY val"
	for _, p := range []faultpoint.Point{
		faultpoint.TaskStart, faultpoint.ShuffleWrite,
		faultpoint.BatchSeal, faultpoint.ShuffleFetch,
	} {
		faultpoint.Reset()
		faultpoint.Arm(p, faultpoint.Schedule{Err: boom, Limit: 1})
		if _, err := collectSQL(s, q); !errors.Is(err, boom) {
			t.Fatalf("%s: err = %v, want wrapped injected error", p, err)
		}
	}
	faultpoint.Reset()
	if _, err := collectSQL(s, q); err != nil {
		t.Fatalf("session unserviceable after injected errors: %v", err)
	}
}

// waitShufflesReleased polls the leak invariant: every shuffle's retained
// map outputs are dropped once the cursors over them are gone.
func waitShufflesReleased(t *testing.T, s *Session) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := s.Context().ShuffleOutstanding()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d shuffles still retain outputs", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShuffleReleasedOnCursorClose pins the satellite leak invariant:
// truncated and cancelled cursors over shuffle stages retain no outputs
// after Close.
func TestShuffleReleasedOnCursorClose(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := newBudgetSession(t, 100_000, 0, 0)

	// Truncated: read two groups of a shuffled aggregate, then Close.
	rows, err := s.Query(context.Background(), "SELECT val, COUNT(*) FROM big GROUP BY val")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2 && rows.Next(); i++ {
	}
	rows.Close()
	waitShufflesReleased(t, s)

	// Cancelled mid-stream.
	ctx, cancel := context.WithCancel(context.Background())
	rows, err = s.Query(ctx, "SELECT id, val FROM big ORDER BY val, id")
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	cancel()
	for rows.Next() {
	}
	rows.Close()
	waitShufflesReleased(t, s)
}

// TestOrderByCancelsMidPartition: cancellation lands inside sort-run
// building / the k-way merge (the interruptible-sort satellite), so a
// large ORDER BY stops promptly instead of sorting to completion.
func TestOrderByCancelsMidPartition(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := newBudgetSession(t, 1_000_000, 0, 0)
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := s.Query(ctx, "SELECT id, val FROM big ORDER BY val, id")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Fatalf("cancellation took %v — sort did not poll the context", d)
	}
}

// TestIngestViewRefreshFault: an injected view-refresh failure during
// stream ingestion surfaces to the caller, and the view — whose
// accumulator state the aborted refresh may have partially folded — falls
// back to a full recompute and keeps answering correctly.
func TestIngestViewRefreshFault(t *testing.T) {
	defer faultpoint.Reset()
	testutil.CheckGoroutines(t)
	s, _ := newViewSession(t, 20, 0)
	mv, err := s.CreateMaterializedView("v", salesAggSQL)
	if err != nil {
		t.Fatal(err)
	}
	vv := mv.(*view.View)
	baseRecomputes := vv.Stats().FullRecomputes

	topic := stream.NewTopic("sales-updates", 3)
	for i := 0; i < 50; i++ {
		row := R(int64(100+i), []string{"emea", "apac"}[i%2], int64(i))
		topic.Produce(row[0], row)
	}

	boom := errors.New("refresh blew up")
	faultpoint.Arm(faultpoint.ViewRefresh, faultpoint.Schedule{Err: boom, Limit: 1})
	applied, err := s.IngestTopic(topic, "applier", "sales", 16)
	if !errors.Is(err, boom) {
		t.Fatalf("ingest err = %v, want injected refresh failure", err)
	}
	if applied != 16 {
		t.Fatalf("applied = %d, want the first batch (16) stuck before the refresh failed", applied)
	}

	// Fault exhausted: draining the rest succeeds, and the view answers
	// identically to a from-scratch aggregation — via a full recompute,
	// never by re-folding the delta the failed refresh half-applied.
	rest, err := s.IngestTopic(topic, "applier", "sales", 16)
	if err != nil {
		t.Fatal(err)
	}
	if applied+rest != 50 {
		t.Fatalf("applied %d + %d rows, want 50", applied, rest)
	}
	got := collectSorted(t, s, salesAggSQL)
	want := freshAggregate(t, s)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("view after failed refresh:\n got %v\nwant %v", got, want)
	}
	if vv.Stats().FullRecomputes <= baseRecomputes {
		t.Fatal("recovery did not fall back to a full recompute")
	}

	// A panicking refresh is contained the same way.
	for i := 0; i < 10; i++ {
		row := R(int64(200+i), "anz", int64(i))
		topic.Produce(row[0], row)
	}
	faultpoint.Arm(faultpoint.ViewRefresh, faultpoint.Schedule{Panic: "refresh-boom", Limit: 1})
	_, err = s.IngestTopic(topic, "applier", "sales", 16)
	var tp *rdd.TaskPanicError
	if !errors.As(err, &tp) {
		t.Fatalf("ingest err = %v (%T), want contained panic", err, err)
	}
	faultpoint.Reset()
	if _, err := s.IngestTopic(topic, "applier", "sales", 16); err != nil {
		t.Fatalf("ingest after contained panic: %v", err)
	}
	got = collectSorted(t, s, salesAggSQL)
	want = freshAggregate(t, s)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("view after contained panic:\n got %v\nwant %v", got, want)
	}
}

// TestIngestAppendFault: a fault at the append site stops ingestion before
// any row of the failing batch lands, so the applied count stays exact.
func TestIngestAppendFault(t *testing.T) {
	defer faultpoint.Reset()
	s, _ := newViewSession(t, 10, 0)
	topic := stream.NewTopic("sales-updates", 3)
	for i := 0; i < 40; i++ {
		row := R(int64(100+i), "emea", int64(i))
		topic.Produce(row[0], row)
	}
	boom := errors.New("append refused")
	faultpoint.Arm(faultpoint.IngestAppend, faultpoint.Schedule{Err: boom, Skip: 1, Limit: 1})
	applied, err := s.IngestTopic(topic, "applier", "sales", 16)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected append failure", err)
	}
	if applied != 16 {
		t.Fatalf("applied = %d, want exactly the one batch before the fault", applied)
	}
	faultpoint.Reset()
	// The failed batch was rewound, not lost: the re-drain delivers it
	// again along with everything behind it.
	rest, err := s.IngestTopic(topic, "applier", "sales", 16)
	if err != nil || applied+rest != 40 {
		t.Fatalf("re-drain = %d, %v (want the remaining 24)", rest, err)
	}
}

// TestSpillFaultInjection arms faults at the spill fabric's injection
// sites in turn — the run writer, the run reader, and the fan-out
// partition step — and asserts the resilience contract for out-of-core
// queries: an
// injected write or read failure fails only its query (with the cause
// intact through every wrapping layer), an injected panic is contained as
// a *rdd.TaskPanicError, a delay merely slows the query down, no run
// files survive any of it (the session-level CheckNoFiles asserts that),
// and the same session answers the same spilling query correctly once the
// fault clears.
func TestSpillFaultInjection(t *testing.T) {
	defer faultpoint.Reset()
	testutil.CheckGoroutines(t)
	testutil.CheckFDs(t)
	s := newSpillBudgetSession(t, 120_000, 192<<10)
	// The sort reaches the spill I/O sites; the high-cardinality GROUP BY
	// overflows its group table and reaches the fan-out partition site
	// (HAVING discards the — all-unique — groups so the query's charged
	// result buffers stay tiny while every group crosses the fabric).
	queries := map[faultpoint.Point]string{
		faultpoint.SpillWrite:     "SELECT id, val FROM big ORDER BY val, id",
		faultpoint.SpillRead:      "SELECT id, val FROM big ORDER BY val, id",
		faultpoint.SpillPartition: "SELECT id, COUNT(*) FROM big GROUP BY id HAVING COUNT(*) > 1",
	}

	boom := errors.New("disk full")
	for _, p := range []faultpoint.Point{faultpoint.SpillWrite, faultpoint.SpillRead, faultpoint.SpillPartition} {
		t.Run(string(p), func(t *testing.T) {
			q := queries[p]
			faultpoint.Reset()
			want, err := collectSQL(s, q)
			if err != nil {
				t.Fatal(err)
			}
			faultpoint.Arm(p, faultpoint.Schedule{Err: boom, Limit: 1})
			if _, err := collectSQL(s, q); !errors.Is(err, boom) {
				t.Fatalf("err = %v, want wrapped injected %s failure", err, p)
			}

			faultpoint.Arm(p, faultpoint.Schedule{Panic: "spill-boom", Limit: 1})
			_, err = collectSQL(s, q)
			var tp *rdd.TaskPanicError
			if !errors.As(err, &tp) {
				t.Fatalf("panic at %s surfaced %v (%T), want contained *rdd.TaskPanicError", p, err, err)
			}

			faultpoint.Arm(p, faultpoint.Schedule{Delay: 2 * time.Millisecond, Limit: 4})
			got, err := collectSQL(s, q)
			if err != nil {
				t.Fatalf("delayed %s: %v", p, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("delay at %s changed results", p)
			}

			// Fault gone: the spilling query still answers exactly.
			faultpoint.Reset()
			got, err = collectSQL(s, q)
			if err != nil {
				t.Fatalf("session unserviceable after %s faults: %v", p, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatal("post-fault results diverge")
			}
			waitShufflesReleased(t, s)
		})
	}
}

// TestChaosFaultSchedules is the randomized chaos suite: randomized
// queries under randomized fault schedules (errors, panics, delays; random
// skip/limit) at randomized engine sites. The contract under every
// schedule: the process survives, every query terminates (no deadlock —
// enforced by a per-query deadline), failed queries surface real errors,
// successful queries return exactly the fault-free results, and neither
// shuffle outputs, run files nor goroutines leak. Once faults clear, the
// engine answers everything correctly. The session runs out-of-core (tight
// budget + SpillDir) so the spill fabric's I/O sites are in the rotation
// alongside the task and shuffle sites.
func TestChaosFaultSchedules(t *testing.T) {
	defer faultpoint.Reset()
	testutil.CheckGoroutines(t)
	s := newSpillBudgetSession(t, 30_000, 256<<10)

	queries := []string{
		"SELECT val, COUNT(*) AS c FROM big GROUP BY val",
		"SELECT id, val FROM big ORDER BY val, id LIMIT 100",
		"SELECT COUNT(*) FROM big WHERE val < 50",
		"SELECT val, COUNT(*) AS c FROM big GROUP BY val ORDER BY c DESC, val LIMIT 7",
		"SELECT id, val FROM big ORDER BY val, id", // full sort: spills under the budget
		// High-cardinality GROUP BY: the group table overflows the budget
		// and fans out, putting the partition site in play.
		"SELECT id, COUNT(*) FROM big GROUP BY id HAVING COUNT(*) > 1",
	}
	want := make([][]Row, len(queries))
	for i, q := range queries {
		rows, err := collectSQL(s, q)
		if err != nil {
			t.Fatal(err)
		}
		sortRows(rows)
		want[i] = rows
	}

	points := []faultpoint.Point{
		faultpoint.TaskStart, faultpoint.ShuffleWrite,
		faultpoint.BatchSeal, faultpoint.ShuffleFetch,
		faultpoint.SpillWrite, faultpoint.SpillRead,
		faultpoint.SpillPartition,
	}
	boom := errors.New("chaos error")
	rng := rand.New(rand.NewSource(20260808))
	iters := 60
	if testing.Short() {
		iters = 12
	}
	for i := 0; i < iters; i++ {
		faultpoint.Reset()
		p := points[rng.Intn(len(points))]
		sched := faultpoint.Schedule{Skip: rng.Int63n(4), Limit: 1 + rng.Int63n(2)}
		switch rng.Intn(3) {
		case 0:
			sched.Err = boom
		case 1:
			sched.Panic = "chaos panic"
		case 2:
			sched.Delay = time.Duration(1+rng.Intn(3)) * time.Millisecond
		}
		faultpoint.Arm(p, sched)

		qi := rng.Intn(len(queries))
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		rows, err := s.Query(ctx, queries[qi])
		var got []Row
		if err == nil {
			got, err = drainRows(rows)
		}
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("iter %d (%s at %s): query deadlocked", i, queries[qi], p)
		}
		if err == nil {
			sortRows(got)
			if fmt.Sprint(got) != fmt.Sprint(want[qi]) {
				t.Fatalf("iter %d (%s at %s): fault-free-looking run returned wrong rows:\n got %v\nwant %v",
					i, queries[qi], p, got, want[qi])
			}
		} else if sched.Panic != nil && sched.Err == nil {
			var tp *rdd.TaskPanicError
			if !errors.As(err, &tp) {
				t.Fatalf("iter %d: panic schedule surfaced %v (%T), want contained TaskPanicError", i, err, err)
			}
		}
		waitShufflesReleased(t, s)
	}

	// Faults cleared: everything answers correctly on the same session.
	faultpoint.Reset()
	for i, q := range queries {
		rows, err := collectSQL(s, q)
		if err != nil {
			t.Fatalf("post-chaos %s: %v", q, err)
		}
		sortRows(rows)
		if fmt.Sprint(rows) != fmt.Sprint(want[i]) {
			t.Fatalf("post-chaos %s:\n got %v\nwant %v", q, rows, want[i])
		}
	}
	waitShufflesReleased(t, s)
}
