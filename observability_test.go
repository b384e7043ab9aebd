package indexeddf

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"indexeddf/internal/obs"
	"indexeddf/internal/opt"
	"indexeddf/internal/testutil"
)

// newObsSession builds a session over an n-row two-column table "t"
// (id ascending, val = id % 101) for observability assertions.
func newObsSession(t *testing.T, cfg Config, ablate opt.Ablation, n int) *Session {
	t.Helper()
	s := newSession(cfg, ablate)
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = R(int64(i), int64(i%101))
	}
	if _, err := s.CreateTable("t", bigSchema(), rows); err != nil {
		t.Fatal(err)
	}
	return s
}

// rootActualRows parses the root operator's "actual rows=N" annotation out
// of an EXPLAIN ANALYZE rendering.
func rootActualRows(t *testing.T, plan string) int64 {
	t.Helper()
	root, _, _ := strings.Cut(plan, "\n")
	_, after, ok := strings.Cut(root, "actual rows=")
	if !ok {
		t.Fatalf("root plan line carries no actuals: %q", root)
	}
	num := after
	if i := strings.IndexAny(num, " )"); i >= 0 {
		num = num[:i]
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil {
		t.Fatalf("unparseable actual rows in %q: %v", root, err)
	}
	return n
}

// TestExplainAnalyzeMatchesCollect pins EXPLAIN ANALYZE's root-operator
// actuals against the same statement's Collect result on both engines, for
// a shuffle GROUP BY and a fused Top-N plan.
func TestExplainAnalyzeMatchesCollect(t *testing.T) {
	queries := []string{
		"SELECT val, COUNT(*) AS c FROM t GROUP BY val",
		"SELECT id, val FROM t ORDER BY val, id LIMIT 7",
	}
	for _, engine := range []struct {
		name   string
		ablate opt.Ablation
	}{
		{"vectorized", 0},
		{"row", opt.RowEngine},
	} {
		t.Run(engine.name, func(t *testing.T) {
			s := newObsSession(t, Config{TablePartitions: 8}, engine.ablate, 50_000)
			for _, q := range queries {
				ref, err := s.MustSQL(q).Collect()
				if err != nil {
					t.Fatal(err)
				}
				df, err := s.SQL("EXPLAIN ANALYZE " + q)
				if err != nil {
					t.Fatal(err)
				}
				lines, err := df.Collect()
				if err != nil {
					t.Fatal(err)
				}
				var sb strings.Builder
				for _, l := range lines {
					sb.WriteString(l[0].String())
					sb.WriteByte('\n')
				}
				plan := sb.String()
				if got := rootActualRows(t, plan); got != int64(len(ref)) {
					t.Fatalf("%s: EXPLAIN ANALYZE root rows=%d, Collect returned %d\n%s",
						q, got, len(ref), plan)
				}
				if !strings.Contains(plan, "wall=") {
					t.Fatalf("%s: plan carries no wall times\n%s", q, plan)
				}
			}
		})
	}
}

// TestExplainAnalyzeDataFrame exercises the DataFrame entry point directly
// and checks the query-level summary footer rides along.
func TestExplainAnalyzeDataFrame(t *testing.T) {
	s := newObsSession(t, Config{TablePartitions: 4}, 0, 10_000)
	out, err := s.MustSQL("SELECT val, SUM(id) FROM t GROUP BY val").ExplainAnalyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rootActualRows(t, out), int64(101); got != want {
		t.Fatalf("root rows=%d, want %d\n%s", got, want, out)
	}
	if !strings.Contains(out, "tasks=") {
		t.Fatalf("summary footer missing from:\n%s", out)
	}
}

// TestObservabilityConcurrentQueryIsolation runs overlapping queries (the
// race detector supervises in CI) and asserts each cursor's stats describe
// only its own execution while the registry's totals reconcile across all
// of them.
func TestObservabilityConcurrentQueryIsolation(t *testing.T) {
	s := newObsSession(t, Config{TablePartitions: 8, Parallelism: 4}, 0, 50_000)
	stmt, err := s.Prepare("SELECT id FROM t WHERE val < ?")
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 8, 4
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		delivered int64
		ids       = map[string]bool{}
	)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				bound := int64((w*perWorker+i)%100 + 1)
				rows, err := stmt.Query(context.Background(), bound)
				if err != nil {
					errs <- err
					return
				}
				var n int64
				for rows.Next() {
					n++
				}
				if err := rows.Err(); err != nil {
					errs <- err
					return
				}
				rows.Close()
				qs := rows.Stats()
				if qs == nil {
					errs <- fmt.Errorf("nil stats on an observability-enabled session")
					return
				}
				if qs.RowsReturned() != n {
					errs <- fmt.Errorf("query %s: stats say %d rows, cursor delivered %d",
						qs.ID, qs.RowsReturned(), n)
					return
				}
				if qs.TasksStarted() == 0 || qs.TasksCompleted() > qs.TasksStarted() {
					errs <- fmt.Errorf("query %s: implausible task counts %d/%d",
						qs.ID, qs.TasksCompleted(), qs.TasksStarted())
					return
				}
				mu.Lock()
				delivered += n
				if ids[qs.ID] {
					mu.Unlock()
					errs <- fmt.Errorf("query id %s assigned twice", qs.ID)
					return
				}
				ids[qs.ID] = true
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	val := func(name string) float64 {
		v, ok := s.Metrics().Value(name)
		if !ok {
			t.Fatalf("metric %s not registered", name)
		}
		return v
	}
	if active := val("indexeddf_queries_active"); active != 0 {
		t.Fatalf("queries_active = %v after all cursors closed", active)
	}
	if started, done := val("indexeddf_queries_started_total"), val("indexeddf_queries_finished_total"); started != done {
		t.Fatalf("started %v != finished %v", started, done)
	}
	// The registry's row total covers the whole session (setup queries
	// included) — it can only be at least what these workers counted.
	if total := val("indexeddf_rows_returned_total"); total < float64(delivered) {
		t.Fatalf("rows_returned_total %v < workers' own count %d", total, delivered)
	}
	if hits := val("indexeddf_plan_cache_hits_total"); hits < float64(workers*perWorker-1) {
		t.Fatalf("plan_cache_hits_total = %v, want >= %d", hits, workers*perWorker-1)
	}
}

// TestTraceRingBounded: the trace ring retains at most
// obs.DefaultTraceCapacity events, reports drops, still answers per-query
// lookups for recent queries, and owns no goroutines.
func TestTraceRingBounded(t *testing.T) {
	testutil.CheckGoroutines(t)
	const capacity = obs.DefaultTraceCapacity
	s := newObsSession(t, Config{TablePartitions: 4}, 0, 1_000)
	var lastID string
	// Every query records at least a plan and a close event, so this
	// many queries wrap the ring.
	for i := 0; i < capacity; i++ {
		rows, err := s.Query(context.Background(), "SELECT COUNT(*) FROM t")
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
		}
		rows.Close()
		lastID = rows.Stats().ID
	}
	evs := s.TraceEvents()
	if len(evs) > capacity {
		t.Fatalf("ring retained %d events, capacity %d", len(evs), capacity)
	}
	if v, _ := s.Metrics().Value("indexeddf_trace_events_dropped_total"); v == 0 {
		t.Fatalf("%d queries never wrapped a %d-event ring", capacity, capacity)
	}
	mine := s.TraceEventsFor(lastID)
	if len(mine) == 0 {
		t.Fatalf("no retained events for the most recent query %s", lastID)
	}
	var sawClose bool
	for _, ev := range mine {
		if ev.Name == "close" {
			sawClose = true
		}
	}
	if !sawClose {
		t.Fatalf("query %s retained %d events but no close", lastID, len(mine))
	}
}

// TestSlowQueryLogFires: a threshold every query exceeds routes each
// finished query through the hook with its annotated plan.
func TestSlowQueryLogFires(t *testing.T) {
	var (
		mu   sync.Mutex
		got  []SlowQuery
		q    = "SELECT val, COUNT(*) FROM t GROUP BY val"
		sess *Session
	)
	sess = NewSession(Config{
		TablePartitions:    4,
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog: func(sq SlowQuery) {
			mu.Lock()
			got = append(got, sq)
			mu.Unlock()
		},
	})
	rows := make([]Row, 10_000)
	for i := range rows {
		rows[i] = R(int64(i), int64(i%101))
	}
	if _, err := sess.CreateTable("t", bigSchema(), rows); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got = got[:0] // setup queries may have tripped the hook too
	mu.Unlock()

	cur, err := sess.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for cur.Next() {
		n++
	}
	cur.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("slow-query hook fired %d times, want 1", len(got))
	}
	sq := got[0]
	if sq.SQL != q || sq.Rows != n || sq.Duration <= 0 {
		t.Fatalf("hook payload %+v, want sql=%q rows=%d", sq, q, n)
	}
	if !strings.Contains(sq.Plan, "actual rows=") {
		t.Fatalf("slow-query plan carries no actuals:\n%s", sq.Plan)
	}
	if v, _ := sess.Metrics().Value("indexeddf_queries_slow_total"); v != 1 {
		t.Fatalf("queries_slow_total = %v, want 1", v)
	}
}

// TestMetricsExposition: the registry renders valid Prometheus text with
// the engine's metric families present.
func TestMetricsExposition(t *testing.T) {
	s := newObsSession(t, Config{TablePartitions: 4}, 0, 1_000)
	if _, err := s.MustSQL("SELECT COUNT(*) FROM t").Collect(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.Metrics().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP indexeddf_queries_started_total",
		"# TYPE indexeddf_queries_started_total counter",
		"# TYPE indexeddf_query_duration_seconds histogram",
		"indexeddf_query_duration_seconds_bucket{le=",
		"indexeddf_query_duration_seconds_count",
		"indexeddf_tasks_completed_total",
		"indexeddf_plan_cache_entries",
		"indexeddf_memory_pool_used_bytes",
		"indexeddf_trace_events_dropped_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
