package indexeddf

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indexeddf/internal/catalog"
)

// An indexed table's statistics are a fold over its batch ranges, done
// when the planner reads them: each read folds the rows published since
// the previous one, so the statistics describe exactly one published
// version. These tests pin that contract under concurrent writers.

// statsTable creates an indexed table t(id BIGINT, grp STRING, x DOUBLE)
// and returns its frame and catalog entry.
func statsTable(t *testing.T, s *Session) (*DataFrame, *catalog.IndexedTable) {
	t.Helper()
	df, err := s.CreateIndexedTable("t", NewSchema(
		Field{Name: "id", Type: Int64}, Field{Name: "grp", Type: String}, Field{Name: "x", Type: Float64}), 0)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := s.LookupTable("t")
	return df, tbl.(*catalog.IndexedTable)
}

// statsRow is row i of the tests' data: a null grp on every seventh row
// and a null x on every fifth; x is never zero, so min and max never
// meet -0.0 beside +0.0 and compare field by field in any fold order.
func statsRow(i int64) Row {
	var grp, x any = fmt.Sprintf("g%03d", i%97), float64(i%1013) + 0.5
	if i%7 == 0 {
		grp = nil
	}
	if i%5 == 0 {
		x = nil
	}
	return R(i, grp, x)
}

// appendUntil runs n goroutines appending one-row batches with distinct
// ids until stop closes; the returned wait joins them and reports the
// first append error.
func appendUntil(t *testing.T, df *DataFrame, n int, stop <-chan struct{}) (wait func()) {
	var wg sync.WaitGroup
	var next atomic.Int64
	errs := make(chan error, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := df.AppendRowsSlice([]Row{statsRow(next.Add(1))}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	return func() {
		t.Helper()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// TestStatsAnalyzeRacingAppends: ANALYZE TABLE beside two appenders
// leaves statistics that count every published row exactly once. An
// append-time hook racing the rescan counted a row published before the
// scan's snapshot twice: once in the scan, once in its late hook. The
// appenders first grow the table to 20,000 rows, so each ANALYZE scans
// long enough for appends to pile up behind it.
func TestStatsAnalyzeRacingAppends(t *testing.T) {
	s := NewSession(Config{TablePartitions: 2})
	df, tbl := statsTable(t, s)
	stop := make(chan struct{})
	wait := appendUntil(t, df, 2, stop)
	for tbl.RowCount() < 20_000 {
		time.Sleep(time.Millisecond)
	}
	var err error
	for deadline := time.Now().Add(300 * time.Millisecond); err == nil && time.Now().Before(deadline); {
		_, err = s.SQL("ANALYZE TABLE t")
	}
	close(stop)
	wait()
	if err != nil {
		t.Fatal(err)
	}
	cs := tbl.ColumnStats()
	if cs == nil {
		t.Fatal("no statistics after ANALYZE TABLE")
	}
	if n := tbl.RowCount(); cs[0].Count != n {
		t.Fatalf("statistics count %d rows, RowCount() = %d", cs[0].Count, n)
	}
}

// TestStatsFoldMatchesAnalyze: statistics folded a slice at a time, by
// reads between interleaved appends, equal those ANALYZE TABLE folds in
// one pass from the start, field by field. HyperLogLog registers do not
// depend on the order values arrive in, so the distinct counts match
// exactly. A read with nothing appended since the last returns the
// same memoized statistics.
func TestStatsFoldMatchesAnalyze(t *testing.T) {
	s := NewSession(Config{TablePartitions: 4})
	df, tbl := statsTable(t, s)
	if cs := tbl.ColumnStats(); cs == nil || cs[0].Count != 0 {
		t.Fatalf("empty table: statistics %v, want Count 0", cs)
	}
	rng := rand.New(rand.NewSource(47))
	var id int64
	for round := 0; round < 40; round++ {
		batch := make([]Row, 1+rng.Intn(200))
		for i := range batch {
			id++
			batch[i] = statsRow(id)
		}
		if _, err := df.AppendRowsSlice(batch); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(3) == 0 {
			continue // leave this batch for a later read to fold
		}
		cs := tbl.ColumnStats()
		if cs == nil || cs[0].Count != id {
			t.Fatalf("round %d: statistics %v, want Count %d", round, cs, id)
		}
		if again := tbl.ColumnStats(); &again[0] != &cs[0] {
			t.Fatalf("round %d: a read with no append between rebuilt the statistics", round)
		}
	}
	folded := tbl.ColumnStats()
	if _, err := s.SQL("ANALYZE TABLE t"); err != nil {
		t.Fatal(err)
	}
	analyzed := tbl.ColumnStats()
	if len(folded) != 3 || len(analyzed) != 3 {
		t.Fatalf("statistics for %d and %d columns, want 3", len(folded), len(analyzed))
	}
	for c := range analyzed {
		if *folded[c] != *analyzed[c] {
			t.Errorf("column %d: folded %+v, ANALYZE %+v", c, *folded[c], *analyzed[c])
		}
	}
	if got := analyzed[1].Nulls; got != id/7 {
		t.Errorf("grp nulls = %d, want %d", got, id/7)
	}
}

// TestStatsConcurrentCompiles runs plan-cache misses — each of a shape
// no other query has, so the planner reads the table's statistics and
// folds what was appended since the last read — beside an appender and
// ANALYZE TABLE (meaningful under -race). Every query must succeed, and
// the final statistics count each row once.
func TestStatsConcurrentCompiles(t *testing.T) {
	s := NewSession(Config{TablePartitions: 2, Parallelism: 2})
	df, tbl := statsTable(t, s)
	if _, err := df.AppendRowsSlice([]Row{statsRow(0)}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	wait := appendUntil(t, df, 1, stop)
	const compilers, shapes = 2, 40
	var wg sync.WaitGroup
	errs := make(chan error, compilers+1)
	_, misses0 := s.PlanCacheStats()
	for g := 0; g < compilers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < shapes; i++ {
				// LIMIT is part of the plan key: every query is a miss.
				q := fmt.Sprintf("SELECT id, grp FROM t WHERE x > 100.5 AND grp <> 'g001' LIMIT %d", 1+g*shapes+i)
				if _, err := s.MustSQL(q).Collect(); err != nil {
					errs <- fmt.Errorf("%s: %w", q, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := s.SQL("ANALYZE TABLE t"); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, misses := s.PlanCacheStats(); misses-misses0 < compilers*shapes {
		t.Errorf("%d distinct shapes compiled %d plans", compilers*shapes, misses-misses0)
	}
	if cs := tbl.ColumnStats(); cs == nil || cs[0].Count != tbl.RowCount() {
		t.Fatalf("final statistics %v, RowCount() = %d", cs, tbl.RowCount())
	}
}
