package indexeddf_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"indexeddf"
	"indexeddf/internal/opt"
)

// The batch sort pipeline (typed-lane key extraction, index sort, sorted
// runs, k-way merge — and the bounded top-n fusion) must be invisible
// except for speed: any ORDER BY returns exactly what the row engine's
// gather-and-stable-sort returns, in the same order, ties included. These
// trials sweep the layouts that stress the run/merge path: NULL keys
// (first ascending, last descending), heavy ties, multi-key asc/desc
// mixes, empty tables and partitions, and single partitions larger than a
// batch (multi-batch runs, no merge stage).

// runQueryOrdered collects a query's rows preserving delivery order (the
// property under test — canonical() would hide ordering bugs).
func runQueryOrdered(t *testing.T, sess *indexeddf.Session, q func(*indexeddf.Session) (*indexeddf.DataFrame, error)) []string {
	t.Helper()
	df, err := q(sess)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

func sortTrials() []shuffleTrial {
	return []shuffleTrial{
		{name: "empty-table", rows: 0, groups: 5, tableParts: 4, shufParts: 4},
		{name: "single-part-multi-batch", rows: 5_000, groups: 11, nullFrac: 5, tableParts: 1, shufParts: 4},
		{name: "empty-partitions", rows: 3, groups: 5, nullFrac: 2, tableParts: 8, shufParts: 4},
		{name: "nulls-and-ties", rows: 4_000, groups: 3, nullFrac: 2, tableParts: 4, shufParts: 4},
		{name: "many-partitions", rows: 20_000, groups: 500, nullFrac: 9, tableParts: 7, shufParts: 4},
	}
}

func sortQueries() map[string]func(*indexeddf.Session) (*indexeddf.DataFrame, error) {
	sql := func(q string) func(*indexeddf.Session) (*indexeddf.DataFrame, error) {
		return func(s *indexeddf.Session) (*indexeddf.DataFrame, error) { return s.SQL(q) }
	}
	return map[string]func(*indexeddf.Session) (*indexeddf.DataFrame, error){
		"single-key": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			df, err := s.Table("facts")
			if err != nil {
				return nil, err
			}
			return df.OrderBy("val"), nil
		},
		"single-key-desc": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			df, err := s.Table("facts")
			if err != nil {
				return nil, err
			}
			return df.OrderBy("-val"), nil
		},
		"multi-key-mixed": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			df, err := s.Table("facts")
			if err != nil {
				return nil, err
			}
			return df.OrderBy("tag", "-grp", "id"), nil
		},
		"string-desc-nulls": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			df, err := s.Table("facts")
			if err != nil {
				return nil, err
			}
			return df.OrderBy("-tag"), nil
		},
		"expr-key":      sql("SELECT id, val FROM facts ORDER BY (val * 2) DESC, id"),
		"sort-over-agg": sql("SELECT grp, SUM(val) AS s, COUNT(*) AS c FROM facts GROUP BY grp ORDER BY s DESC, grp"),
		"filtered-sort": sql("SELECT id, grp, val FROM facts WHERE val > 0 ORDER BY grp, val"),
		"row-fallback":  sql("SELECT id, tag FROM facts ORDER BY UPPER(tag), id"),
		"sort-after-join": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			return s.SQL("SELECT label, val FROM facts JOIN dims ON grp = gid ORDER BY val, label")
		},
	}
}

func TestVecSortMatchesRowSort(t *testing.T) {
	queries := sortQueries()
	for ti, tr := range sortTrials() {
		for qname, q := range queries {
			t.Run(fmt.Sprintf("%s/%s", tr.name, qname), func(t *testing.T) {
				seed := int64(4000 + ti)
				rowSess := shuffleTrialSession(t, tr, seed, opt.RowEngine)
				vecSess := shuffleTrialSession(t, tr, seed, 0)
				want := runQueryOrdered(t, rowSess, q)
				got := runQueryOrdered(t, vecSess, q)
				if len(want) != len(got) {
					t.Fatalf("row sort returned %d rows, batch sort %d", len(want), len(got))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("row %d differs:\n row sort:   %s\n batch sort: %s", i, want[i], got[i])
					}
				}
			})
		}
	}
}

func TestTopNMatchesRowSortLimit(t *testing.T) {
	limits := []int64{0, 1, 7, 100, 100_000}
	for ti, tr := range sortTrials() {
		for _, n := range limits {
			t.Run(fmt.Sprintf("%s/limit-%d", tr.name, n), func(t *testing.T) {
				seed := int64(8000 + ti)
				rowSess := shuffleTrialSession(t, tr, seed, opt.RowEngine)
				vecSess := shuffleTrialSession(t, tr, seed, 0)
				q := func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
					return s.SQL(fmt.Sprintf("SELECT id, grp, val, tag FROM facts ORDER BY val, tag DESC LIMIT %d", n))
				}
				want := runQueryOrdered(t, rowSess, q)
				got := runQueryOrdered(t, vecSess, q)
				if len(want) != len(got) {
					t.Fatalf("row engine returned %d rows, top-n %d", len(want), len(got))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("row %d differs:\n row engine: %s\n top-n:      %s", i, want[i], got[i])
					}
				}
			})
		}
	}
}

// TestVecSortNullsOrdering pins the NULL placement contract on both
// engines: NULLs first ascending, last descending (DESC flips the whole
// comparison, like sqltypes.Compare under the row sort).
func TestVecSortNullsOrdering(t *testing.T) {
	for _, ablate := range []opt.Ablation{opt.RowEngine, 0} {
		sess := indexeddf.NewAblatedSession(indexeddf.Config{TablePartitions: 2}, ablate)
		schema := indexeddf.NewSchema(
			indexeddf.Field{Name: "id", Type: indexeddf.Int64},
			indexeddf.Field{Name: "v", Type: indexeddf.Int64, Nullable: true},
		)
		rows := []indexeddf.Row{
			indexeddf.R(int64(0), int64(2)),
			{indexeddf.V(int64(1)), indexeddf.V(nil)},
			indexeddf.R(int64(2), int64(1)),
			{indexeddf.V(int64(3)), indexeddf.V(nil)},
		}
		df, err := sess.CreateTable("t", schema, rows)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := df.Cache(); err != nil {
			t.Fatal(err)
		}
		ids := func(q string) []int64 {
			out, err := sess.MustSQL(q).Collect()
			if err != nil {
				t.Fatal(err)
			}
			var got []int64
			for _, r := range out {
				got = append(got, r[0].Int64Val())
			}
			return got
		}
		asc := ids("SELECT id, v FROM t ORDER BY v, id")
		if fmt.Sprint(asc) != "[1 3 2 0]" {
			t.Fatalf("ablate=%d: ASC null ordering got %v, want [1 3 2 0]", ablate, asc)
		}
		desc := ids("SELECT id, v FROM t ORDER BY v DESC, id")
		if fmt.Sprint(desc) != "[0 2 1 3]" {
			t.Fatalf("ablate=%d: DESC null ordering got %v, want [0 2 1 3]", ablate, desc)
		}
		topn := ids("SELECT id, v FROM t ORDER BY v, id LIMIT 2")
		if fmt.Sprint(topn) != "[1 3]" {
			t.Fatalf("ablate=%d: top-n null ordering got %v, want [1 3]", ablate, topn)
		}
	}
}

// TestVecSortOverViewScan: ORDER BY over an aggregation answered from a
// materialized view sorts the view's delta-maintained state through the
// batch path (VecViewScan feeding VecSort/VecTopN).
func TestVecSortOverViewScan(t *testing.T) {
	// Views require an indexed base table; buildSession keys facts on grp.
	rowSess := buildSession(t, indexeddf.Config{}, opt.RowEngine, true)
	vecSess := buildSession(t, indexeddf.Config{}, 0, true)
	const viewDef = "CREATE MATERIALIZED VIEW by_grp AS SELECT grp, SUM(val) AS s, COUNT(*) AS c FROM facts GROUP BY grp"
	for _, s := range []*indexeddf.Session{rowSess, vecSess} {
		if _, err := s.SQL(viewDef); err != nil {
			t.Fatal(err)
		}
	}
	const q = "SELECT grp, SUM(val) AS s, COUNT(*) AS c FROM facts GROUP BY grp ORDER BY s DESC, grp LIMIT 5"
	// The aggregate must actually be answered from the view and sorted on
	// the batch path.
	df, err := vecSess.SQL(q)
	if err != nil {
		t.Fatal(err)
	}
	explain, err := df.Explain()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"VecTopN", "VecViewScan"} {
		if !strings.Contains(explain, want) {
			t.Fatalf("view-backed top-n plan missing %s:\n%s", want, explain)
		}
	}
	query := func(s *indexeddf.Session) (*indexeddf.DataFrame, error) { return s.SQL(q) }
	want := runQueryOrdered(t, rowSess, query)
	got := runQueryOrdered(t, vecSess, query)
	if fmt.Sprint(want) != fmt.Sprint(got) {
		t.Fatalf("view-backed sort differs:\n row: %v\n vec: %v", want, got)
	}
	// The full-sort flavor over the view state must match too.
	sorted := "SELECT grp, SUM(val) AS s, COUNT(*) AS c FROM facts GROUP BY grp ORDER BY s DESC, grp"
	querySorted := func(s *indexeddf.Session) (*indexeddf.DataFrame, error) { return s.SQL(sorted) }
	want = runQueryOrdered(t, rowSess, querySorted)
	got = runQueryOrdered(t, vecSess, querySorted)
	if fmt.Sprint(want) != fmt.Sprint(got) {
		t.Fatalf("view-backed full sort differs:\n row: %v\n vec: %v", want, got)
	}
}

// TestVecSortConcurrentCursors: many goroutines stream sorted results from
// one session concurrently (some abandoning mid-stream) without races or
// cross-cursor interference.
func TestVecSortConcurrentCursors(t *testing.T) {
	tr := shuffleTrial{name: "conc", rows: 8_000, groups: 200, nullFrac: 7, tableParts: 6, shufParts: 4}
	sess := shuffleTrialSession(t, tr, 77, 0)
	ref := runQueryOrdered(t, sess, func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
		df, err := s.Table("facts")
		if err != nil {
			return nil, err
		}
		return df.OrderBy("val", "id"), nil
	})
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			df, err := sess.Table("facts")
			if err != nil {
				errs <- err
				return
			}
			rows, err := df.OrderBy("val", "id").Query(context.Background())
			if err != nil {
				errs <- err
				return
			}
			defer rows.Close()
			// Odd workers abandon after a prefix; even workers drain.
			limit := len(ref)
			if w%2 == 1 {
				limit = 25
			}
			for i := 0; i < limit; i++ {
				if !rows.Next() {
					errs <- fmt.Errorf("worker %d: cursor ended at row %d: %v", w, i, rows.Err())
					return
				}
				if got := rows.Row().String(); got != ref[i] {
					errs <- fmt.Errorf("worker %d row %d: got %s, want %s", w, i, got, ref[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTopNConcurrentCursors: concurrent ORDER BY ... LIMIT cursors (the
// bounded merge path) under the race detector.
func TestTopNConcurrentCursors(t *testing.T) {
	tr := shuffleTrial{name: "conc-topn", rows: 8_000, groups: 200, nullFrac: 7, tableParts: 6, shufParts: 4}
	sess := shuffleTrialSession(t, tr, 78, 0)
	ref := runQueryOrdered(t, sess, func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
		return s.SQL("SELECT id, val FROM facts ORDER BY val DESC, id LIMIT 50")
	})
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rows, err := sess.Query(context.Background(), "SELECT id, val FROM facts ORDER BY val DESC, id LIMIT 50")
			if err != nil {
				errs <- err
				return
			}
			defer rows.Close()
			i := 0
			for rows.Next() {
				if got := rows.Row().String(); got != ref[i] {
					errs <- fmt.Errorf("worker %d row %d: got %s, want %s", w, i, got, ref[i])
					return
				}
				i++
			}
			if err := rows.Err(); err != nil {
				errs <- fmt.Errorf("worker %d: %v", w, err)
				return
			}
			if i != len(ref) {
				errs <- fmt.Errorf("worker %d: streamed %d of %d rows", w, i, len(ref))
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
