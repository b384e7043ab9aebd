package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"

	"indexeddf"
	"indexeddf/internal/sqltypes"
)

// spillSize returns table t's row count and the per-query memory budget.
// The budget is sized so that each of the three queries overflows it while
// the operation creates only ~55 run files: every run file is created and
// deleted within milliseconds, and on this sandbox's ext4 the cost of a
// create grows with the number of inodes deleted in the last five seconds,
// so a tighter budget (a tenth of the working set makes ~260 files per
// operation) measures the file system's mood more than the spill layer.
func spillSize(p params) (rows int, budget int64) {
	if p.scale == "tiny" {
		return 8_000, 256 << 10
	}
	return 40_000, 3072 << 10
}

func spillSchema() *sqltypes.Schema {
	return indexeddf.NewSchema(
		indexeddf.Field{Name: "k", Type: indexeddf.Int64},
		indexeddf.Field{Name: "v", Type: indexeddf.Int64},
		indexeddf.Field{Name: "pad", Type: indexeddf.String},
	)
}

// spillQueries is the operation: a full sort, a GROUP BY whose group table
// (one fat MIN(pad) state per distinct k) overflows, and a shuffle join
// whose build side overflows and goes grace. HAVING keeps about a tenth of
// the groups: the result buffer is the one thing here that cannot spill, so
// a large result would fail the query instead of exercising the spill path.
var spillQueries = []struct{ name, sql string }{
	{"q.sort", "SELECT k, v, pad FROM t ORDER BY v, k"},
	{"q.groupby", "SELECT k, COUNT(*) AS cnt, SUM(v) AS total, MIN(pad) AS p FROM t GROUP BY k HAVING COUNT(*) > 6"},
	{"q.join", "SELECT COUNT(*) AS c, SUM(t.k) AS sk FROM t JOIN b ON t.v = b.k"},
}

func setupSpill(p params) (*env, error) {
	n, budget := spillSize(p)
	rng := rand.New(rand.NewSource(p.seed))
	fat := func(tag int) string {
		return fmt.Sprintf("%s-%08d", strings.Repeat("x", 32+rng.Intn(33)), tag)
	}
	// t: n fat rows, v a seeded permutation (distinct, so the sort has a
	// total order), k drawn from n/4 groups. b: the half-size build table
	// whose keys hit t.v with five duplicates each.
	groups := n / 4
	t := make([]sqltypes.Row, n)
	for i, v := range rng.Perm(n) {
		k := rng.Intn(groups)
		t[i] = indexeddf.R(int64(k), int64(v), fat(k))
	}
	b := make([]sqltypes.Row, n/2)
	for i := range b {
		b[i] = indexeddf.R(int64(i%(n/10)), int64(i), fat(i))
	}
	spillDir, err := os.MkdirTemp(p.tmpDir, "spill")
	if err != nil {
		return nil, err
	}
	session := func(budgeted bool) (*indexeddf.Session, error) {
		cfg := engineConfig()
		cfg.BroadcastThreshold = 1 // the join must shuffle for its build to go grace
		if budgeted {
			cfg.QueryMemoryLimit = budget
			cfg.SpillDir = spillDir
		}
		sess := indexeddf.NewSession(cfg)
		if _, err := sess.CreateTable("t", spillSchema(), t); err != nil {
			return nil, err
		}
		if _, err := sess.CreateTable("b", spillSchema(), b); err != nil {
			return nil, err
		}
		return sess, nil
	}
	sess, err := session(true)
	if err != nil {
		return nil, err
	}
	want := []int{n, -1, 1}
	run := func(s *indexeddf.Session, tr *tracer, out *[]digest, want []int) error {
		for i, q := range spillQueries {
			rows, err := digestCursor(tr, q.name, func() (*indexeddf.Rows, error) { return s.Query(bg, q.sql) }, out)
			if err != nil {
				return fmt.Errorf("%s: %w", q.name, err)
			}
			if want != nil && want[i] >= 0 && rows != want[i] {
				return fmt.Errorf("%s: %d rows, want %d", q.name, rows, want[i])
			}
		}
		return nil
	}
	tTable, _ := sess.Table("t")
	appendRng := rand.New(rand.NewSource(p.seed + 2))
	e := &env{
		sess:    sess,
		next:    func() any { return nil },
		op:      func(tr *tracer, _ any, out *[]digest) error { return run(sess, tr, out, want) },
		ordered: map[string]bool{"q.sort": true},
		sample:  func() []any { return []any{nil} },
		probe: probeInputs{schema: spillSchema(), keyCol: 0, filterCol: 1, sortCol: 1, rows: t,
			sqlText: func(i int) string { return fmt.Sprintf("SELECT k, v, pad FROM t WHERE v >= %d ORDER BY v, k", -i) }},
		close: func() {
			sess.Close()
			os.RemoveAll(spillDir)
		},
	}
	// The reference is the same data in a session with no budget: nothing
	// spills there. It lives from its first use until dropRef.
	var unbudgeted *indexeddf.Session
	e.ref = func(_ any, out *[]digest) error {
		if unbudgeted == nil {
			if unbudgeted, err = session(false); err != nil {
				return err
			}
		}
		if err := run(unbudgeted, nil, out, nil); err != nil {
			return err
		}
		if out != nil {
			want[1] = (*out)[1].rows
		}
		return nil
	}
	e.dropRef = func() {
		if unbudgeted != nil {
			unbudgeted.Close()
			unbudgeted = nil
		}
	}
	// Every query of the operation must actually go out of core, or the
	// workload measures nothing of the spill layer.
	e.finalCheck = func(int) error {
		for _, q := range spillQueries {
			tr := newTracer()
			if _, err := cursor(tr, q.name, func() (*indexeddf.Rows, error) { return sess.Query(bg, q.sql) }, nil); err != nil {
				return err
			}
			if tr.spillRuns == 0 {
				return fmt.Errorf("%s did not spill under a budget of %d bytes", q.name, budget)
			}
		}
		return nil
	}
	e.batches = func(count int) []any {
		out := make([]any, count)
		for i := range out {
			rows := make([]sqltypes.Row, appendBatch)
			for j := range rows {
				k := appendRng.Intn(groups)
				rows[j] = indexeddf.R(int64(k), int64(n+i*appendBatch+j), strings.Repeat("y", 40))
			}
			out[i] = rows
		}
		return out
	}
	e.apply = func(b any) error {
		_, err := tTable.AppendRowsSlice(b.([]sqltypes.Row))
		return err
	}
	return e, nil
}
