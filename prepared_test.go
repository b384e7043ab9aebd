package indexeddf

import (
	"context"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"indexeddf/internal/sqltypes"
)

// newTwinSession builds the twin test's catalog: the 10k-row vanilla `t`
// (id, val = id%101), a 2k-row indexed `ix` keyed on id, and an 8-row
// vanilla `sm` for the nested-loop join.
func newTwinSession(t *testing.T, cfg Config) *Session {
	t.Helper()
	s := newObsSession(t, cfg, 0, 10_000)
	ix, err := s.CreateIndexedTable("ix", bigSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, 2_000)
	for i := range rows {
		rows[i] = R(int64(i*3), int64(i%37))
	}
	if _, err := ix.AppendRowsSlice(rows); err != nil {
		t.Fatal(err)
	}
	small := make([]Row, 8)
	for i := range small {
		small[i] = R(int64(i), int64(i*10))
	}
	if _, err := s.CreateTable("sm", bigSchema(), small); err != nil {
		t.Fatal(err)
	}
	return s
}

var (
	actualsRE = regexp.MustCompile(`\s+\(actual [^)]*\)`)
	footerRE  = regexp.MustCompile(`(?m)^q\d+: .*\n?`)
	paramRE   = regexp.MustCompile(`\?(\d+)`)
)

// twinTree normalizes a Rows.AnalyzeString rendering for comparison: the
// runtime annotations and query footer go, each ?N becomes lits[N-1], and
// a filter's conjuncts are sorted — only a literal gives the selectivity
// model a value, so the two plans may order them differently.
func twinTree(plan string, lits []string) string {
	plan = footerRE.ReplaceAllString(actualsRE.ReplaceAllString(plan, ""), "")
	plan = paramRE.ReplaceAllStringFunc(plan, func(m string) string {
		n, _ := strconv.Atoi(m[1:])
		return lits[n-1]
	})
	lines := strings.Split(plan, "\n")
	for i, line := range lines {
		head, cond, ok := strings.Cut(line, "Filter ")
		if !ok {
			continue
		}
		conjs := strings.Split(strings.NewReplacer("(", "", ")", "").Replace(cond), " AND ")
		sort.Strings(conjs)
		lines[i] = head + "Filter " + strings.Join(conjs, " AND ")
	}
	return strings.Join(lines, "\n")
}

// TestPreparedTwinsMatchAdHoc runs each query shape that can hold a `?`
// twice — prepared with an argument and ad hoc with the argument spelled
// as a literal — and requires identical answers and identical operator
// trees. The typed placeholder is what lets the prepared twin vectorize.
func TestPreparedTwinsMatchAdHoc(t *testing.T) {
	cases := []struct {
		name string
		sql  string // one %s per placeholder
		args []any
		lits []string // each argument spelled as SQL
		want string   // operator line the prepared plan must carry
	}{
		{"filter", "SELECT id, val FROM t WHERE val < %s", []any{50}, []string{"50"}, "VecFilter (t.val < ?1)"},
		{"filter NULL", "SELECT id, val FROM t WHERE val < %s", []any{nil}, []string{"NULL"}, "VecFilter (t.val < ?1)"},
		{"filter float in INT slot", "SELECT id, val FROM t WHERE val < %s", []any{2.5}, []string{"2.5"}, "VecFilter (t.val < ?1)"},
		{"filter conjuncts", "SELECT id FROM t WHERE val < %s AND id > 100 AND val > 3", []any{50}, []string{"50"}, "VecFilter"},
		{"below exchange", "SELECT val, COUNT(*) AS c FROM t WHERE id >= %s GROUP BY val", []any{1234}, []string{"1234"}, "VecFilter (t.id >= ?1)"},
		{"top-n filter", "SELECT id, val FROM t WHERE val < %s ORDER BY val, id LIMIT 10", []any{50}, []string{"50"}, "VecFilter (t.val < ?1)"},
		{"filter float in arithmetic", "SELECT id, val FROM t WHERE val * %s > 10", []any{1.5}, []string{"1.5"}, "VecFilter ((t.val * ?1) > 10)"},
		{"projection", "SELECT id, val + %s FROM t", []any{7}, []string{"7"}, "VecProject [t.id, (t.val + ?1)]"},
		{"aggregate argument", "SELECT val, SUM(id * %s) AS s FROM t GROUP BY val", []any{3}, []string{"3"}, "SUM((t.id * ?1))"},
		{"sort key", "SELECT id, val FROM t ORDER BY val * %s, id", []any{3}, []string{"3"}, "VecSort [(t.val * ?1) ASC"},
		{"sort key float", "SELECT id, val FROM t ORDER BY val * %s, id", []any{1.5}, []string{"1.5"}, "VecSort [(t.val * ?1) ASC"},
		{"predicate in projection", "SELECT id, val * %s > 10 FROM t", []any{1.5}, []string{"1.5"}, "((t.val * ?1) > 10)"},
		{"top-n key", "SELECT id, val FROM t ORDER BY val - %s, id LIMIT 5", []any{3}, []string{"3"}, "VecTopN 5 [(t.val - ?1) ASC"},
		{"index lookup", "SELECT id, val FROM ix WHERE id = %s AND val > %s", []any{300, 3}, []string{"300", "3"}, "IndexLookup ix key=?1 residual=(ix.val > ?2)"},
		{"indexed join residual", "SELECT t.id, ix.val FROM t JOIN ix ON t.id = ix.id AND t.val + ix.val > %s", []any{60}, []string{"60"}, "IndexedJoin"},
		{"outer indexed join residual", "SELECT t.id, ix.val FROM t LEFT JOIN ix ON t.id = ix.id AND t.val + ix.val > %s", []any{60}, []string{"60"}, "IndexedJoin"},
		{"hash join residual", "SELECT a.id, b.val FROM t a JOIN t b ON a.id = b.val AND a.val < b.id - %s", []any{60}, []string{"60"}, "HashJoin"},
		{"outer hash join residual", "SELECT a.id, b.val FROM t a LEFT JOIN t b ON a.id = b.val AND a.val < b.id - %s", []any{60}, []string{"60"}, "HashJoin"},
		{"nested-loop residual", "SELECT t.id, sm.id FROM t JOIN sm ON t.id < sm.val + %s", []any{5}, []string{"5"}, "NestedLoopJoin Inner on (t.id < (sm.val + ?1))"},
		// A `?` has its argument's type, as a literal has its value's.
		{"projection float", "SELECT id, val + %s FROM t", []any{1.5}, []string{"1.5"}, "VecProject [t.id, (t.val + ?1)]"},
		{"sum of argument float", "SELECT SUM(%s) AS s FROM t", []any{1.5}, []string{"1.5"}, "SUM(?1)"},
		{"sum of argument int", "SELECT SUM(%s) AS s FROM t", []any{2}, []string{"2"}, "SUM(?1)"},
		{"bare argument", "SELECT id, %s FROM t", []any{7}, []string{"7"}, "VecProject [t.id, ?1]"},
	}
	run := func(t *testing.T, query func() (*Rows, error)) ([]Row, string) {
		t.Helper()
		rows, err := query()
		var out []Row
		if err == nil {
			out, err = drainRows(rows)
		}
		if err != nil {
			t.Fatal(err)
		}
		return out, rows.AnalyzeString()
	}
	// The default config broadcasts the small join sides; a threshold of
	// one row forces every join through its shuffle strategy.
	for _, mode := range []struct {
		name string
		cfg  Config
	}{{"broadcast", Config{}}, {"shuffle", Config{BroadcastThreshold: 1}}} {
		s := newTwinSession(t, mode.cfg)
		for _, c := range cases {
			t.Run(mode.name+"/"+c.name, func(t *testing.T) {
				marks := make([]any, len(c.lits))
				lits := make([]any, len(c.lits))
				for i, l := range c.lits {
					marks[i], lits[i] = "?", l
				}
				want, adHoc := run(t, func() (*Rows, error) {
					return s.Query(context.Background(), fmt.Sprintf(c.sql, lits...))
				})
				st, err := s.Prepare(fmt.Sprintf(c.sql, marks...))
				if err != nil {
					t.Fatal(err)
				}
				got, prepared := run(t, func() (*Rows, error) {
					return st.Query(context.Background(), c.args...)
				})
				wantSameRows(t, got, want, strings.Contains(c.sql, "ORDER BY"))
				if !strings.Contains(prepared, c.want) {
					t.Errorf("prepared plan lacks %q:\n%s", c.want, prepared)
				}
				if a, p := twinTree(adHoc, c.lits), twinTree(prepared, c.lits); a != p {
					t.Errorf("operator trees differ\nad hoc:\n%s\nprepared:\n%s", a, p)
				}
			})
		}
	}
}

// TestPreparedPlaceholderTypeRules pins the rule that types a `?`: its
// argument's type decides, with no hint from the expression around it. A
// statement run with two argument-type tuples compiles two plan-cache
// entries, each typed for its arguments, and each answers as the ad-hoc
// query spelling its arguments as literals.
func TestPreparedPlaceholderTypeRules(t *testing.T) {
	s := newObsSession(t, Config{}, 0, 1_000)
	ctx := context.Background()
	for _, q := range []string{
		"SELECT id, val + %s FROM t",
		"SELECT val, SUM(id * %s) AS s FROM t GROUP BY val",
		"SELECT SUM(%s) AS s, MAX(%s) AS m FROM t",
	} {
		marks := strings.Count(q, "%s")
		st, err := s.Prepare(fmt.Sprintf(q, repeat("?", marks)...))
		if err != nil {
			t.Fatal(err)
		}
		misses := 0
		for _, c := range []struct {
			arg  any
			lit  string
			want sqltypes.Type // the type of the result's last column
		}{{2, "2", Int64}, {1.5, "1.5", Float64}, {3, "3", Int64}} {
			_, m0 := s.PlanCacheStats()
			rows, err := st.Query(ctx, repeat(c.arg, marks)...)
			if err != nil {
				t.Fatalf("%s with %v: %v", q, c.arg, err)
			}
			_, m1 := s.PlanCacheStats()
			misses += int(m1 - m0)
			schema := rows.Schema()
			got, err := drainRows(rows)
			if err != nil {
				t.Fatal(err)
			}
			if typ := schema.Field(schema.Len() - 1).Type; typ != c.want {
				t.Errorf("%s with %v: last column is %s, want %s", q, c.arg, typ, c.want)
			}
			want, err := s.MustSQL(fmt.Sprintf(q, repeat(c.lit, marks)...)).Collect()
			if err != nil {
				t.Fatal(err)
			}
			wantSameRows(t, got, want, false)
		}
		// BIGINT, then DOUBLE compile; the second BIGINT run hits.
		if misses != 2 {
			t.Errorf("%s: %d plan-cache misses over three runs, want 2 (one per type tuple)", q, misses)
		}
	}
}

// repeat returns n copies of x.
func repeat[T any](x T, n int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = x
	}
	return out
}

// TestPreparedStmtConcurrentExecutions runs one Stmt from 8 goroutines ×
// 50 executions, each with its own arguments, over a vectorized filter
// and aggregate; every result must equal its ad-hoc twin. Concurrent
// executions share the cached plan read-only — meaningful under -race.
func TestPreparedStmtConcurrentExecutions(t *testing.T) {
	s := newObsSession(t, Config{}, 0, 2_000)
	const q = "SELECT val, COUNT(*) AS c, SUM(id) AS s FROM t WHERE id >= %v AND val < %v GROUP BY val"
	st, err := s.Prepare(fmt.Sprintf(q, "?", "?"))
	if err != nil {
		t.Fatal(err)
	}
	explain, err := s.SQL("EXPLAIN " + st.SQLText())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := explain.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if p := fmt.Sprint(plan); !strings.Contains(p, "VecFilter") || !strings.Contains(p, "(t.val < ?2)") {
		t.Fatalf("prepared plan does not vectorize the filter:\n%v", plan)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				lo, hi := int64(g*50+i), int64((g*7+i)%101)
				got, err := st.Collect(context.Background(), lo, hi)
				if err != nil {
					errs <- err
					return
				}
				want, err := s.MustSQL(fmt.Sprintf(q, lo, hi)).Collect()
				if err != nil {
					errs <- err
					return
				}
				if fmt.Sprint(canonicalRows(got)) != fmt.Sprint(canonicalRows(want)) {
					errs <- fmt.Errorf("goroutine %d execution %d (%d, %d): prepared %v vs ad hoc %v", g, i, lo, hi, got, want)
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
}
