package indexeddf

import (
	"fmt"
	"strings"
	"testing"
)

func TestSQLSelectWhere(t *testing.T) {
	s, _, _ := newTestSession(t)
	rows, err := s.MustSQL("SELECT id, name FROM person WHERE city = 'ams' AND age > 30").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if len(r) != 2 {
			t.Fatalf("arity %d", len(r))
		}
	}
}

func TestSQLSelectStar(t *testing.T) {
	s, _, _ := newTestSession(t)
	rows, err := s.MustSQL("SELECT * FROM person LIMIT 7").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 || len(rows[0]) != 4 {
		t.Fatalf("rows=%d arity=%d", len(rows), len(rows[0]))
	}
}

func TestSQLJoin(t *testing.T) {
	s, _, _ := newTestSession(t)
	q := `SELECT p.name, k.person2Id
	      FROM knows k JOIN person p ON k.person1Id = p.id
	      WHERE p.city = 'ams'`
	rows, err := s.MustSQL(q).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 68 { // 34 ams people x 2 edges
		t.Fatalf("join rows = %d, want 68", len(rows))
	}
}

func TestSQLGroupByHavingOrder(t *testing.T) {
	s, _, _ := newTestSession(t)
	q := `SELECT city, COUNT(*) AS cnt, AVG(age) AS avgAge
	      FROM person GROUP BY city HAVING COUNT(*) > 30
	      ORDER BY cnt DESC, city`
	rows, err := s.MustSQL(q).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	if rows[0][1].Int64Val() < rows[1][1].Int64Val() {
		t.Fatalf("not sorted desc: %v", rows)
	}
}

func TestSQLAggregatesGlobal(t *testing.T) {
	s, _, _ := newTestSession(t)
	rows, err := s.MustSQL("SELECT COUNT(*), MIN(age), MAX(age), SUM(age) FROM person").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int64Val() != 100 {
		t.Fatalf("agg = %v", rows)
	}
}

func TestSQLOrderLimitOffsetless(t *testing.T) {
	s, _, _ := newTestSession(t)
	rows, err := s.MustSQL("SELECT id FROM person ORDER BY id DESC LIMIT 3").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][0].Int64Val() != 99 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestSQLBetweenInLike(t *testing.T) {
	s, _, _ := newTestSession(t)
	n, err := s.MustSQL("SELECT id FROM person WHERE id BETWEEN 10 AND 19").Count()
	if err != nil || n != 10 {
		t.Fatalf("between = %d, %v", n, err)
	}
	n2, err := s.MustSQL("SELECT id FROM person WHERE id IN (1, 2, 3)").Count()
	if err != nil || n2 != 3 {
		t.Fatalf("in = %d, %v", n2, err)
	}
	n3, err := s.MustSQL("SELECT id FROM person WHERE name LIKE 'p0_'").Count()
	if err != nil || n3 != 10 {
		t.Fatalf("like = %d, %v", n3, err)
	}
	n4, err := s.MustSQL("SELECT id FROM person WHERE name LIKE 'p%'").Count()
	if err != nil || n4 != 100 {
		t.Fatalf("like%% = %d, %v", n4, err)
	}
}

func TestSQLUnionAllAndDistinct(t *testing.T) {
	s, _, _ := newTestSession(t)
	n, err := s.MustSQL("SELECT id FROM person UNION ALL SELECT id FROM person").Count()
	if err != nil || n != 200 {
		t.Fatalf("union all = %d, %v", n, err)
	}
	n2, err := s.MustSQL("SELECT DISTINCT city FROM person").Count()
	if err != nil || n2 != 3 {
		t.Fatalf("distinct = %d, %v", n2, err)
	}
}

func TestSQLExpressionsAndFunctions(t *testing.T) {
	s, _, _ := newTestSession(t)
	rows, err := s.MustSQL("SELECT UPPER(name) AS un, age + 1 AS a1, CAST(id AS STRING) FROM person WHERE id = 3").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].StringVal() != "P03" || rows[0][1].Int64Val() != 24 ||
		rows[0][2].StringVal() != "3" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestSQLIndexAwareExecution(t *testing.T) {
	s, _, knows := newTestSession(t)
	if _, err := knows.CreateIndex(0); err != nil {
		t.Fatal(err)
	}
	// Register an indexed copy under a stable name.
	idx2, err := knows.CreateIndexOn("person1Id")
	if err != nil {
		t.Fatal(err)
	}
	_ = idx2
	// Find the generated name.
	var idxName string
	for _, n := range s.Tables() {
		if strings.HasPrefix(n, "knows_idx") {
			idxName = n
			break
		}
	}
	if idxName == "" {
		t.Fatal("indexed table not registered")
	}
	df := s.MustSQL("SELECT * FROM " + idxName + " WHERE person1Id = 42")
	explain, err := df.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "IndexLookup") {
		t.Fatalf("SQL equality on indexed column did not use IndexLookup:\n%s", explain)
	}
	n, err := df.Count()
	if err != nil || n != 2 {
		t.Fatalf("lookup rows = %d, %v", n, err)
	}
	// Indexed join through SQL.
	jdf := s.MustSQL("SELECT p.name FROM " + idxName + " k JOIN person p ON k.person1Id = p.id")
	jexplain, err := jdf.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jexplain, "IndexedJoin") {
		t.Fatalf("SQL equi-join on indexed column did not use IndexedJoin:\n%s", jexplain)
	}
	jn, err := jdf.Count()
	if err != nil || jn != 200 {
		t.Fatalf("indexed join rows = %d, %v", jn, err)
	}
}

func TestSQLSelfJoinAliases(t *testing.T) {
	s, _, _ := newTestSession(t)
	q := `SELECT k1.person1Id, k2.person2Id
	      FROM knows k1 JOIN knows k2 ON k1.person2Id = k2.person1Id
	      WHERE k1.person1Id = 0`
	n, err := s.MustSQL(q).Count()
	if err != nil || n != 4 {
		t.Fatalf("self join = %d, %v", n, err)
	}
}

func TestSQLCrossJoin(t *testing.T) {
	s, _, _ := newTestSession(t)
	n, err := s.MustSQL("SELECT p1.id FROM person p1 CROSS JOIN person p2 WHERE p1.id < 2 AND p2.id < 3").Count()
	if err != nil || n != 6 {
		t.Fatalf("cross join = %d, %v", n, err)
	}
}

func TestSQLLeftJoin(t *testing.T) {
	s, _, _ := newTestSession(t)
	// Every person has out-edges here, so left join row count matches inner.
	q := `SELECT p.id, k.person2Id FROM person p LEFT JOIN knows k ON p.id = k.person1Id`
	n, err := s.MustSQL(q).Count()
	if err != nil || n != 200 {
		t.Fatalf("left join = %d, %v", n, err)
	}
}

func TestSQLErrors(t *testing.T) {
	s, _, _ := newTestSession(t)
	cases := []string{
		"SELECT",                                            // truncated
		"SELECT * FROM missing_table",                       // unknown table
		"SELECT * FROM person WHERE",                        // truncated expr
		"SELECT * FROM person GROUP BY city",                // * with GROUP BY
		"SELECT id FROM person UNION SELECT id FROM person", // bare UNION
		"SELECT id FROM person ORDER",                       // truncated
		"SELECT no_such_col FROM person",                    // unknown column (analysis)
	}
	for _, q := range cases {
		df, err := s.SQL(q)
		if err == nil {
			_, err = df.Collect()
		}
		if err == nil {
			t.Errorf("query %q should fail", q)
		}
	}
}

func TestSQLComments(t *testing.T) {
	s, _, _ := newTestSession(t)
	n, err := s.MustSQL("SELECT id FROM person -- trailing comment\nWHERE id < 5").Count()
	if err != nil || n != 5 {
		t.Fatalf("comment query = %d, %v", n, err)
	}
}

// TestSQLExplainPlaceholders: plain EXPLAIN renders a parameterized
// statement's shared plan with its `?N` placeholders; EXPLAIN ANALYZE has
// no arguments to run it with and fails on the unbound parameter.
func TestSQLExplainPlaceholders(t *testing.T) {
	s, _, _ := newTestSession(t)
	df, err := s.SQL("EXPLAIN SELECT id FROM person WHERE age < ?")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if plan := fmt.Sprint(rows); !strings.Contains(plan, "(person.age < ?1)") {
		t.Fatalf("EXPLAIN does not render the placeholder:\n%s", plan)
	}
	_, err = s.SQL("EXPLAIN ANALYZE SELECT id FROM person WHERE age < ?")
	if err == nil || !strings.Contains(err.Error(), "unbound parameter ?1") {
		t.Fatalf("EXPLAIN ANALYZE with a placeholder: err = %v", err)
	}
}
