package sqlparser

import (
	"fmt"
	"strings"
	"testing"

	"indexeddf/internal/catalog"
	"indexeddf/internal/plan"
	"indexeddf/internal/sqltypes"
)

func resolver() Resolver {
	person := catalog.NewColumnTable("person", sqltypes.NewSchema(
		sqltypes.Field{Name: "id", Type: sqltypes.Int64},
		sqltypes.Field{Name: "name", Type: sqltypes.String},
		sqltypes.Field{Name: "age", Type: sqltypes.Int64},
	), nil)
	knows := catalog.NewColumnTable("knows", sqltypes.NewSchema(
		sqltypes.Field{Name: "person1Id", Type: sqltypes.Int64},
		sqltypes.Field{Name: "person2Id", Type: sqltypes.Int64},
	), nil)
	return func(name string) (catalog.Table, error) {
		switch name {
		case "person":
			return person, nil
		case "knows":
			return knows, nil
		}
		return nil, fmt.Errorf("no table %q", name)
	}
}

func parse(t *testing.T, q string) plan.Node {
	t.Helper()
	n, err := Parse(q, resolver())
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return n
}

func TestLexerBasics(t *testing.T) {
	toks, err := lex("SELECT a, 'it''s' FROM t WHERE x >= 1.5 -- c\nAND y <> 2")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		texts = append(texts, tk.String())
	}
	joined := strings.Join(texts, " ")
	for _, want := range []string{"SELECT", "it's", ">=", "1.5", "<>", "<eof>"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("lexer output %q missing %q", joined, want)
		}
	}
	if _, err := lex("SELECT 'unterminated"); err == nil {
		t.Fatal("unterminated string accepted")
	}
	if _, err := lex("SELECT @"); err == nil {
		t.Fatal("bad character accepted")
	}
}

func TestParseSelectShape(t *testing.T) {
	n := parse(t, "SELECT id, name FROM person WHERE age > 30 ORDER BY id DESC LIMIT 5")
	// Expect Limit(Sort(Project(Filter(Relation)))).
	lim, ok := n.(*plan.Limit)
	if !ok || lim.N != 5 {
		t.Fatalf("top = %T", n)
	}
	srt, ok := lim.Child.(*plan.Sort)
	if !ok || !srt.Orders[0].Desc {
		t.Fatalf("sort = %+v", lim.Child)
	}
	prj, ok := srt.Child.(*plan.Project)
	if !ok || len(prj.Exprs) != 2 {
		t.Fatalf("project = %+v", srt.Child)
	}
	flt, ok := prj.Child.(*plan.Filter)
	if !ok {
		t.Fatalf("filter = %+v", prj.Child)
	}
	if _, ok := flt.Child.(*plan.Relation); !ok {
		t.Fatalf("relation = %+v", flt.Child)
	}
}

func TestParseJoinShape(t *testing.T) {
	n := parse(t, "SELECT p.name FROM knows k JOIN person p ON k.person1Id = p.id")
	prj := n.(*plan.Project)
	j, ok := prj.Child.(*plan.Join)
	if !ok || j.Type != plan.InnerJoin {
		t.Fatalf("join = %+v", prj.Child)
	}
	left := j.Left.(*plan.Relation)
	if left.Alias != "k" {
		t.Fatalf("left alias = %q", left.Alias)
	}
	// LEFT OUTER JOIN.
	n2 := parse(t, "SELECT p.name FROM person p LEFT JOIN knows k ON p.id = k.person1Id")
	if j2 := n2.(*plan.Project).Child.(*plan.Join); j2.Type != plan.LeftOuterJoin {
		t.Fatalf("left join type = %v", j2.Type)
	}
	// CROSS JOIN has no condition.
	n3 := parse(t, "SELECT p.name FROM person p CROSS JOIN knows k")
	if j3 := n3.(*plan.Project).Child.(*plan.Join); j3.Cond != nil {
		t.Fatalf("cross join cond = %v", j3.Cond)
	}
}

func TestParseAggregateShape(t *testing.T) {
	n := parse(t, "SELECT age, COUNT(*) AS c, SUM(id) FROM person GROUP BY age HAVING COUNT(*) > 1")
	prj, ok := n.(*plan.Project)
	if !ok {
		t.Fatalf("top = %T", n)
	}
	flt, ok := prj.Child.(*plan.Filter) // HAVING
	if !ok {
		t.Fatalf("having missing: %T", prj.Child)
	}
	agg, ok := flt.Child.(*plan.Aggregate)
	if !ok || len(agg.Groups) != 1 || len(agg.Aggs) != 2 {
		t.Fatalf("aggregate = %+v", flt.Child)
	}
}

func TestParseDistinctBecomesGroupBy(t *testing.T) {
	n := parse(t, "SELECT DISTINCT age FROM person")
	if _, ok := n.(*plan.Aggregate); !ok {
		t.Fatalf("distinct top = %T", n)
	}
}

func TestParseUnionAll(t *testing.T) {
	n := parse(t, "SELECT id FROM person UNION ALL SELECT person1Id FROM knows")
	u, ok := n.(*plan.Union)
	if !ok || len(u.Inputs) != 2 {
		t.Fatalf("union = %T", n)
	}
}

func TestParseExpressions(t *testing.T) {
	cases := []string{
		"SELECT id + 1 * 2 FROM person",
		"SELECT -id FROM person",
		"SELECT id FROM person WHERE name LIKE 'a%'",
		"SELECT id FROM person WHERE id BETWEEN 1 AND 5",
		"SELECT id FROM person WHERE id IN (1, 2, 3)",
		"SELECT id FROM person WHERE name IS NOT NULL",
		"SELECT CAST(id AS STRING) FROM person",
		"SELECT UPPER(name) FROM person",
		"SELECT id FROM person WHERE NOT (id = 1 OR id = 2) AND TRUE",
		"SELECT COUNT(DISTINCT age) FROM person",
		"SELECT AVG(age), MIN(age), MAX(age) FROM person",
		"SELECT id FROM person WHERE age % 2 = 0",
	}
	for _, q := range cases {
		parse(t, q)
	}
}

func TestParsePrecedence(t *testing.T) {
	n := parse(t, "SELECT id FROM person WHERE id = 1 OR id = 2 AND age = 3")
	f := n.(*plan.Project).Child.(*plan.Filter)
	// AND binds tighter: (id=1) OR ((id=2) AND (age=3)).
	s := f.Cond.String()
	want := "((id = 1) OR ((id = 2) AND (age = 3)))"
	if s != want {
		t.Fatalf("precedence: %s, want %s", s, want)
	}
	// Arithmetic precedence.
	n2 := parse(t, "SELECT 1 + 2 * 3 FROM person")
	e := n2.(*plan.Project).Exprs[0].String()
	if e != "(1 + (2 * 3))" {
		t.Fatalf("arith precedence: %s", e)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM person",
		"SELECT * FROM",
		"SELECT * FROM nosuch",
		"SELECT * FROM person WHERE",
		"SELECT * FROM person LIMIT x",
		"SELECT * FROM person JOIN knows", // missing ON
		"SELECT id FROM person UNION SELECT id FROM person",
		"SELECT CAST(id AS NOPE) FROM person",
		"SELECT * FROM person trailing junk here",
		"SELECT id id2 id3 FROM person",
	}
	for _, q := range bad {
		if _, err := Parse(q, resolver()); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestParsePlaceholders(t *testing.T) {
	stmt, err := ParseStatement("SELECT id FROM person WHERE id = ? AND age >= ?", resolver())
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Kind != StmtSelect || stmt.NumParams != 2 {
		t.Fatalf("kind=%d params=%d, want SELECT with 2 params", stmt.Kind, stmt.NumParams)
	}
	// Placeholders are numbered in lexical order.
	s := plan.TreeString(stmt.Select)
	if !strings.Contains(s, "?1") || !strings.Contains(s, "?2") {
		t.Fatalf("placeholder ordering not reflected in plan:\n%s", s)
	}
	// View definitions reject placeholders.
	if _, err := ParseStatement("CREATE MATERIALIZED VIEW v AS SELECT id FROM person WHERE id = ?", resolver()); err == nil {
		t.Fatal("placeholder in view definition should fail")
	}
}

func TestNormalize(t *testing.T) {
	a, err := Normalize("select  id ,name\n from person  where name = 'o''brien' -- trailing comment")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Normalize("SELECT id, name FROM person WHERE name = 'o''brien'")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("normalized forms differ:\n%q\n%q", a, b)
	}
	// Identifier case is preserved (catalog is case-sensitive).
	c, _ := Normalize("SELECT ID FROM person")
	d, _ := Normalize("SELECT id FROM person")
	if c == d {
		t.Fatal("identifier case should be preserved")
	}
}

// FuzzNormalize: Normalize must be idempotent, and its output must parse
// exactly as the input did — a lost or invented `?` would change the
// statement's arity. `go test` runs the seeds; `go test -fuzz
// FuzzNormalize` explores.
func FuzzNormalize(f *testing.F) {
	for _, seed := range []string{
		"SELECT id FROM person WHERE id = ? AND age >= ?",
		"select  id ,name\n from person  where name = 'o''brien' -- trailing comment",
		"SELECT name FROM person WHERE name = '?' OR name = ''''",
		"SELECT id FROM person WHERE age > 1.5 AND id < -2 AND age <> 30 LIMIT 10",
		"SELECT COUNT(*) FROM knows k JOIN person p ON k.person1Id = p.id WHERE p.age BETWEEN ? AND ?",
		"SELECT id FROM person WHERE id IN (1, ?, 3) ORDER BY age DESC, id",
		"EXPLAIN SELECT id FROM person WHERE age + ? > 3",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, query string) {
		norm, err := Normalize(query)
		if err != nil {
			return
		}
		again, err := Normalize(norm)
		if err != nil || again != norm {
			t.Fatalf("Normalize not idempotent:\n%q\n-> %q\n-> %q (%v)", query, norm, again, err)
		}
		orig, err := ParseStatement(query, resolver())
		if err != nil {
			return
		}
		re, err := ParseStatement(norm, resolver())
		if err != nil {
			t.Fatalf("normalized %q of %q does not parse: %v", norm, query, err)
		}
		if re.NumParams != orig.NumParams {
			t.Fatalf("normalized %q has %d parameters, %q has %d", norm, re.NumParams, query, orig.NumParams)
		}
	})
}
