package opt_test

import (
	"fmt"
	"strings"
	"testing"

	"indexeddf"
	"indexeddf/internal/opt"
	"indexeddf/internal/plan"
	"indexeddf/internal/snb"
	"indexeddf/internal/sqltypes"
)

// TestRulesAreIdentityAtFixpoint pins the contract the optimizer's
// fixpoint driver relies on: a rule that does not fire returns its input
// node itself. It optimizes a corpus of real query shapes — the SNB short
// reads IS1-IS7 on indexed and vanilla frames, the Figure 2 operators the
// analytic benchmark runs, and the SQL shapes of the prepared-statement
// suite, each with a literal and with a `?` — and then applies every rule
// of the planner's batch once more to the result. Each must hand back the
// same pointer; a rule that rebuilds an unchanged node would go unnoticed
// by every answer check and cost the driver its full pass budget.
func TestRulesAreIdentityAtFixpoint(t *testing.T) {
	pl := opt.NewPlanner(opt.PlannerConfig{ShufflePartitions: 4, BroadcastThreshold: 10_000})
	rules := pl.Rules()
	if len(rules) != len(opt.DefaultRules())+1 {
		t.Fatalf("planner batch has %d rules, want the defaults plus ReorderFilterConjuncts", len(rules))
	}
	for name, n := range fixpointCorpus(t) {
		analyzed, err := opt.Analyze(n)
		if err != nil {
			t.Fatalf("%s: analyze: %v", name, err)
		}
		optimized, err := pl.Optimize(analyzed)
		if err != nil {
			t.Fatalf("%s: optimize: %v", name, err)
		}
		for _, r := range rules {
			out, err := r.Apply(optimized)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, r.Name, err)
			}
			if out != optimized {
				t.Errorf("%s: %s rebuilt the optimized plan\nbefore:\n%safter:\n%s",
					name, r.Name, plan.TreeString(optimized), plan.TreeString(out))
			}
		}
	}
}

// fixpointCorpus returns the unanalyzed plans the identity test runs over,
// keyed by a name for failure messages.
func fixpointCorpus(t *testing.T) map[string]plan.Node {
	t.Helper()
	s := indexeddf.NewSession(indexeddf.Config{TablePartitions: 4})
	d := snb.Generate(snb.Config{ScaleFactor: 0.1, Seed: 42})
	g, err := snb.Load(s, d, true)
	if err != nil {
		t.Fatal(err)
	}
	corpus := map[string]plan.Node{}
	add := func(name string, df *indexeddf.DataFrame) { corpus[name] = df.Plan() }

	// The short reads' frames, as internal/snb builds them.
	eq := func(col string, v int64) indexeddf.Expr {
		return indexeddf.Eq(indexeddf.Col(col), indexeddf.Lit(v))
	}
	personID := d.Persons[0][0].Int64Val()
	postID, commentID := d.Posts[0][0].Int64Val(), d.Comments[0][0].Int64Val()
	engines := []struct {
		name                                                string
		person, knows, postByID, postByCreator, commentByID *indexeddf.DataFrame
		commentByCreator, replyP, replyC, forum             *indexeddf.DataFrame
	}{
		{"indexed", g.PersonByID, g.KnowsByP1, g.PostByID, g.PostByCreator, g.CommentByID,
			g.CommentByCreator, g.CommentByReplyP, g.CommentByReplyC, g.ForumByID},
		{"vanilla", g.Person, g.Knows, g.Post, g.Post, g.Comment,
			g.Comment, g.Comment, g.Comment, g.Forum},
	}
	for _, e := range engines {
		personJoin := indexeddf.Eq(indexeddf.Col("creatorId"), indexeddf.Col("person.id"))
		add(e.name+"/IS1", e.person.Filter(eq("id", personID)).
			SelectCols("firstName", "lastName", "birthday", "locationIP",
				"browserUsed", "cityId", "gender", "creationDate"))
		add(e.name+"/IS2 posts", e.postByCreator.Filter(eq("creatorId", personID)).
			SelectCols("id", "content", "creationDate"))
		add(e.name+"/IS2 comments", e.commentByCreator.Filter(eq("creatorId", personID)).
			SelectCols("id", "content", "creationDate"))
		add(e.name+"/IS2 post lookup", e.postByID.Filter(eq("id", postID)))
		add(e.name+"/IS2 comment lookup", e.commentByID.Filter(eq("id", commentID)))
		add(e.name+"/IS3", e.knows.Filter(eq("person1Id", personID)).
			Join(e.person, indexeddf.Eq(indexeddf.Col("person2Id"), indexeddf.Col("person.id"))).
			SelectCols("person2Id", "firstName", "lastName", "knows.creationDate").
			OrderBy("-creationDate", "person2Id"))
		add(e.name+"/IS4", e.postByID.Filter(eq("id", postID)).SelectCols("creationDate", "content"))
		add(e.name+"/IS5", e.commentByID.Filter(eq("id", commentID)).
			Join(e.person, personJoin).SelectCols("person.id", "firstName", "lastName"))
		add(e.name+"/IS6", e.forum.Filter(eq("id", d.Forums[0][0].Int64Val())).
			Join(e.person, indexeddf.Eq(indexeddf.Col("moderatorId"), indexeddf.Col("person.id"))).
			SelectCols("forum.id", "title", "person.id", "firstName", "lastName"))
		for kind, replies := range map[string]*indexeddf.DataFrame{
			"post":    e.replyP.Filter(eq("replyOfPost", postID)),
			"comment": e.replyC.Filter(eq("replyOfComment", commentID)),
		} {
			add(e.name+"/IS7 replies to "+kind, replies.Join(e.person, personJoin).
				SelectCols("comment.id", "content", "comment.creationDate", "person.id", "firstName", "lastName").
				OrderBy("-comment.creationDate", "comment.id"))
		}
		add(e.name+"/IS7 knows", e.knows.Filter(indexeddf.And(eq("person1Id", personID), eq("person2Id", personID+1))))

		// Figure 2's operators, as the analytic benchmark runs them.
		mid := sqltypes.NewTimestamp(d.Knows[len(d.Knows)/2][2].Int64Val())
		add(e.name+"/q.filter", e.knows.Filter(indexeddf.Gt(indexeddf.Col("creationDate"), indexeddf.Lit(mid))))
		add(e.name+"/q.projection", e.knows.SelectCols("person2Id"))
		add(e.name+"/q.scan", e.knows)
		add(e.name+"/q.groupby", e.knows.GroupBy("person1Id").Count())
		add(e.name+"/q.join", e.knows.Join(e.person, indexeddf.Eq(indexeddf.Col("person1Id"), indexeddf.Col("person.id"))))
		add(e.name+"/q.top100", e.knows.OrderBy("-creationDate", "person1Id", "person2Id").Limit(100))
	}

	// The prepared-statement suite's shapes over a plain table t, an
	// indexed table ix and a small table sm.
	schema := indexeddf.NewSchema(indexeddf.Field{Name: "id", Type: indexeddf.Int64},
		indexeddf.Field{Name: "val", Type: indexeddf.Int64})
	var rows, small []indexeddf.Row
	for i := 0; i < 2_000; i++ {
		rows = append(rows, indexeddf.R(int64(i), int64(i%101)))
	}
	for i := 0; i < 8; i++ {
		small = append(small, indexeddf.R(int64(i), int64(i*10)))
	}
	if _, err := s.CreateTable("t", schema, rows); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("sm", schema, small); err != nil {
		t.Fatal(err)
	}
	ix, err := s.CreateIndexedTable("ix", schema, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.AppendRowsSlice(rows); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql  string // one %s per argument
		lits []any
	}{
		{"SELECT id, val FROM t WHERE val < %s", []any{"50"}},
		{"SELECT id, val FROM t WHERE val < %s", []any{"NULL"}},
		{"SELECT id, val FROM t WHERE val < %s", []any{"2.5"}},
		{"SELECT id FROM t WHERE val < %s AND id > 100 AND val > 3", []any{"50"}},
		{"SELECT val, COUNT(*) AS c FROM t WHERE id >= %s GROUP BY val", []any{"1234"}},
		{"SELECT id, val FROM t WHERE val < %s ORDER BY val, id LIMIT 10", []any{"50"}},
		{"SELECT id, val FROM t WHERE val * %s > 10", []any{"1.5"}},
		{"SELECT id, val + %s FROM t", []any{"7"}},
		{"SELECT val, SUM(id * %s) AS s FROM t GROUP BY val", []any{"3"}},
		{"SELECT id, val FROM t ORDER BY val * %s, id", []any{"1.5"}},
		{"SELECT id, val * %s > 10 FROM t", []any{"1.5"}},
		{"SELECT id, val FROM t ORDER BY val - %s, id LIMIT 5", []any{"3"}},
		{"SELECT id, val FROM ix WHERE id = %s AND val > %s", []any{"300", "3"}},
		{"SELECT t.id, ix.val FROM t JOIN ix ON t.id = ix.id AND t.val + ix.val > %s", []any{"60"}},
		{"SELECT t.id, ix.val FROM t LEFT JOIN ix ON t.id = ix.id AND t.val + ix.val > %s", []any{"60"}},
		{"SELECT a.id, b.val FROM t a JOIN t b ON a.id = b.val AND a.val < b.id - %s", []any{"60"}},
		{"SELECT a.id, b.val FROM t a LEFT JOIN t b ON a.id = b.val AND a.val < b.id - %s", []any{"60"}},
		{"SELECT t.id, sm.id FROM t JOIN sm ON t.id < sm.val + %s", []any{"5"}},
	} {
		marks := make([]any, len(c.lits))
		for i := range marks {
			marks[i] = "?"
		}
		for _, args := range [][]any{c.lits, marks} {
			q := fmt.Sprintf(c.sql, args...)
			df, err := s.SQL(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			add("sql/"+strings.TrimPrefix(q, "SELECT "), df)
		}
	}
	return corpus
}
