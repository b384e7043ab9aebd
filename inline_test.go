package indexeddf

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"indexeddf/internal/faultpoint"
	"indexeddf/internal/opt"
	"indexeddf/internal/rdd"
	"indexeddf/internal/sqltypes"
	"indexeddf/internal/testutil"
)

// shortReads holds the indexed tables the SNB short reads touch, in
// miniature: n persons (indexed on id), n friendships spread over the
// first keys persons (indexed on person1Id), n posts (on id), 10 forums
// (on id) and n comments replying to the first keys posts (on
// replyOfPost).
type shortReads struct {
	person, knows, post, forum, comment *DataFrame
}

func newShortReads(t *testing.T, s *Session, n, keys int) shortReads {
	t.Helper()
	ts := func(i int) Value { return V(sqltypes.NewTimestamp(int64(i) * 1e6)) }
	var r shortReads
	tables := []struct {
		df     **DataFrame
		name   string
		schema *Schema
		key    int
		row    func(i int) Row
		rows   int
	}{
		{&r.person, "person", NewSchema(
			Field{Name: "id", Type: Int64}, Field{Name: "firstName", Type: String},
			Field{Name: "lastName", Type: String}, Field{Name: "creationDate", Type: Timestamp}), 0,
			func(i int) Row { return R(int64(i), "first", "last", ts(i)) }, n},
		{&r.knows, "knows", NewSchema(
			Field{Name: "person1Id", Type: Int64}, Field{Name: "person2Id", Type: Int64},
			Field{Name: "creationDate", Type: Timestamp}), 0,
			func(i int) Row { return R(int64(i%keys), int64(i), ts(i)) }, n},
		{&r.post, "post", NewSchema(
			Field{Name: "id", Type: Int64}, Field{Name: "creatorId", Type: Int64},
			Field{Name: "content", Type: String}), 0,
			func(i int) Row { return R(int64(i), int64(i), fmt.Sprintf("post %d", i)) }, n},
		{&r.forum, "forum", NewSchema(
			Field{Name: "id", Type: Int64}, Field{Name: "title", Type: String},
			Field{Name: "moderatorId", Type: Int64}), 0,
			func(i int) Row { return R(int64(i), fmt.Sprintf("forum %d", i), int64(i)) }, 10},
		{&r.comment, "comment", NewSchema(
			Field{Name: "id", Type: Int64}, Field{Name: "creatorId", Type: Int64},
			Field{Name: "creationDate", Type: Timestamp}, Field{Name: "replyOfPost", Type: Int64}), 3,
			func(i int) Row { return R(int64(i), int64(i), ts(i), int64(i%keys)) }, n},
	}
	for _, tb := range tables {
		df, err := s.CreateIndexedTable(tb.name, tb.schema, tb.key)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]Row, tb.rows)
		for i := range rows {
			rows[i] = tb.row(i)
		}
		if _, err := df.AppendRowsSlice(rows); err != nil {
			t.Fatal(err)
		}
		*tb.df = df
	}
	return r
}

// is3 is SNB IS3 (SQ3): a person's friends, newest friendship first — a
// lookup, a broadcast indexed join and a sort.
func (r shortReads) is3(person int64) *DataFrame {
	return r.knows.Filter(Eq(Col("person1Id"), Lit(person))).
		Join(r.person, Eq(Col("person2Id"), Col("person.id"))).
		SelectCols("person2Id", "firstName", "lastName", "knows.creationDate").
		OrderBy("-creationDate", "person2Id")
}

// is5 is SNB IS5 (SQ5): a message's creator — a lookup and a broadcast
// indexed join, whose final stage has one partition per index partition.
func (r shortReads) is5(post int64) *DataFrame {
	return r.post.Filter(Eq(Col("id"), Lit(post))).
		Join(r.person, Eq(Col("creatorId"), Col("person.id"))).
		SelectCols("person.id", "firstName", "lastName")
}

// TestPointPlanShapes: the SQ3, SQ5, SQ6 and SQ7 shapes (a lookup probing
// an indexed join, projected and sometimes sorted) compile to point plans
// that run inline; a scan, an aggregate over a scan and a view scan do
// not, and the NoInline ablation sends a point plan back to the pool.
func TestPointPlanShapes(t *testing.T) {
	s := NewSession(Config{TablePartitions: 4})
	r := newShortReads(t, s, 1_000, 100)
	if _, err := s.CreateMaterializedView("friends", "SELECT person1Id, COUNT(*) AS c FROM knows GROUP BY person1Id"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		df     *DataFrame
		inline bool
	}{
		{"SQ3", r.is3(7), true},
		{"SQ5", r.is5(7), true},
		{"SQ6", r.forum.Filter(Eq(Col("id"), Lit(int64(3)))).
			Join(r.person, Eq(Col("moderatorId"), Col("person.id"))).
			SelectCols("forum.id", "title", "person.id", "firstName", "lastName"), true},
		{"SQ7", r.comment.Filter(Eq(Col("replyOfPost"), Lit(int64(7)))).
			Join(r.person, Eq(Col("creatorId"), Col("person.id"))).
			SelectCols("comment.id", "comment.creationDate", "person.id", "firstName", "lastName").
			OrderBy("-comment.creationDate", "comment.id"), true},
		{"scan", r.person.Filter(Eq(Col("firstName"), Lit("first"))), false},
		{"aggregate", s.MustSQL("SELECT creatorId, COUNT(*) FROM post GROUP BY creatorId"), false},
		{"view scan", s.MustSQL("SELECT person1Id, COUNT(*) AS c FROM knows GROUP BY person1Id"), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ent, _, _, err := s.prepare(c.df.Plan(), nil)
			if err != nil {
				t.Fatal(err)
			}
			inline := ent.inline
			plan, err := c.df.Explain()
			if err != nil {
				t.Fatal(err)
			}
			if inline != c.inline || strings.Contains(plan, "(inline)") != c.inline {
				t.Fatalf("inline = %v, want %v:\n%s", inline, c.inline, plan)
			}
			if c.name == "view scan" && !strings.Contains(plan, "answered from materialized view") {
				t.Fatalf("not answered from the view:\n%s", plan)
			}
		})
	}
	pooled := newSession(Config{TablePartitions: 4}, opt.NoInline)
	if ent, _, _, err := pooled.prepare(newShortReads(t, pooled, 100, 10).is3(7).Plan(), nil); err != nil || ent.inline {
		t.Fatalf("NoInline: %v", err)
	}
}

// newInlineSession builds an IS3 session whose person 0 has 3,000
// friends, under a memory budget so the query runs with a tracker.
func newInlineSession(t *testing.T) (*Session, shortReads) {
	t.Helper()
	s := NewSession(Config{TablePartitions: 4, ShufflePartitions: 4, Parallelism: 4,
		MemoryLimit: 256 << 20, QueryMemoryLimit: 64 << 20})
	return s, newShortReads(t, s, 3_000, 1)
}

// checkReleased asserts a finished inline query left nothing behind: no
// retained shuffle output and no bytes drawn from the memory pool.
func checkReleased(t *testing.T, s *Session) {
	t.Helper()
	if n := s.Context().ShuffleOutstanding(); n != 0 {
		t.Fatalf("%d shuffles still retain outputs", n)
	}
	if used, active := s.MemoryPool().Used(), s.MemoryPool().Active(); used != 0 || active != 0 {
		t.Fatalf("memory pool holds %d bytes for %d queries after close", used, active)
	}
}

// queryTasks runs df once and returns how many tasks it started.
func queryTasks(t *testing.T, df *DataFrame) int64 {
	t.Helper()
	rows, err := df.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	rows.Close()
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return rows.Stats().TasksStarted()
}

// TestInlineCancelMidStream: cancelling an inline IS3 mid-stream surfaces
// context.Canceled at the next poll, 1,024 rows at most later.
func TestInlineCancelMidStream(t *testing.T) {
	testutil.CheckGoroutines(t)
	s, r := newInlineSession(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := r.is3(0).Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	cancel()
	n := 1
	for rows.Next() {
		n++
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v after %d rows, want context.Canceled", err, n)
	}
	if n > 1024 {
		t.Fatalf("%d rows delivered after the cancel", n)
	}
	if !rows.Stats().Inline {
		t.Fatal("IS3 did not run inline")
	}
	checkReleased(t, s)
}

// TestInlineTaskStartFault fails each task of an inline IS3 in turn at
// faultpoint.TaskStart — the broadcast sub-job's lookup, the sort's
// shuffle map tasks, and the final stage — and checks the error surfaces
// and nothing is left behind.
func TestInlineTaskStartFault(t *testing.T) {
	defer faultpoint.Reset()
	testutil.CheckGoroutines(t)
	s, r := newInlineSession(t)
	want, err := r.is3(0).Collect()
	if err != nil {
		t.Fatal(err)
	}
	// The broadcast sub-job's lookup, the sort's shuffle map tasks and
	// the final stage.
	tasks := queryTasks(t, r.is3(0))
	if tasks < 3 {
		t.Fatalf("IS3 started %d tasks, want a sub-job, a map stage and a final stage", tasks)
	}
	boom := errors.New("injected task failure")
	for skip := int64(0); skip < tasks; skip++ {
		faultpoint.Reset()
		faultpoint.Arm(faultpoint.TaskStart, faultpoint.Schedule{Err: boom, Skip: skip, Limit: 1})
		if _, err := r.is3(0).Collect(); !errors.Is(err, boom) {
			t.Fatalf("fault at task %d: err = %v, want the injected error", skip, err)
		}
		checkReleased(t, s)
	}
	faultpoint.Reset()
	got, err := r.is3(0).Collect()
	if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after the faults: %d rows, %v; want %d rows", len(got), err, len(want))
	}
}

// TestInlinePanicContained panics inside inline short reads — at each
// task's start, and where IS3's sort opens its shuffle input — and checks
// the panic surfaces as a *rdd.TaskPanicError whose stack is this test's
// goroutine: no task ran on a worker goroutine. IS5's final stage has
// several partitions, IS3's one.
func TestInlinePanicContained(t *testing.T) {
	defer faultpoint.Reset()
	testutil.CheckGoroutines(t)
	s, r := newInlineSession(t)
	type site struct {
		p    faultpoint.Point
		skip int64
	}
	for _, q := range []struct {
		name  string
		df    *DataFrame
		sites []site
	}{
		{"IS3", r.is3(0), []site{{faultpoint.ShuffleFetch, 0}}},
		{"IS5", r.is5(7), nil},
	} {
		tasks := queryTasks(t, q.df)
		for skip := int64(0); skip < tasks; skip++ {
			q.sites = append(q.sites, site{faultpoint.TaskStart, skip})
		}
		for _, site := range q.sites {
			faultpoint.Reset()
			faultpoint.Arm(site.p, faultpoint.Schedule{Panic: "inline-boom", Skip: site.skip, Limit: 1})
			_, err := q.df.Collect()
			faultpoint.Reset()
			var tp *rdd.TaskPanicError
			if !errors.As(err, &tp) {
				t.Fatalf("%s, %s (skip %d): err = %v (%T), want *rdd.TaskPanicError", q.name, site.p, site.skip, err, err)
			}
			if !strings.Contains(string(tp.Stack), "indexeddf.TestInlinePanicContained") {
				t.Fatalf("%s, %s (skip %d) panicked off the caller's goroutine:\n%s", q.name, site.p, site.skip, tp.Stack)
			}
			checkReleased(t, s)
		}
	}
}

// TestInlineCloseAfterFirstRow: closing an inline IS3 after its first row
// leaves the final task incomplete and releases everything.
func TestInlineCloseAfterFirstRow(t *testing.T) {
	testutil.CheckGoroutines(t)
	s, r := newInlineSession(t)
	rows, err := r.is3(0).Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if rows.Next() || rows.Err() != nil {
		t.Fatalf("closed cursor: Next true or Err %v", rows.Err())
	}
	st := rows.Stats()
	if st.TasksCompleted() != st.TasksStarted()-1 {
		t.Fatalf("tasks %d/%d, want only the final task incomplete", st.TasksCompleted(), st.TasksStarted())
	}
	if !strings.Contains(st.String(), " inline ") {
		t.Fatalf("footer does not say inline: %s", st)
	}
	checkReleased(t, s)
}
