package snb

import (
	"sort"
	"strings"
	"testing"

	"indexeddf"
	"indexeddf/internal/sqltypes"
)

func genSmall(t *testing.T) *Dataset {
	t.Helper()
	return Generate(Config{ScaleFactor: 0.2, Seed: 42})
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{ScaleFactor: 0.1, Seed: 7})
	b := Generate(Config{ScaleFactor: 0.1, Seed: 7})
	if a.Rows() != b.Rows() {
		t.Fatalf("non-deterministic row counts: %d vs %d", a.Rows(), b.Rows())
	}
	for i := range a.Persons {
		if a.Persons[i].String() != b.Persons[i].String() {
			t.Fatalf("person %d differs", i)
		}
	}
	c := Generate(Config{ScaleFactor: 0.1, Seed: 8})
	if a.Persons[0].String() == c.Persons[0].String() &&
		a.Persons[1].String() == c.Persons[1].String() {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateShape(t *testing.T) {
	d := genSmall(t)
	nP := len(d.Persons)
	if nP != 200 {
		t.Fatalf("persons = %d, want 200", nP)
	}
	if len(d.Knows) < 5*nP {
		t.Fatalf("knows = %d, too sparse", len(d.Knows))
	}
	if len(d.Posts) != 3*nP || len(d.Comments) != 6*nP {
		t.Fatalf("posts=%d comments=%d", len(d.Posts), len(d.Comments))
	}
	// Degree skew: max out-degree should be much larger than the mean
	// (Zipf-distributed targets create popular hubs on the in-side; check
	// in-degree skew).
	in := map[int64]int{}
	for _, k := range d.Knows {
		in[k[1].Int64Val()]++
	}
	max := 0
	for _, c := range in {
		if c > max {
			max = c
		}
	}
	mean := len(d.Knows) / nP
	if max < 3*mean {
		t.Fatalf("in-degree not skewed: max=%d mean=%d", max, mean)
	}
	// Comment reply chains terminate at posts.
	for _, c := range d.Comments {
		if c[7].IsNull() && c[8].IsNull() {
			t.Fatal("comment with no parent")
		}
	}
}

func loadBoth(t *testing.T, d *Dataset) (vanilla, indexed *Graph) {
	t.Helper()
	vs := indexeddf.NewSession(indexeddf.Config{TablePartitions: 3})
	v, err := Load(vs, d, false)
	if err != nil {
		t.Fatal(err)
	}
	is := indexeddf.NewSession(indexeddf.Config{TablePartitions: 3})
	ix, err := Load(is, d, true)
	if err != nil {
		t.Fatal(err)
	}
	return v, ix
}

func canonRows(rows []sqltypes.Row) string {
	s := make([]string, len(rows))
	for i, r := range rows {
		s[i] = r.String()
	}
	sort.Strings(s)
	return strings.Join(s, "\n")
}

// TestQueriesAgreeAcrossEngines is the central correctness check: every
// short read returns identical results on vanilla Spark-like execution and
// on the Indexed DataFrame.
func TestQueriesAgreeAcrossEngines(t *testing.T) {
	d := genSmall(t)
	vanilla, indexed := loadBoth(t, d)
	params := DefaultParams(d, 5)
	for _, q := range Queries() {
		ids := params[q.ParamKind]
		for _, id := range ids {
			vRows, err := q.Run(vanilla, id)
			if err != nil {
				t.Fatalf("%s(%d) vanilla: %v", q.Name, id, err)
			}
			iRows, err := q.Run(indexed, id)
			if err != nil {
				t.Fatalf("%s(%d) indexed: %v", q.Name, id, err)
			}
			if canonRows(vRows) != canonRows(iRows) {
				t.Errorf("%s(%d): engines disagree\nvanilla (%d rows):\n%s\nindexed (%d rows):\n%s",
					q.Name, id, len(vRows), canonRows(vRows), len(iRows), canonRows(iRows))
			}
		}
	}
}

func TestIS1Profile(t *testing.T) {
	d := genSmall(t)
	_, g := loadBoth(t, d)
	rows, err := IS1(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0]) != 8 {
		t.Fatalf("IS1 = %v", rows)
	}
	none, err := IS1(g, 999999)
	if err != nil || len(none) != 0 {
		t.Fatalf("IS1(missing) = %v, %v", none, err)
	}
}

func TestIS2RecentMessagesOrderedAndCapped(t *testing.T) {
	d := genSmall(t)
	_, g := loadBoth(t, d)
	// Find a prolific author.
	counts := map[int64]int{}
	for _, p := range d.Posts {
		counts[p[1].Int64Val()]++
	}
	for _, c := range d.Comments {
		counts[c[1].Int64Val()]++
	}
	var busy int64
	best := 0
	for id, n := range counts {
		if n > best {
			best, busy = n, id
		}
	}
	rows, err := IS2(g, busy)
	if err != nil {
		t.Fatal(err)
	}
	if best >= 10 && len(rows) != 10 {
		t.Fatalf("IS2 returned %d rows for author with %d messages", len(rows), best)
	}
	for i := 1; i < len(rows); i++ {
		if sqltypes.Compare(rows[i-1][2], rows[i][2]) < 0 {
			t.Fatal("IS2 not sorted newest first")
		}
	}
	// Root authors resolve.
	for _, r := range rows {
		if r[3].IsNull() || r[4].IsNull() {
			t.Fatalf("IS2 row without root post: %v", r)
		}
	}
}

func TestIS3FriendsSorted(t *testing.T) {
	d := genSmall(t)
	_, g := loadBoth(t, d)
	// Person 1 has at least one friend by construction (degree >= 1).
	rows, err := IS3(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if sqltypes.Compare(rows[i-1][3], rows[i][3]) < 0 {
			t.Fatal("IS3 not sorted by friendship date desc")
		}
	}
}

func TestIS4IS5OnPostAndComment(t *testing.T) {
	d := genSmall(t)
	_, g := loadBoth(t, d)
	postID := d.Posts[0][0].Int64Val()
	commentID := d.Comments[0][0].Int64Val()
	for _, id := range []int64{postID, commentID} {
		rows, err := IS4(g, id)
		if err != nil || len(rows) != 1 {
			t.Fatalf("IS4(%d) = %v, %v", id, rows, err)
		}
		rows5, err := IS5(g, id)
		if err != nil || len(rows5) != 1 {
			t.Fatalf("IS5(%d) = %v, %v", id, rows5, err)
		}
	}
}

func TestIS6FindsForum(t *testing.T) {
	d := genSmall(t)
	_, g := loadBoth(t, d)
	// A comment that replies to a comment exercises the chain walk.
	var deep int64
	for _, c := range d.Comments {
		if !c[8].IsNull() {
			deep = c[0].Int64Val()
			break
		}
	}
	if deep == 0 {
		t.Skip("no nested comment in dataset")
	}
	rows, err := IS6(g, deep)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0]) != 5 {
		t.Fatalf("IS6 = %v", rows)
	}
}

func TestIS7RepliesWithKnowsFlag(t *testing.T) {
	d := genSmall(t)
	_, g := loadBoth(t, d)
	// Find a post with replies.
	replied := map[int64]bool{}
	for _, c := range d.Comments {
		if !c[7].IsNull() {
			replied[c[7].Int64Val()] = true
		}
	}
	var target int64
	for id := range replied {
		target = id
		break
	}
	rows, err := IS7(g, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("IS7 found no replies for a replied-to post")
	}
	for _, r := range rows {
		if len(r) != 7 || r[6].T != sqltypes.Bool {
			t.Fatalf("IS7 row shape: %v", r)
		}
	}
}

func TestUpdateStreamAndApply(t *testing.T) {
	d := genSmall(t)
	_, g := loadBoth(t, d)
	before, err := g.KnowsByP1.Count()
	if err != nil {
		t.Fatal(err)
	}
	us := NewUpdateStream(d, 1)
	batch := us.Batch(200)
	kinds := map[UpdateKind]int{}
	for _, u := range batch {
		kinds[u.Kind]++
	}
	if kinds[AddKnows] == 0 || kinds[AddPost] == 0 || kinds[AddComment] == 0 {
		t.Fatalf("update mix degenerate: %v", kinds)
	}
	if err := Apply(g, batch); err != nil {
		t.Fatal(err)
	}
	after, err := g.KnowsByP1.Count()
	if err != nil {
		t.Fatal(err)
	}
	if after != before+int64(kinds[AddKnows]) {
		t.Fatalf("knows count %d -> %d, want +%d", before, after, kinds[AddKnows])
	}
	// The vanilla side stays in sync too.
	vAfter, err := g.Knows.Count()
	if err != nil || vAfter != after {
		t.Fatalf("vanilla knows = %d, indexed = %d", vAfter, after)
	}
	// Queries still agree after updates on both engines of the same graph.
	rows, err := IS3(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = rows
}

func TestFriendsOfFriendsTopAgreesAcrossEngines(t *testing.T) {
	d := genSmall(t)
	vanilla, indexed := loadBoth(t, d)
	for _, id := range []int64{1, 7, 42} {
		v, err := FriendsOfFriendsTop(vanilla, id, 10)
		if err != nil {
			t.Fatalf("vanilla fof(%d): %v", id, err)
		}
		ix, err := FriendsOfFriendsTop(indexed, id, 10)
		if err != nil {
			t.Fatalf("indexed fof(%d): %v", id, err)
		}
		if canonRows(v) != canonRows(ix) {
			t.Fatalf("fof(%d) engines disagree:\n%s\nvs\n%s", id, canonRows(v), canonRows(ix))
		}
		// The person themself is excluded.
		for _, r := range v {
			if r[0].Int64Val() == id {
				t.Fatalf("fof(%d) contains the person", id)
			}
		}
		// Ranked by count desc.
		for i := 1; i < len(v); i++ {
			if v[i-1][1].Int64Val() < v[i][1].Int64Val() {
				t.Fatalf("fof(%d) not ranked: %v", id, v)
			}
		}
	}
}

// TestShortReadsHitPlanCache: after one warm-up round, SQ1-SQ7 run with
// ids they have not seen compile nothing. A short read's literals are
// lifted out of its plan, so every id shares its query's cached plans, on
// both engines.
func TestShortReadsHitPlanCache(t *testing.T) {
	d := genSmall(t)
	vanilla, indexed := loadBoth(t, d)
	params := DefaultParams(d, 16)
	for _, g := range []*Graph{vanilla, indexed} {
		run := func(from, to int) {
			for _, q := range Queries() {
				for _, id := range params[q.ParamKind][from:to] {
					if _, err := q.Run(g, id); err != nil {
						t.Fatalf("%s(%d): %v", q.Name, id, err)
					}
				}
			}
		}
		run(0, 8) // warm-up: posts and comments alike
		hits0, misses0 := g.Sess.PlanCacheStats()
		run(8, 16)
		hits1, misses1 := g.Sess.PlanCacheStats()
		if misses1 != misses0 {
			t.Errorf("indexed=%v: fresh ids compiled %d plans (hits %d)", g.Indexed, misses1-misses0, hits1-hits0)
		}
		if hits1-hits0 < 8*int64(len(Queries())) {
			t.Errorf("indexed=%v: %d plan-cache hits for %d queries", g.Indexed, hits1-hits0, 8*len(Queries()))
		}
	}
}
