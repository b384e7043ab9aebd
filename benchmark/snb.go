package main

import (
	"fmt"
	"math/rand"
	"sort"

	"indexeddf"
	"indexeddf/internal/plan"
	"indexeddf/internal/snb"
	"indexeddf/internal/sqltypes"
)

// hubs is how many of the most-followed accounts (the Zipf head of the
// generator: the lowest person ids) the leaderboard view covers.
const hubs = 100

// snbGraph is the SNB dataset loaded in indexed mode plus the reference
// view of the same tables: snb.Graph routes every query by its Indexed
// flag, so a copy with the flag cleared runs the vanilla plans over the
// very same (also appended-to) tables.
type snbGraph struct {
	d       *snb.Dataset
	sess    *indexeddf.Session
	g       *snb.Graph
	vanilla *snb.Graph
}

func loadSNB(p params, cfg indexeddf.Config) (*snbGraph, error) {
	d := snb.Generate(snb.Config{ScaleFactor: p.sf(), Seed: p.seed})
	sess := indexeddf.NewSession(cfg)
	g, err := snb.Load(sess, d, true)
	if err != nil {
		return nil, err
	}
	v := *g
	v.Indexed = false
	return &snbGraph{d: d, sess: sess, g: g, vanilla: &v}, nil
}

// catalogName is the name a base-table frame is registered under.
func catalogName(df *indexeddf.DataFrame) string {
	return df.Plan().(*plan.Relation).Table.Name()
}

// updateBatches pre-generates n batches of the seeded update stream and the
// function that applies one through snb.Apply.
func (sg *snbGraph) updateBatches(seed int64) (func(n int) []any, func(any) error) {
	stream := snb.NewUpdateStream(sg.d, seed)
	gen := func(n int) []any {
		out := make([]any, n)
		for i := range out {
			out[i] = stream.Batch(appendBatch)
		}
		return out
	}
	apply := func(b any) error { return snb.Apply(sg.g, b.([]snb.Update)) }
	return gen, apply
}

// knowsProbe exposes the knows table — the frame Figure 2 runs on and the
// most-appended one — to the layer probes.
func (sg *snbGraph) knowsProbe() probeInputs {
	return probeInputs{
		schema: snb.KnowsSchema(), keyCol: 0, filterCol: 2, sortCol: 2,
		rows: sg.d.Knows,
	}
}

// shortReadParams is one short-read operation's parameter draw.
type shortReadParams struct{ person, message int64 }

func setupSNB(p params, withAppender bool) (*env, error) {
	sg, err := loadSNB(p, engineConfig())
	if err != nil {
		return nil, err
	}
	d, sess, g := sg.d, sg.sess, sg.g
	personT, knowsT := catalogName(g.PersonByID), catalogName(g.KnowsByP1)

	// The leaderboard: followers of the hub accounts, delta-maintained from
	// the indexed knows frame's change log and read as a top-10.
	viewDef := fmt.Sprintf("SELECT person2Id, COUNT(*) AS followers FROM %%s WHERE person2Id <= %d GROUP BY person2Id", snb.PersonIDBase+hubs)
	if _, err := sess.CreateMaterializedView("hub_followers", fmt.Sprintf(viewDef, knowsT)); err != nil {
		return nil, err
	}
	const top10 = " ORDER BY followers DESC, person2Id LIMIT 10"
	viewRead := "SELECT person2Id, followers FROM hub_followers" + top10
	viewRef := fmt.Sprintf(viewDef, "knows") + top10

	const fetch = "SELECT id, firstName, lastName FROM %s WHERE id = "
	stmt, err := sess.Prepare(fmt.Sprintf(fetch, personT) + "?")
	if err != nil {
		return nil, err
	}
	adhoc := func(table string, id int64) string { return fmt.Sprintf(fetch+"%d", table, id) }

	rng := rand.New(rand.NewSource(p.seed))
	draw := func(r *rand.Rand) any {
		person := d.Persons[r.Intn(len(d.Persons))][0].Int64Val()
		var message int64
		if r.Intn(2) == 0 {
			message = d.Posts[r.Intn(len(d.Posts))][0].Int64Val()
		} else {
			message = d.Comments[r.Intn(len(d.Comments))][0].Int64Val()
		}
		return shortReadParams{person, message}
	}

	queries := snb.Queries()
	// shortReads runs SQ1-SQ7 on graph gr; they collect their rows.
	shortReads := func(tr *tracer, gr *snb.Graph, sp shortReadParams, out *[]digest) error {
		for _, q := range queries {
			id := sp.person
			if q.ParamKind == "message" {
				id = sp.message
			}
			tr.begin("q." + q.Name)
			rows, err := q.Run(gr, id)
			tr.end()
			if err != nil {
				return fmt.Errorf("%s(%d): %w", q.Name, id, err)
			}
			if q.Name == "SQ1" && len(rows) != 1 {
				return fmt.Errorf("SQ1(%d): %d rows, want 1", id, len(rows))
			}
			if out != nil {
				*out = append(*out, digestOf(q.Name, rows))
			}
		}
		return nil
	}
	// fetches runs the three cursor reads: prepared, ad-hoc SQL, view top-10.
	fetches := func(tr *tracer, sp shortReadParams, out *[]digest, prepared func() (*indexeddf.Rows, error), adhocSQL, viewSQL string) error {
		if n, err := digestCursor(tr, "q.prepared", prepared, out); err != nil || n != 1 {
			return fmt.Errorf("prepared fetch of person %d: %d rows, err %v", sp.person, n, err)
		}
		if n, err := digestCursor(tr, "q.adhoc", func() (*indexeddf.Rows, error) { return sess.Query(bg, adhocSQL) }, out); err != nil || n != 1 {
			return fmt.Errorf("ad-hoc fetch of person %d: %d rows, err %v", sp.person, n, err)
		}
		if n, err := digestCursor(tr, "q.view", func() (*indexeddf.Rows, error) { return sess.Query(bg, viewSQL) }, out); err != nil || n != 10 {
			return fmt.Errorf("view top-10: %d rows, err %v", n, err)
		}
		return nil
	}

	e := &env{
		sess:       sess,
		next:       func() any { return draw(rng) },
		concurrent: withAppender,
		ordered:    map[string]bool{"q.view": true},
		probe:      sg.knowsProbe(),
		close:      func() { sess.Close() },
	}
	e.op = func(tr *tracer, p any, out *[]digest) error {
		sp := p.(shortReadParams)
		if err := shortReads(tr, g, sp, out); err != nil {
			return err
		}
		return fetches(tr, sp, out, func() (*indexeddf.Rows, error) { return stmt.Query(bg, sp.person) },
			adhoc(personT, sp.person), viewRead)
	}
	e.ref = func(p any, out *[]digest) error {
		sp := p.(shortReadParams)
		if err := shortReads(nil, sg.vanilla, sp, out); err != nil {
			return err
		}
		person := adhoc("person", sp.person)
		return fetches(nil, sp, out, func() (*indexeddf.Rows, error) { return sess.Query(bg, person) }, person, viewRef)
	}
	e.sample = func() []any {
		// The hub account (longest chains, most messages) plus seeded draws.
		r := rand.New(rand.NewSource(p.seed + 1))
		out := []any{shortReadParams{d.Persons[0][0].Int64Val(), d.Posts[0][0].Int64Val()}}
		for i := 0; i < 11; i++ {
			out = append(out, draw(r))
		}
		return out
	}
	e.batches, e.apply = sg.updateBatches(p.seed)
	base := map[*indexeddf.DataFrame]int{g.Knows: len(d.Knows), g.Post: len(d.Posts), g.Comment: len(d.Comments)}
	indexedCopies := map[*indexeddf.DataFrame][]*indexeddf.DataFrame{
		g.Knows:   {g.KnowsByP1},
		g.Post:    {g.PostByID, g.PostByCreator},
		g.Comment: {g.CommentByID, g.CommentByCreator, g.CommentByReplyP, g.CommentByReplyC},
	}
	e.finalCheck = func(applied int) error {
		var total int64
		for vt, n := range base {
			got, err := vt.Count()
			if err != nil {
				return err
			}
			total += got - int64(n)
			for _, it := range indexedCopies[vt] {
				if c := it.IndexedCore().RowCount(); c != got {
					return fmt.Errorf("%s holds %d rows, its base table %d", catalogName(it), c, got)
				}
			}
		}
		if want := int64(applied) * appendBatch; total != want {
			return fmt.Errorf("tables grew by %d rows, %d updates were applied", total, want)
		}
		// The delta-maintained view must equal a from-scratch aggregate.
		var view, scratch digest
		if _, err := cursor(nil, "", func() (*indexeddf.Rows, error) {
			return sess.Query(bg, "SELECT person2Id, followers FROM hub_followers")
		}, view.add); err != nil {
			return err
		}
		if _, err := cursor(nil, "", func() (*indexeddf.Rows, error) { return sess.Query(bg, fmt.Sprintf(viewDef, "knows")) }, scratch.add); err != nil {
			return err
		}
		if !sameAnswer(view, scratch, false) {
			return fmt.Errorf("view hub_followers (%d rows) differs from its recompute (%d rows)", view.rows, scratch.rows)
		}
		return nil
	}
	e.probe.sqlText = func(i int) string { return adhoc(personT, d.Persons[i%len(d.Persons)][0].Int64Val()) }
	return e, nil
}

// setupAnalytic loads the same graph into a session in the paper's
// no-broadcast cluster regime (joins and GROUP BY cross the shuffle) with
// memory accounting on and a budget nothing reaches.
func setupAnalytic(p params) (*env, error) {
	cfg := engineConfig()
	cfg.BroadcastThreshold = 1
	cfg.MemoryLimit = 1 << 30
	cfg.QueryMemoryLimit = 1 << 29
	sg, err := loadSNB(p, cfg)
	if err != nil {
		return nil, err
	}
	// The range filter keeps the newer half of knows on every seed.
	dates := make([]int64, len(sg.d.Knows))
	for i, k := range sg.d.Knows {
		dates[i] = k[2].Int64Val()
	}
	sort.Slice(dates, func(i, j int) bool { return dates[i] < dates[j] })
	mid := sqltypes.NewTimestamp(dates[len(dates)/2])
	// figure2 is the operation on one pair of frames: Figure 2's non-indexed
	// operators plus a top-100.
	type query struct {
		name string
		df   *indexeddf.DataFrame
	}
	figure2 := func(knows, person *indexeddf.DataFrame) []query {
		return []query{
			{"q.filter", knows.Filter(indexeddf.Gt(indexeddf.Col("creationDate"), indexeddf.Lit(mid)))},
			{"q.projection", knows.SelectCols("person2Id")},
			{"q.scan", knows},
			{"q.groupby", knows.GroupBy("person1Id").Count()},
			{"q.join", knows.Join(person, indexeddf.Eq(indexeddf.Col("person1Id"), indexeddf.Col("person.id")))},
			{"q.top100", knows.OrderBy("-creationDate", "person1Id", "person2Id").Limit(100)},
		}
	}
	run := func(qs []query, want []int) func(tr *tracer, out *[]digest) error {
		return func(tr *tracer, out *[]digest) error {
			for i, q := range qs {
				n, err := digestCursor(tr, q.name, func() (*indexeddf.Rows, error) { return q.df.Query(bg) }, out)
				if err != nil {
					return fmt.Errorf("%s: %w", q.name, err)
				}
				if want != nil && want[i] >= 0 && n != want[i] {
					return fmt.Errorf("%s: %d rows, want %d", q.name, n, want[i])
				}
			}
			return nil
		}
	}
	indexed, vanilla := figure2(sg.g.KnowsByP1, sg.g.PersonByID), figure2(sg.g.Knows, sg.g.Person)
	// Row counts the inline check holds every timed operation to; the
	// reference fills them in during verify (-1 = not known yet).
	want := make([]int, len(indexed))
	for i := range want {
		want[i] = -1
	}
	measured, reference := run(indexed, want), run(vanilla, nil)
	e := &env{
		sess:    sg.sess,
		next:    func() any { return nil },
		op:      func(tr *tracer, _ any, out *[]digest) error { return measured(tr, out) },
		ordered: map[string]bool{"q.top100": true},
		sample:  func() []any { return []any{nil} },
		probe:   sg.knowsProbe(),
		close:   func() { sg.sess.Close() },
	}
	e.ref = func(_ any, out *[]digest) error {
		if err := reference(nil, out); err != nil {
			return err
		}
		if out != nil {
			for i, d := range *out {
				want[i] = d.rows
			}
		}
		return nil
	}
	e.batches, e.apply = sg.updateBatches(p.seed)
	e.probe.sqlText = func(i int) string {
		return fmt.Sprintf("SELECT person1Id, COUNT(*) AS cnt FROM %s WHERE person2Id > %d GROUP BY person1Id", catalogName(sg.g.KnowsByP1), i)
	}
	return e, nil
}
