package indexeddf_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"indexeddf"
	"indexeddf/internal/opt"
	"indexeddf/internal/stats"
)

// The adaptive filter cascade must be invisible except for speed:
// whatever order conjuncts evaluate in, the surviving rows — and their
// order — are exactly the static fused kernel's. These tests pin that
// equivalence on the inputs where an unsound reorder would show:
// null-heavy columns (three-valued logic), short-circuit-dependent
// predicates (a conjunct that divides by a column another conjunct
// guards), and the single-conjunct degenerate case.

// adaptiveTestData builds rows with many NULLs and zeros so conjunct
// reordering has semantic traps to step into.
func adaptiveTestData(rng *rand.Rand, n int) ([]indexeddf.Row, *indexeddf.Schema) {
	schema := indexeddf.NewSchema(
		indexeddf.Field{Name: "id", Type: indexeddf.Int64},
		indexeddf.Field{Name: "x", Type: indexeddf.Int64, Nullable: true},
		indexeddf.Field{Name: "y", Type: indexeddf.Float64, Nullable: true},
		indexeddf.Field{Name: "tag", Type: indexeddf.String, Nullable: true},
	)
	rows := make([]indexeddf.Row, n)
	for i := range rows {
		var x, y, tag indexeddf.Value
		switch rng.Intn(4) {
		case 0:
			x = indexeddf.V(nil)
		case 1:
			x = indexeddf.V(int64(0)) // division trap
		default:
			x = indexeddf.V(int64(rng.Intn(50) - 10))
		}
		if rng.Intn(3) == 0 {
			y = indexeddf.V(nil)
		} else {
			y = indexeddf.V(rng.NormFloat64() * 20)
		}
		if rng.Intn(5) == 0 {
			tag = indexeddf.V(nil)
		} else {
			tag = indexeddf.V(fmt.Sprintf("t%d", rng.Intn(6)))
		}
		rows[i] = indexeddf.Row{indexeddf.V(int64(i)), x, y, tag}
	}
	return rows, schema
}

func adaptiveSession(t *testing.T, adaptive bool, rows []indexeddf.Row, schema *indexeddf.Schema) *indexeddf.Session {
	t.Helper()
	// Statistics off so both sessions plan the identical conjunct order;
	// the only difference under test is the runtime cascade.
	ablate := opt.NoStats
	if !adaptive {
		ablate |= opt.StaticFilter
	}
	sess := indexeddf.NewAblatedSession(indexeddf.Config{}, ablate)
	df, err := sess.CreateTable("t", schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.Cache(); err != nil {
		t.Fatal(err)
	}
	return sess
}

func TestAdaptiveFilterEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rows, schema := adaptiveTestData(rng, 40_000)
	adaptiveSess := adaptiveSession(t, true, rows, schema)
	staticSess := adaptiveSession(t, false, rows, schema)

	queries := []string{
		// Null-heavy multi-conjunct mixes: every conjunct sees NULLs.
		"SELECT id, x, y FROM t WHERE x > 3 AND y < 10.0 AND tag <> 't3'",
		"SELECT id FROM t WHERE tag = 't1' AND x <= 20 AND y >= -15.0 AND x <> 4",
		"SELECT id, tag FROM t WHERE x IS NOT NULL AND y IS NOT NULL AND x < 30 AND y > -50.0",
		// Short-circuit-dependent: 100/x traps on x=0 rows unless the
		// guard holds — division by zero must yield NULL (dropped), not
		// an error, in either evaluation order.
		"SELECT id FROM t WHERE x <> 0 AND 100 / x > 5 AND y < 25.0",
		// Deliberately mis-ordered: expensive lax string conjunct first,
		// cheap selective equality last.
		"SELECT id FROM t WHERE tag <> 'zzz' AND y < 100.0 AND x >= -10 AND x = 7",
		// Single conjunct: the cascade degenerates to the fused path.
		"SELECT id FROM t WHERE x = 5",
		// OR keeps the conjunction un-splittable at the top level.
		"SELECT id FROM t WHERE (x = 1 OR x = 2) AND y > 0.0 AND tag = 't0'",
	}
	for _, q := range queries {
		adf, err := adaptiveSess.SQL(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		sdf, err := staticSess.SQL(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got, err := adf.Collect()
		if err != nil {
			t.Fatalf("%s: adaptive: %v", q, err)
		}
		want, err := sdf.Collect()
		if err != nil {
			t.Fatalf("%s: static: %v", q, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: adaptive result diverges from static\n adaptive: %d rows\n static: %d rows",
				q, len(got), len(want))
		}
	}
}

// TestAdaptiveFilterRandomizedEquivalence fuzzes conjunct combinations
// over fresh random data; adaptive and static engines must agree
// bit-identically on every query.
func TestAdaptiveFilterRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	rows, schema := adaptiveTestData(rng, 20_000)
	adaptiveSess := adaptiveSession(t, true, rows, schema)
	staticSess := adaptiveSession(t, false, rows, schema)

	conjPool := []string{
		"x > %d", "x < %d", "x = %d", "x <> %d",
		"y > %d.5", "y < %d.5",
		"tag = 't%d'", "tag <> 't%d'",
		"x IS NOT NULL", "y IS NOT NULL", "tag IS NULL",
		"100 / x > %d", // traps unless another conjunct guards x<>0
	}
	for trial := 0; trial < 40; trial++ {
		k := 2 + rng.Intn(3)
		conjs := make([]string, 0, k+1)
		usesDiv := false
		for i := 0; i < k; i++ {
			c := conjPool[rng.Intn(len(conjPool))]
			if strings.Contains(c, "/") {
				usesDiv = true
			}
			if strings.Contains(c, "%d") {
				c = fmt.Sprintf(c, rng.Intn(20)-5)
			}
			conjs = append(conjs, c)
		}
		if usesDiv && rng.Intn(2) == 0 {
			conjs = append(conjs, "x <> 0")
		}
		q := "SELECT id, x, tag FROM t WHERE " + strings.Join(conjs, " AND ")
		adf, err := adaptiveSess.SQL(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		sdf, err := staticSess.SQL(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got, err := adf.Collect()
		if err != nil {
			t.Fatalf("%s: adaptive: %v", q, err)
		}
		want, err := sdf.Collect()
		if err != nil {
			t.Fatalf("%s: static: %v", q, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: adaptive %d rows != static %d rows", q, len(got), len(want))
		}
	}
}

// TestAdaptiveFilterReordered pins the EXPLAIN ANALYZE annotation: a
// deliberately mis-ordered conjunct list (statistics off, so the
// planner leaves it alone) must converge with the cheap selective
// equality promoted ahead of the lax string conjunct.
func TestAdaptiveFilterReordered(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	rows, schema := adaptiveTestData(rng, 60_000)
	sess := adaptiveSession(t, true, rows, schema)
	// c0: string, keeps nearly everything. c1: lax range. c2: selective
	// equality — the cascade should pull it to the front.
	df, err := sess.SQL("SELECT id FROM t WHERE tag <> 'zzz' AND y < 1000.0 AND x = 7")
	if err != nil {
		t.Fatal(err)
	}
	out, err := df.ExplainAnalyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "reordered=c0,c1,c2→") {
		t.Fatalf("EXPLAIN ANALYZE missing reordered annotation:\n%s", out)
	}
	if !strings.Contains(out, "→c2,") {
		t.Fatalf("adaptive order did not promote the selective equality first:\n%s", out)
	}
}

// TestAnalyzeTableStatement drives ANALYZE TABLE through SQL: it must
// succeed on both table kinds and reject unknown tables; the statistics it
// builds survive a failed cross-partition append unchanged; under the
// NoStats ablation it is what turns collection on.
func TestAnalyzeTableStatement(t *testing.T) {
	sess := indexeddf.NewSession(indexeddf.Config{})
	schema := indexeddf.NewSchema(
		indexeddf.Field{Name: "k", Type: indexeddf.Int64},
		indexeddf.Field{Name: "v", Type: indexeddf.String},
	)
	rows := make([]indexeddf.Row, 100)
	for i := range rows {
		rows[i] = indexeddf.Row{indexeddf.V(int64(i)), indexeddf.V(fmt.Sprintf("v%d", i%10))}
	}
	if _, err := sess.CreateTable("plain", schema, rows); err != nil {
		t.Fatal(err)
	}
	idf, err := sess.CreateIndexedTable("indexed", schema, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idf.AppendRowsSlice(rows); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"plain", "indexed"} {
		df, err := sess.SQL("ANALYZE TABLE " + name)
		if err != nil {
			t.Fatalf("ANALYZE TABLE %s: %v", name, err)
		}
		out, err := df.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 || !strings.Contains(out[0][0].String(), "analyzed table "+name) {
			t.Fatalf("unexpected ANALYZE output: %v", out)
		}
	}

	// An append whose rows span partitions: a good row routed to the
	// first partition, then a STRING in the BIGINT key column of a row
	// routed to the last. The batch fails whole, so the count and the
	// incrementally kept statistics stay valid and unchanged.
	tc := idf.IndexedCore()
	last := tc.NumPartitions() - 1
	var good, bad indexeddf.Row
	for i := 0; good == nil || bad == nil; i++ {
		if k := indexeddf.V(int64(1000 + i)); good == nil && tc.PartitionFor(k) == 0 {
			good = indexeddf.Row{k, indexeddf.V("landed")}
		}
		if k := indexeddf.V(fmt.Sprintf("boom%d", i)); bad == nil && tc.PartitionFor(k) == last {
			bad = indexeddf.Row{k, indexeddf.V("lost")}
		}
	}
	columnStats := func() []*stats.ColumnStats {
		t.Helper()
		tbl, ok := sess.LookupTable("indexed")
		if !ok {
			t.Fatal("indexed table not registered")
		}
		return tbl.(stats.Provider).ColumnStats()
	}
	before := columnStats()
	if before == nil {
		t.Fatal("ANALYZE TABLE left no statistics")
	}
	if _, err := idf.AppendRowsSlice([]indexeddf.Row{good, bad}); err == nil {
		t.Fatal("expected the STRING key to fail encoding")
	}
	n, err := idf.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("Count = %d after a failed batch, want the 100 rows before it", n)
	}
	after := columnStats()
	if after == nil {
		t.Fatal("a failed batch invalidated the statistics")
	}
	for c := range before {
		if *after[c] != *before[c] {
			t.Fatalf("column %d statistics moved on a failed batch: %+v -> %+v", c, *before[c], *after[c])
		}
	}
	if after[0].Count != n {
		t.Fatalf("statistics count %d rows, Count() = %d", after[0].Count, n)
	}

	// With collection off, a table has no statistics until ANALYZE TABLE
	// scans it.
	off := indexeddf.NewAblatedSession(indexeddf.Config{}, opt.NoStats)
	odf, err := off.CreateIndexedTable("indexed", schema, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := odf.AppendRowsSlice(rows); err != nil {
		t.Fatal(err)
	}
	otbl, _ := off.LookupTable("indexed")
	if cs := otbl.(stats.Provider).ColumnStats(); cs != nil {
		t.Fatalf("NoStats table has statistics before ANALYZE: %+v", *cs[0])
	}
	if _, err := off.SQL("ANALYZE TABLE indexed"); err != nil {
		t.Fatal(err)
	}
	if cs := otbl.(stats.Provider).ColumnStats(); cs == nil || cs[0].Count != 100 {
		t.Fatalf("ANALYZE TABLE under NoStats: statistics %v, want Count 100", cs)
	}

	if _, err := sess.SQL("ANALYZE TABLE missing"); err == nil {
		t.Fatal("ANALYZE TABLE on unknown table must fail")
	}
	if _, err := sess.SQL("ANALYZE missing"); err == nil {
		t.Fatal("ANALYZE without TABLE must fail to parse")
	}
}
