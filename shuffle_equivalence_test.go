package indexeddf_test

import (
	"fmt"
	"math/rand"
	"testing"

	"indexeddf"
	"indexeddf/internal/opt"
)

// The columnar exchange must be invisible except for speed: any plan with
// a shuffle (GROUP BY with a final merge, shuffle hash joins, shuffled
// indexed joins) returns exactly what the row exchange returns. These
// trials sweep the shapes that stress the scatter/merge path: NULL group
// keys, empty table and reduce partitions, a single group, more groups
// than a batch holds (multiple sealed batches per reducer), and composite
// string+int keys.

// shuffleTrial is one randomized table/layout configuration.
type shuffleTrial struct {
	name       string
	rows       int
	groups     int // distinct non-null grp values
	nullFrac   int // 1-in-n NULL rate for grp/val (0 = never)
	tableParts int
	shufParts  int
}

func shuffleTrialData(rng *rand.Rand, tr shuffleTrial) ([]indexeddf.Row, *indexeddf.Schema) {
	schema := indexeddf.NewSchema(
		indexeddf.Field{Name: "id", Type: indexeddf.Int64},
		indexeddf.Field{Name: "grp", Type: indexeddf.Int64, Nullable: true},
		indexeddf.Field{Name: "val", Type: indexeddf.Float64, Nullable: true},
		indexeddf.Field{Name: "tag", Type: indexeddf.String, Nullable: true},
	)
	rows := make([]indexeddf.Row, tr.rows)
	for i := range rows {
		grp := indexeddf.V(int64(rng.Intn(tr.groups)))
		val := indexeddf.V(rng.NormFloat64() * 100)
		tag := indexeddf.V(fmt.Sprintf("t%d", rng.Intn(5)))
		if tr.nullFrac > 0 {
			if rng.Intn(tr.nullFrac) == 0 {
				grp = indexeddf.V(nil)
			}
			if rng.Intn(tr.nullFrac) == 0 {
				val = indexeddf.V(nil)
			}
			if rng.Intn(tr.nullFrac) == 0 {
				tag = indexeddf.V(nil)
			}
		}
		rows[i] = indexeddf.Row{indexeddf.V(int64(i)), grp, val, tag}
	}
	return rows, schema
}

func shuffleTrialSession(t *testing.T, tr shuffleTrial, seed int64, ablate opt.Ablation) *indexeddf.Session {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	facts, fschema := shuffleTrialData(rng, tr)
	dims, dschema := dimData(rng, 10)
	sess := indexeddf.NewAblatedSession(indexeddf.Config{
		TablePartitions:   tr.tableParts,
		ShufflePartitions: tr.shufParts,
		// Force the shuffle join strategies (no broadcast shortcut).
		BroadcastThreshold: 1,
	}, ablate)
	fdf, err := sess.CreateTable("facts", fschema, facts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fdf.Cache(); err != nil {
		t.Fatal(err)
	}
	ddf, err := sess.CreateTable("dims", dschema, dims)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ddf.Cache(); err != nil {
		t.Fatal(err)
	}
	return sess
}

func TestBatchExchangeMatchesRowExchange(t *testing.T) {
	trials := []shuffleTrial{
		{name: "empty-table", rows: 0, groups: 5, tableParts: 4, shufParts: 4},
		{name: "empty-partitions", rows: 2, groups: 5, tableParts: 8, shufParts: 4},
		{name: "single-group", rows: 2_000, groups: 1, nullFrac: 7, tableParts: 4, shufParts: 7},
		{name: "small-nulls", rows: 300, groups: 11, nullFrac: 3, tableParts: 3, shufParts: 5},
		{name: "many-groups", rows: 6_000, groups: 3_000, nullFrac: 9, tableParts: 4, shufParts: 4},
		{name: "one-reducer", rows: 1_500, groups: 40, nullFrac: 6, tableParts: 5, shufParts: 1},
	}
	queries := map[string]func(*indexeddf.Session) (*indexeddf.DataFrame, error){
		"groupby-int": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			df, err := s.Table("facts")
			if err != nil {
				return nil, err
			}
			return df.GroupBy("grp").Agg(indexeddf.CountAll(), indexeddf.Sum("val"),
				indexeddf.Min("val"), indexeddf.Max("val"), indexeddf.Avg("val")), nil
		},
		"groupby-composite": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			df, err := s.Table("facts")
			if err != nil {
				return nil, err
			}
			return df.GroupBy("grp", "tag").Agg(indexeddf.CountAll(), indexeddf.Sum("val"),
				indexeddf.Count("val"), indexeddf.Max("tag")), nil
		},
		"global-agg": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			df, err := s.Table("facts")
			if err != nil {
				return nil, err
			}
			return df.Agg(indexeddf.CountAll(), indexeddf.Sum("val"), indexeddf.Min("grp")), nil
		},
		"shuffle-join-agg": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			f, err := s.Table("facts")
			if err != nil {
				return nil, err
			}
			d, err := s.Table("dims")
			if err != nil {
				return nil, err
			}
			return f.Join(d, indexeddf.Eq(indexeddf.Col("grp"), indexeddf.Col("gid"))).
				GroupBy("label").Agg(indexeddf.CountAll(), indexeddf.Sum("val")), nil
		},
		"filter-groupby": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			df, err := s.Table("facts")
			if err != nil {
				return nil, err
			}
			return df.Filter(indexeddf.Gt(indexeddf.Col("val"), indexeddf.Lit(float64(0)))).
				GroupBy("grp").Agg(indexeddf.Sum("val"), indexeddf.Avg("val")), nil
		},
	}
	for ti, tr := range trials {
		for qname, q := range queries {
			t.Run(fmt.Sprintf("%s/%s", tr.name, qname), func(t *testing.T) {
				seed := int64(1000 + ti)
				rowSess := shuffleTrialSession(t, tr, seed, opt.RowEngine)
				vecSess := shuffleTrialSession(t, tr, seed, 0)
				want := runQuery(t, rowSess, q)
				got := runQuery(t, vecSess, q)
				if len(want) != len(got) {
					t.Fatalf("row exchange returned %d rows, batch exchange %d", len(want), len(got))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("row %d differs:\n row exchange:   %s\n batch exchange: %s", i, want[i], got[i])
					}
				}
			})
		}
	}
}
