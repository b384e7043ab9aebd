package indexeddf_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"indexeddf"
	"indexeddf/internal/opt"
)

// The vectorized engine must be invisible except for speed: every query
// returns exactly the row-at-a-time engine's result. These tests run the
// same workloads through both planners (with and without the RowEngine ablation) on both
// table kinds (vanilla columnar-cached and Indexed DataFrame) and compare.

type vecEnv struct {
	name string
	mk   func(t *testing.T, cfg indexeddf.Config) *indexeddf.Session
}

func vecTestData(rng *rand.Rand, n int) ([]indexeddf.Row, *indexeddf.Schema) {
	schema := indexeddf.NewSchema(
		indexeddf.Field{Name: "id", Type: indexeddf.Int64},
		indexeddf.Field{Name: "grp", Type: indexeddf.Int64, Nullable: true},
		indexeddf.Field{Name: "val", Type: indexeddf.Float64, Nullable: true},
		indexeddf.Field{Name: "tag", Type: indexeddf.String, Nullable: true},
	)
	rows := make([]indexeddf.Row, n)
	for i := range rows {
		var grp, val, tag indexeddf.Value
		if rng.Intn(10) == 0 {
			grp = indexeddf.V(nil)
		} else {
			grp = indexeddf.V(int64(rng.Intn(13)))
		}
		if rng.Intn(10) == 0 {
			val = indexeddf.V(nil)
		} else {
			val = indexeddf.V(rng.NormFloat64() * 10)
		}
		if rng.Intn(10) == 0 {
			tag = indexeddf.V(nil)
		} else {
			tag = indexeddf.V(fmt.Sprintf("t%d", rng.Intn(7)))
		}
		rows[i] = indexeddf.Row{indexeddf.V(int64(i)), grp, val, tag}
	}
	return rows, schema
}

func dimData(rng *rand.Rand, n int) ([]indexeddf.Row, *indexeddf.Schema) {
	schema := indexeddf.NewSchema(
		indexeddf.Field{Name: "gid", Type: indexeddf.Int64},
		indexeddf.Field{Name: "label", Type: indexeddf.String},
	)
	rows := make([]indexeddf.Row, n)
	for i := range rows {
		rows[i] = indexeddf.Row{indexeddf.V(int64(i)), indexeddf.V(fmt.Sprintf("g%d", rng.Intn(4)))}
	}
	return rows, schema
}

// buildSession loads the same data as either a cached vanilla table or an
// indexed table (keyed on grp for facts, gid for dims).
func buildSession(t *testing.T, cfg indexeddf.Config, ablate opt.Ablation, indexed bool) *indexeddf.Session {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	facts, fschema := vecTestData(rng, 5000)
	dims, dschema := dimData(rng, 20)
	sess := indexeddf.NewAblatedSession(cfg, ablate)
	if indexed {
		fdf, err := sess.CreateIndexedTable("facts", fschema, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fdf.AppendRowsSlice(facts); err != nil {
			t.Fatal(err)
		}
		ddf, err := sess.CreateIndexedTable("dims", dschema, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ddf.AppendRowsSlice(dims); err != nil {
			t.Fatal(err)
		}
		return sess
	}
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

func canonical(rows []indexeddf.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func runQuery(t *testing.T, sess *indexeddf.Session, q func(*indexeddf.Session) (*indexeddf.DataFrame, error)) []string {
	t.Helper()
	df, err := q(sess)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return canonical(rows)
}

func TestVectorizedMatchesRowEngine(t *testing.T) {
	queries := map[string]func(*indexeddf.Session) (*indexeddf.DataFrame, error){
		"scan": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			return s.Table("facts")
		},
		"filter": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			df, err := s.Table("facts")
			if err != nil {
				return nil, err
			}
			return df.Filter(indexeddf.Gt(indexeddf.Col("val"), indexeddf.Lit(float64(0)))), nil
		},
		"filter-conjunction": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			df, err := s.Table("facts")
			if err != nil {
				return nil, err
			}
			return df.Filter(indexeddf.And(
				indexeddf.Ge(indexeddf.Col("grp"), indexeddf.Lit(int64(3))),
				indexeddf.Ne(indexeddf.Col("tag"), indexeddf.Lit("t1")))), nil
		},
		"filter-isnull": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			df, err := s.Table("facts")
			if err != nil {
				return nil, err
			}
			return df.Filter(indexeddf.IsNull(indexeddf.Col("val"))), nil
		},
		"project": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			df, err := s.Table("facts")
			if err != nil {
				return nil, err
			}
			return df.SelectCols("tag", "grp"), nil
		},
		"project-exprs": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			df, err := s.Table("facts")
			if err != nil {
				return nil, err
			}
			return df.Select(
				indexeddf.As(indexeddf.Mul(indexeddf.Col("grp"), indexeddf.Lit(int64(3))), "g3"),
				indexeddf.As(indexeddf.Div(indexeddf.Col("val"), indexeddf.Col("grp")), "ratio")), nil
		},
		"project-fallback-func": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			df, err := s.Table("facts")
			if err != nil {
				return nil, err
			}
			return df.Select(indexeddf.As(indexeddf.Fn("UPPER", indexeddf.Col("tag")), "u")), nil
		},
		"aggregate": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			df, err := s.Table("facts")
			if err != nil {
				return nil, err
			}
			return df.GroupBy("grp").Agg(indexeddf.CountAll(), indexeddf.Sum("val"),
				indexeddf.Min("val"), indexeddf.Max("tag"), indexeddf.Avg("val")), nil
		},
		"aggregate-global": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			df, err := s.Table("facts")
			if err != nil {
				return nil, err
			}
			return df.Agg(indexeddf.CountAll(), indexeddf.Sum("grp")), nil
		},
		"filter-project-aggregate": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			df, err := s.Table("facts")
			if err != nil {
				return nil, err
			}
			return df.Filter(indexeddf.Gt(indexeddf.Col("val"), indexeddf.Lit(float64(-5)))).
				Select(indexeddf.Col("grp"), indexeddf.Col("val")).
				GroupBy("grp").Agg(indexeddf.CountAll(), indexeddf.Sum("val")), nil
		},
		"join-inner": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			f, err := s.Table("facts")
			if err != nil {
				return nil, err
			}
			d, err := s.Table("dims")
			if err != nil {
				return nil, err
			}
			return f.Join(d, indexeddf.Eq(indexeddf.Col("grp"), indexeddf.Col("gid"))), nil
		},
		"join-residual": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			f, err := s.Table("facts")
			if err != nil {
				return nil, err
			}
			d, err := s.Table("dims")
			if err != nil {
				return nil, err
			}
			return f.Join(d, indexeddf.And(
				indexeddf.Eq(indexeddf.Col("grp"), indexeddf.Col("gid")),
				indexeddf.Gt(indexeddf.Col("val"), indexeddf.Lit(float64(1))))), nil
		},
		"join-aggregate": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			// Join feeding an aggregate: the sink-aware pass vectorizes
			// the probe side here.
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
		"join-residual-aggregate": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			f, err := s.Table("facts")
			if err != nil {
				return nil, err
			}
			d, err := s.Table("dims")
			if err != nil {
				return nil, err
			}
			return f.Join(d, indexeddf.And(
				indexeddf.Eq(indexeddf.Col("grp"), indexeddf.Col("gid")),
				indexeddf.Gt(indexeddf.Col("val"), indexeddf.Lit(float64(1))))).
				GroupBy("label").Count(), nil
		},
		"join-left-outer": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			f, err := s.Table("facts")
			if err != nil {
				return nil, err
			}
			d, err := s.Table("dims")
			if err != nil {
				return nil, err
			}
			return f.LeftJoin(d, indexeddf.Eq(indexeddf.Col("grp"), indexeddf.Col("gid"))), nil
		},
		"distinct": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			f, err := s.Table("facts")
			if err != nil {
				return nil, err
			}
			return f.SelectCols("grp", "tag").Distinct()
		},
		"sort-limit": func(s *indexeddf.Session) (*indexeddf.DataFrame, error) {
			f, err := s.Table("facts")
			if err != nil {
				return nil, err
			}
			return f.Filter(indexeddf.Lt(indexeddf.Col("grp"), indexeddf.Lit(int64(5)))).
				OrderBy("id").Limit(100), nil
		},
	}
	// Broadcast threshold 1 forces the shuffle join strategies too.
	for _, broadcast := range []int64{0, 1} {
		for _, indexed := range []bool{false, true} {
			for name, q := range queries {
				label := fmt.Sprintf("%s/indexed=%v/bt=%d", name, indexed, broadcast)
				t.Run(label, func(t *testing.T) {
					rowSess := buildSession(t, indexeddf.Config{BroadcastThreshold: broadcast}, opt.RowEngine, indexed)
					vecSess := buildSession(t, indexeddf.Config{BroadcastThreshold: broadcast}, 0, indexed)
					want := runQuery(t, rowSess, q)
					got := runQuery(t, vecSess, q)
					if len(want) != len(got) {
						t.Fatalf("row engine returned %d rows, vectorized %d", len(want), len(got))
					}
					for i := range want {
						if want[i] != got[i] {
							t.Fatalf("row %d differs:\n row engine: %s\n vectorized: %s", i, want[i], got[i])
						}
					}
				})
			}
		}
	}
}
