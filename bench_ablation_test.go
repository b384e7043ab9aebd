// Ablation benchmarks. BenchmarkAblation flips one engine knob at a time
// over one generated table, in sub-benchmarks named <knob>/<setting>, and
// fails when a setting's answer differs from its knob's first setting's.
package indexeddf_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"indexeddf"
	"indexeddf/internal/opt"
)

const ablationRowCount = 200_000

var ablationSchema = indexeddf.NewSchema(
	indexeddf.Field{Name: "k", Type: indexeddf.Int64},
	indexeddf.Field{Name: "v", Type: indexeddf.Int64},
	indexeddf.Field{Name: "a", Type: indexeddf.Int64},
	indexeddf.Field{Name: "b", Type: indexeddf.Int64},
	indexeddf.Field{Name: "c", Type: indexeddf.Int64},
	indexeddf.Field{Name: "s", Type: indexeddf.String},
)

// ablationRows generates the one table every BenchmarkAblation row runs on:
// k has 20k groups of 10 rows, v is a permutation of the row numbers (so
// ORDER BY v is a total order and v is a unique index key), a, b and c are
// uniform in [0, 1000), and s is one of 16 tags.
func ablationRows() []indexeddf.Row {
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(ablationRowCount)
	rows := make([]indexeddf.Row, ablationRowCount)
	for i := range rows {
		rows[i] = indexeddf.R(int64(i%(ablationRowCount/10)), int64(perm[i]),
			int64(rng.Intn(1000)), int64(rng.Intn(1000)), int64(rng.Intn(1000)), fmt.Sprintf("tag-%d", i%16))
	}
	return rows
}

const (
	// The conjuncts' selectivities are ~1.0 (the string test), 0.9, 0.5 and
	// 0.001: misOrdered is the worst order, handOrdered the best.
	misOrdered  = "SELECT a, c FROM t WHERE s <> 'none' AND a < 900 AND b < 500 AND c = 7"
	handOrdered = "SELECT a, c FROM t WHERE c = 7 AND b < 500 AND a < 900 AND s <> 'none'"
	sortQuery   = "SELECT k, v, s FROM t ORDER BY v"
	// The group-by-then-top-n pipeline charges the tracker in every
	// operator: scan, hash aggregate, exchange and top-n.
	topGroupsQuery = "SELECT k, COUNT(*) AS cnt, SUM(v) AS total FROM t GROUP BY k ORDER BY total DESC, k LIMIT 100"
	// Every row of t probes t's index on v: the indexed join.
	probeJoin = "SELECT x.k, y.s FROM t x JOIN t y ON x.k = y.v"
	// One key's chain probes t's index on v: a point plan.
	pointJoin = probeJoin + " WHERE x.v = 4242"
)

// batchSizeQueries decode every row batch, then one key's chain.
var batchSizeQueries = []string{"SELECT * FROM t", "SELECT k, s FROM t WHERE v = 4242"}

var vectorizedQueries = []string{
	"SELECT k % 64 AS bucket, COUNT(*), SUM(v), MAX(v) FROM t WHERE b > 500 GROUP BY k % 64",
	"SELECT k, COUNT(*), SUM(v), AVG(v) FROM t GROUP BY k",
	sortQuery,
	sortQuery + " LIMIT 100",
}

// ablationLoad is how a BenchmarkAblation row builds t.
type ablationLoad int

const (
	// cached creates t as a table and caches it columnar.
	cached ablationLoad = iota
	// indexed appends t in 1k-row batches to an indexed table keyed on v.
	indexed
	// ingest is indexed with the appends as the timed work.
	ingest
)

// ablations is the table BenchmarkAblation runs, in order. An ingest row
// times building its table and then checks its queries' answers; every
// other row times its queries. A SpillDir names a directory under the
// benchmark's temporary directory.
var ablations = []struct {
	knob, setting string
	cfg           indexeddf.Config
	ablate        opt.Ablation
	load          ablationLoad
	queries       []string
}{
	{"vectorized", "on", indexeddf.Config{}, 0, cached, vectorizedQueries},
	{"vectorized", "off", indexeddf.Config{}, opt.RowEngine, cached, vectorizedQueries},
	{"adaptive-filter", "static", indexeddf.Config{}, opt.NoStats | opt.StaticFilter, cached, []string{misOrdered}},
	{"adaptive-filter", "adaptive", indexeddf.Config{}, opt.NoStats, cached, []string{misOrdered}},
	{"adaptive-filter", "hand", indexeddf.Config{}, opt.NoStats, cached, []string{handOrdered}},
	{"stats-ingest", "on", indexeddf.Config{}, 0, ingest, []string{"SELECT * FROM t"}},
	{"stats-ingest", "off", indexeddf.Config{}, opt.NoStats, ingest, []string{"SELECT * FROM t"}},
	// The row-batch size of the indexed row store (4 MiB is the paper's).
	{"batch-size", "64KiB", indexeddf.Config{IndexBatchSize: 64 << 10}, 0, ingest, batchSizeQueries},
	{"batch-size", "1MiB", indexeddf.Config{IndexBatchSize: 1 << 20}, 0, ingest, batchSizeQueries},
	{"batch-size", "4MiB", indexeddf.Config{IndexBatchSize: 4 << 20}, 0, ingest, batchSizeQueries},
	// The indexed join's probe side shuffles to the index partitioning,
	// or is broadcast to every index partition.
	{"join-probe", "shuffle", indexeddf.Config{BroadcastThreshold: 1}, 0, indexed, []string{probeJoin}},
	{"join-probe", "broadcast", indexeddf.Config{BroadcastThreshold: 1_000_000}, 0, indexed, []string{probeJoin}},
	// A point plan runs its tasks on the task pool, or one after another
	// on the caller's goroutine.
	{"point-inline", "pool", indexeddf.Config{}, opt.NoInline, indexed, []string{pointJoin}},
	{"point-inline", "inline", indexeddf.Config{}, 0, indexed, []string{pointJoin}},
	// Budgets far above the working set: accounting runs, nothing spills.
	{"budget", "off", indexeddf.Config{}, 0, cached, []string{topGroupsQuery}},
	{"budget", "on", indexeddf.Config{MemoryLimit: 4 << 30, QueryMemoryLimit: 2 << 30}, 0, cached, []string{topGroupsQuery}},
	// The sort spills ~10 MB of runs under its 1 MB budget: about ten
	// times over.
	{"sort-partitions", "1", indexeddf.Config{QueryMemoryLimit: 1 << 20, SpillDir: "spill"}, opt.SingleMerge, cached, []string{sortQuery}},
	{"sort-partitions", "default", indexeddf.Config{QueryMemoryLimit: 1 << 20, SpillDir: "spill"}, 0, cached, []string{sortQuery}},
}

// BenchmarkAblation measures each engine knob against its own ablation on
// identical data and queries: run
//
//	go test -run '^$' -bench '^BenchmarkAblation$' -benchmem .
func BenchmarkAblation(b *testing.B) {
	data := ablationRows()
	first := map[string][]ablationAnswer{}
	for _, a := range ablations {
		b.Run(a.knob+"/"+a.setting, func(b *testing.B) {
			cfg := a.cfg
			if cfg.SpillDir != "" {
				cfg.SpillDir = filepath.Join(b.TempDir(), cfg.SpillDir)
			}
			load := func() *indexeddf.Session {
				sess := indexeddf.NewAblatedSession(cfg, a.ablate)
				if a.load == cached {
					df, err := sess.CreateTable("t", ablationSchema, data)
					if err == nil {
						_, err = df.Cache()
					}
					if err != nil {
						b.Fatal(err)
					}
					return sess
				}
				df, err := sess.CreateIndexedTable("t", ablationSchema, 1)
				if err != nil {
					b.Fatal(err)
				}
				if a.load == ingest {
					b.StartTimer()
				}
				for off := 0; off < len(data); off += 1000 {
					if _, err := df.AppendRowsSlice(data[off:min(off+1000, len(data))]); err != nil {
						b.Fatal(err)
					}
				}
				if a.load == ingest {
					b.StopTimer()
				}
				return sess
			}
			b.StopTimer()
			sess := load()
			defer sess.Close()
			got := make([]ablationAnswer, len(a.queries))
			for i, q := range a.queries {
				got[i] = runAblationQuery(b, sess, q, true)
			}
			if want, ok := first[a.knob]; !ok {
				first[a.knob] = got
			} else {
				for i := range want {
					if got[i] != want[i] {
						b.Fatalf("%s: %q answers %+v, the first setting %+v", a.setting, a.queries[i], got[i], want[i])
					}
				}
			}
			if cfg.SpillDir != "" {
				if runs, _ := sess.Metrics().Value("indexeddf_spill_runs_total"); runs == 0 {
					b.Fatal("nothing spilled: the budget is too generous")
				}
			}
			b.ResetTimer()
			if a.load != ingest {
				b.StartTimer()
			}
			for i := 0; i < b.N; i++ {
				if a.load == ingest {
					load() // times only the appends
					continue
				}
				for j, q := range a.queries {
					if n := runAblationQuery(b, sess, q, false).rows; n != got[j].rows {
						b.Fatalf("%q returned %d rows, then %d", q, got[j].rows, n)
					}
				}
			}
		})
	}
}

// ablationAnswer is one query's answer: its row count and a digest of its
// rows, order-sensitive when the query has an ORDER BY and a multiset
// digest (a sum of row hashes) otherwise.
type ablationAnswer struct {
	rows   int
	digest uint64
}

// runAblationQuery drains q through a cursor; digest also hashes every row.
func runAblationQuery(b *testing.B, sess *indexeddf.Session, q string, digest bool) ablationAnswer {
	rows, err := sess.Query(context.Background(), q)
	if err != nil {
		b.Fatalf("%s: %v", q, err)
	}
	defer rows.Close()
	ordered := strings.Contains(q, "ORDER BY")
	var ans ablationAnswer
	for rows.Next() {
		ans.rows++
		if !digest {
			continue
		}
		h := fnv.New64a()
		h.Write([]byte(rows.Row().String()))
		if ordered {
			ans.digest = ans.digest*1_000_003 + h.Sum64()
		} else {
			ans.digest += h.Sum64()
		}
	}
	if err := rows.Err(); err != nil {
		b.Fatalf("%s: %v", q, err)
	}
	return ans
}
