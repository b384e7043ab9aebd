// Ablation benchmarks. BenchmarkAblation flips one engine knob at a time
// over one generated table, in sub-benchmarks named <knob>/<setting>, and
// fails when a setting's answer differs from its knob's first setting's.
// The BenchmarkAblation* families after it probe the storage design
// choices docs/ARCHITECTURE.md describes: broadcast vs shuffle probe sides
// in the indexed join, row-batch size, and the Ctrie against a locked-map
// index (including snapshot cost).
package indexeddf_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"indexeddf"
	"indexeddf/internal/core"
	"indexeddf/internal/ctrie"
	"indexeddf/internal/rowbatch"
	"indexeddf/internal/snb"
	"indexeddf/internal/sqltypes"
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
)

var vectorizedQueries = []string{
	"SELECT k % 64 AS bucket, COUNT(*), SUM(v), MAX(v) FROM t WHERE b > 500 GROUP BY k % 64",
	"SELECT k, COUNT(*), SUM(v), AVG(v) FROM t GROUP BY k",
	sortQuery,
	sortQuery + " LIMIT 100",
}

// ablations is the table BenchmarkAblation runs, in order. A row with
// ingest set times appending the table in 1k-row batches to a fresh
// indexed table and then checks its queries' answers; every other row
// times its queries over a cached table. A SpillDir names a directory
// under the benchmark's temporary directory.
var ablations = []struct {
	knob, setting string
	cfg           indexeddf.Config
	ingest        bool
	queries       []string
}{
	{"vectorized", "on", indexeddf.Config{}, false, vectorizedQueries},
	{"vectorized", "off", indexeddf.Config{DisableVectorized: true}, false, vectorizedQueries},
	{"adaptive-filter", "static", indexeddf.Config{DisableStats: true, DisableAdaptiveFilter: true}, false, []string{misOrdered}},
	{"adaptive-filter", "adaptive", indexeddf.Config{DisableStats: true}, false, []string{misOrdered}},
	{"adaptive-filter", "hand", indexeddf.Config{DisableStats: true}, false, []string{handOrdered}},
	{"stats-ingest", "on", indexeddf.Config{}, true, []string{"SELECT * FROM t"}},
	{"stats-ingest", "off", indexeddf.Config{DisableStats: true}, true, []string{"SELECT * FROM t"}},
	// Budgets far above the working set: accounting runs, nothing spills.
	{"budget", "off", indexeddf.Config{}, false, []string{topGroupsQuery}},
	{"budget", "on", indexeddf.Config{MemoryLimit: 4 << 30, QueryMemoryLimit: 2 << 30}, false, []string{topGroupsQuery}},
	// The sort spills ~10 MB of runs under its 1 MB budget: about ten
	// times over.
	{"sort-partitions", "1", indexeddf.Config{QueryMemoryLimit: 1 << 20, SpillDir: "spill", SortPartitions: 1}, false, []string{sortQuery}},
	{"sort-partitions", "default", indexeddf.Config{QueryMemoryLimit: 1 << 20, SpillDir: "spill"}, false, []string{sortQuery}},
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
				sess := indexeddf.NewSession(cfg)
				if !a.ingest {
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
				b.StartTimer()
				for off := 0; off < len(data); off += 1000 {
					if _, err := df.AppendRowsSlice(data[off:min(off+1000, len(data))]); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
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
			if !a.ingest {
				b.StartTimer()
			}
			for i := 0; i < b.N; i++ {
				if a.ingest {
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

// BenchmarkAblationIndexedJoinProbeStrategy compares the paper's two probe
// strategies for the indexed join: shuffling the probe side to the index
// partitioning vs broadcasting it (§2 "Scheduling Physical Operators").
// The broadcast threshold flips the planner's choice.
func BenchmarkAblationIndexedJoinProbeStrategy(b *testing.B) {
	d := snb.Generate(snb.Config{ScaleFactor: benchSF, Seed: 21})
	run := func(b *testing.B, threshold int64) {
		sess := indexeddf.NewSession(indexeddf.Config{BroadcastThreshold: threshold})
		g, err := snb.Load(sess, d, true)
		if err != nil {
			b.Fatal(err)
		}
		join := g.KnowsByP1.Join(g.PersonByID,
			indexeddf.Eq(indexeddf.Col("person1Id"), indexeddf.Col("person.id")))
		if _, err := join.Collect(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := join.Collect(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("shuffle", func(b *testing.B) { run(b, 1) })
	b.Run("broadcast", func(b *testing.B) { run(b, 1_000_000) })
}

// BenchmarkAblationRowBatchSize sweeps the row-batch size (the paper's
// configurable 4 MB default) over append+lookup workloads.
func BenchmarkAblationRowBatchSize(b *testing.B) {
	for _, size := range []int{64 << 10, 1 << 20, rowbatch.DefaultBatchSize} {
		size := size
		b.Run(fmt.Sprintf("%dKiB", size/1024), func(b *testing.B) {
			schema := snb.KnowsSchema()
			t, err := core.NewIndexedTable(schema, 0, core.Options{NumPartitions: 4, BatchSize: size})
			if err != nil {
				b.Fatal(err)
			}
			rows := make([]sqltypes.Row, 1000)
			for i := range rows {
				rows[i] = sqltypes.Row{
					sqltypes.NewInt64(int64(i % 100)),
					sqltypes.NewInt64(int64(i)),
					sqltypes.NewTimestamp(int64(i)),
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := t.Append(rows); err != nil {
					b.Fatal(err)
				}
				snap := t.Snapshot()
				if _, err := snap.GetRows(sqltypes.NewInt64(int64(i % 100))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCtrieVsLockedMap motivates the Ctrie: point updates and
// snapshot cost against an RWMutex-guarded map whose snapshot must copy.
func BenchmarkAblationCtrieVsLockedMap(b *testing.B) {
	const keys = 100_000
	hasher := func(k uint64) uint64 {
		z := k + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	b.Run("ctrie/insert", func(b *testing.B) {
		c := ctrie.New[uint64, uint64](hasher)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Insert(uint64(i%keys), uint64(i))
		}
	})
	b.Run("lockedmap/insert", func(b *testing.B) {
		m := map[uint64]uint64{}
		var mu sync.RWMutex
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mu.Lock()
			m[uint64(i%keys)] = uint64(i)
			mu.Unlock()
		}
	})
	b.Run("ctrie/snapshot", func(b *testing.B) {
		c := ctrie.New[uint64, uint64](hasher)
		for i := uint64(0); i < keys; i++ {
			c.Insert(i, i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			snap := c.ReadOnlySnapshot()
			if _, ok := snap.Lookup(uint64(i % keys)); !ok {
				b.Fatal("missing key")
			}
		}
	})
	b.Run("lockedmap/snapshot", func(b *testing.B) {
		m := map[uint64]uint64{}
		var mu sync.RWMutex
		for i := uint64(0); i < keys; i++ {
			m[i] = i
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A consistent snapshot of a mutable map requires a copy.
			mu.RLock()
			snap := make(map[uint64]uint64, len(m))
			for k, v := range m {
				snap[k] = v
			}
			mu.RUnlock()
			if _, ok := snap[uint64(i%keys)]; !ok {
				b.Fatal("missing key")
			}
		}
	})
}

// BenchmarkAblationLookupVsScanCrossover sweeps chain length: index lookup
// cost grows with rows-per-key while the scan stays flat, locating the
// regime where the index wins.
func BenchmarkAblationLookupVsScanCrossover(b *testing.B) {
	const totalRows = 50_000
	for _, rowsPerKey := range []int{1, 10, 100, 1000} {
		rowsPerKey := rowsPerKey
		b.Run(fmt.Sprintf("chain%d", rowsPerKey), func(b *testing.B) {
			schema := snb.KnowsSchema()
			t, err := core.NewIndexedTable(schema, 0, core.Options{NumPartitions: 4})
			if err != nil {
				b.Fatal(err)
			}
			nKeys := totalRows / rowsPerKey
			rows := make([]sqltypes.Row, 0, totalRows)
			for i := 0; i < totalRows; i++ {
				rows = append(rows, sqltypes.Row{
					sqltypes.NewInt64(int64(i % nKeys)),
					sqltypes.NewInt64(int64(i)),
					sqltypes.NewTimestamp(int64(i)),
				})
			}
			if err := t.Append(rows); err != nil {
				b.Fatal(err)
			}
			snap := t.Snapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				err := snap.LookupEach(sqltypes.NewInt64(int64(i%nKeys)), func(sqltypes.Row) bool {
					n++
					return true
				})
				if err != nil || n != rowsPerKey {
					b.Fatalf("chain walk = %d rows, %v", n, err)
				}
			}
		})
	}
}

// BenchmarkAblationUpdateRateVsQueryLatency measures SQ3 latency as the
// concurrent append batch size grows (Figure 2/3 are static; this probes
// the "data moving all the time" regime).
func BenchmarkAblationUpdateRateVsQueryLatency(b *testing.B) {
	for _, batchSize := range []int{0, 10, 100} {
		batchSize := batchSize
		b.Run(fmt.Sprintf("batch%d", batchSize), func(b *testing.B) {
			d := snb.Generate(snb.Config{ScaleFactor: 0.3, Seed: 31})
			sess := indexeddf.NewSession(indexeddf.Config{})
			g, err := snb.Load(sess, d, true)
			if err != nil {
				b.Fatal(err)
			}
			us := snb.NewUpdateStream(d, 7)
			personID := d.Persons[3][0].Int64Val()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if batchSize > 0 {
					if err := snb.Apply(g, us.Batch(batchSize)); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := snb.IS3(g, personID); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnvironmentBuild measures index construction (CreateIndex) —
// the shuffle+build cost the paper amortizes across queries.
func BenchmarkEnvironmentBuild(b *testing.B) {
	d := snb.Generate(snb.Config{ScaleFactor: 0.3, Seed: 41})
	b.Run("CreateIndex/knows", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sess := indexeddf.NewSession(indexeddf.Config{})
			knows, err := sess.CreateTable("knows", snb.KnowsSchema(), d.Knows)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := knows.CreateIndexOn("person1Id"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ColumnarCache/knows", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sess := indexeddf.NewSession(indexeddf.Config{})
			knows, err := sess.CreateTable("knows", snb.KnowsSchema(), d.Knows)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := knows.Cache(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationProjectionRowWidth explains Figure 2's projection result:
// single-column projection over the narrow knows table (3 small columns)
// vs the wide person table (9 columns with strings). The columnar cache
// touches only the projected vector; the row store must walk whole records,
// so its disadvantage grows with row width.
func BenchmarkAblationProjectionRowWidth(b *testing.B) {
	d := snb.Generate(snb.Config{ScaleFactor: 1, Seed: 51})
	sessV := indexeddf.NewSession(indexeddf.Config{})
	vanilla, err := snb.Load(sessV, d, false)
	if err != nil {
		b.Fatal(err)
	}
	sessI := indexeddf.NewSession(indexeddf.Config{})
	indexed, err := snb.Load(sessI, d, true)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name           string
		vanillaF, idxF *indexeddf.DataFrame
		col            string
	}{
		{"narrow-knows", vanilla.Knows, indexed.KnowsByP1, "person2Id"},
		{"wide-person", vanilla.Person, indexed.PersonByID, "cityId"},
	}
	for _, c := range cases {
		c := c
		run := func(b *testing.B, df *indexeddf.DataFrame) {
			q := df.SelectCols(c.col)
			if _, err := q.Collect(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.Collect(); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(c.name+"/IndexedDF", func(b *testing.B) { run(b, c.idxF) })
		b.Run(c.name+"/Spark", func(b *testing.B) { run(b, c.vanillaF) })
	}
}
