// Benchmarks for the paper's append and MVCC claims (docs/ARCHITECTURE.md
// maps the layers they cross):
//
//	BenchmarkAppend* — §2 fine-grained vs batched appends
//	BenchmarkSnapshotQueriesUnderAppends — §2 MVCC claim
//
// Figures 2 and 3 and the memory overhead are measured end to end by
// `bash benchmark/run.sh` (benchmark/README.md); the engine ablations are
// BenchmarkAblation in bench_ablation_test.go.
package indexeddf_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"indexeddf"
	"indexeddf/internal/snb"
)

// benchSF keeps `go test -bench` runs fast.
const benchSF = 0.5

func appendTable(b *testing.B) *indexeddf.DataFrame {
	b.Helper()
	sess := indexeddf.NewSession(indexeddf.Config{})
	df, err := sess.CreateIndexedTable("events", snb.KnowsSchema(), 0)
	if err != nil {
		b.Fatal(err)
	}
	return df
}

// BenchmarkAppendFineGrained measures single-row (low-latency) appends.
func BenchmarkAppendFineGrained(b *testing.B) {
	df := appendTable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := indexeddf.R(int64(i%1000), int64(i), int64(i))
		if _, err := df.AppendRowsSlice([]indexeddf.Row{row}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendBatch measures 1000-row batched appends (per-row cost).
func BenchmarkAppendBatch(b *testing.B) {
	df := appendTable(b)
	batch := make([]indexeddf.Row, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			k := i*len(batch) + j
			batch[j] = indexeddf.R(int64(k%1000), int64(k), int64(k))
		}
		if _, err := df.AppendRowsSlice(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendVisibility compares "append one row then query it":
// the Indexed DataFrame stays cached, vanilla must re-materialize its
// columnar cache — the paper's motivating asymmetry.
func BenchmarkAppendVisibility(b *testing.B) {
	d := snb.Generate(snb.Config{ScaleFactor: benchSF, Seed: 3})
	mk := func(indexed bool) *snb.Graph {
		sess := indexeddf.NewSession(indexeddf.Config{})
		g, err := snb.Load(sess, d, indexed)
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	run := func(b *testing.B, g *snb.Graph) {
		us := snb.NewUpdateStream(d, 9)
		frame := func() *indexeddf.DataFrame {
			if g.Indexed {
				return g.KnowsByP1
			}
			return g.Knows
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var u snb.Update
			for {
				u = us.Next()
				if u.Kind == snb.AddKnows {
					break
				}
			}
			if err := snb.Apply(g, []snb.Update{u}); err != nil {
				b.Fatal(err)
			}
			key := u.Row[0]
			rows, err := frame().Filter(indexeddf.Eq(indexeddf.Col("person1Id"), indexeddf.Lit(key))).Collect()
			if err != nil || len(rows) == 0 {
				b.Fatalf("appended row not visible: %v %v", rows, err)
			}
		}
	}
	b.Run("IndexedDF", func(b *testing.B) { run(b, mk(true)) })
	b.Run("Spark", func(b *testing.B) { run(b, mk(false)) })
}

// BenchmarkSnapshotQueriesUnderAppends measures SQ3 latency while a
// background writer continuously appends — the §2 MVCC claim.
func BenchmarkSnapshotQueriesUnderAppends(b *testing.B) {
	d := snb.Generate(snb.Config{ScaleFactor: benchSF, Seed: 5})
	sess := indexeddf.NewSession(indexeddf.Config{})
	g, err := snb.Load(sess, d, true)
	if err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	var appended atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		us := snb.NewUpdateStream(d, 11)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := snb.Apply(g, []snb.Update{us.Next()}); err != nil {
				return
			}
			appended.Add(1)
		}
	}()
	personID := d.Persons[1][0].Int64Val()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snb.IS3(g, personID); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	b.ReportMetric(float64(appended.Load())/float64(b.N), "appends/query")
}
