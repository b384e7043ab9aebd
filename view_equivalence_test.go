package indexeddf

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"indexeddf/internal/opt"
	"indexeddf/internal/physical"
	"indexeddf/internal/sqlparser"
)

// aggregateWithoutViews compiles and runs a query with the view rewrite
// forced off (same session, same storage): the from-scratch recomputation
// the equivalence tests compare view-answered results against.
func (s *Session) aggregateWithoutViews(query string) ([]Row, error) {
	node, err := sqlparser.Parse(query, s.resolveTable)
	if err != nil {
		return nil, err
	}
	analyzed, err := opt.Analyze(node)
	if err != nil {
		return nil, err
	}
	optimized, err := opt.Optimize(analyzed)
	if err != nil {
		return nil, err
	}
	pl := opt.NewPlanner(opt.PlannerConfig{
		ShufflePartitions:  s.cfg.ShufflePartitions,
		BroadcastThreshold: s.cfg.BroadcastThreshold,
		Ablate:             s.ablate | opt.NoViewRewrite,
	})
	exec, err := pl.Plan(optimized)
	if err != nil {
		return nil, err
	}
	r, err := exec.Execute(physical.NewExecContext(s.ctx))
	if err != nil {
		return nil, err
	}
	return s.ctx.Collect(r)
}

// rowsEquivalent compares row sets with float tolerance (AVG divisions
// accumulate differently in the delta and recompute paths).
func rowsEquivalent(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	sortRows(a)
	sortRows(b)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if x.IsNull() != y.IsNull() {
				return false
			}
			if x.IsNull() {
				continue
			}
			if x.T == Float64 || y.T == Float64 {
				if math.Abs(x.Float64Val()-y.Float64Val()) > 1e-9 {
					return false
				}
				continue
			}
			if fmt.Sprint(x) != fmt.Sprint(y) {
				return false
			}
		}
	}
	return true
}

// otherPartitionKey returns the first of from, from+step, from+2*step, ...
// that routes to another partition than key, so an append holding both
// crosses partitions.
func otherPartitionKey(df *DataFrame, key, from, step int64) int64 {
	tc := df.IndexedCore()
	for tc.PartitionFor(V(from)) == tc.PartitionFor(V(key)) {
		from += step
	}
	return from
}

// TestViewRandomizedEquivalence drives randomized append/overwrite workloads
// and asserts, at every checkpoint, that the view-answered aggregate is
// value-identical to recomputing the same query on the live snapshot.
func TestViewRandomizedEquivalence(t *testing.T) {
	queries := []string{
		"SELECT region, COUNT(*) AS cnt, SUM(amount) AS total, MIN(amount) AS lo, MAX(amount) AS hi, AVG(amount) AS mean FROM sales GROUP BY region",
		"SELECT region, COUNT(amount) AS cnt FROM sales WHERE amount > 50 GROUP BY region",
		"SELECT COUNT(*) AS cnt, SUM(amount) AS total, MIN(amount) AS lo FROM sales",
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s, df := newViewSession(t, 30, 0)
			for i, q := range queries {
				if _, err := s.SQL(fmt.Sprintf("CREATE MATERIALIZED VIEW v%d AS %s", i, q)); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(seed))
			regions := []string{"emea", "amer", "apac", "anz", "latam"}
			live := map[int64]bool{}
			for i := int64(0); i < 30; i++ {
				live[i] = true
			}
			nextID := int64(1000)
			for step := 0; step < 300; step++ {
				switch rng.Intn(5) {
				case 0, 1, 2: // append 1-4 rows (sometimes null amounts)
					var rows []Row
					for i := 0; i < 1+rng.Intn(4); i++ {
						id := nextID
						nextID++
						var amount any
						if rng.Intn(6) == 0 {
							amount = nil
						} else {
							amount = int64(rng.Intn(200))
						}
						rows = append(rows, R(id, regions[rng.Intn(len(regions))], amount))
						live[id] = true
					}
					if _, err := df.AppendRowsSlice(rows); err != nil {
						t.Fatal(err)
					}
				case 3: // overwrite an existing key (multi-version chain)
					for id := range live {
						if _, err := df.AppendRowsSlice([]Row{R(id, regions[rng.Intn(len(regions))], int64(rng.Intn(200)))}); err != nil {
							t.Fatal(err)
						}
						break
					}
				case 4: // one append crossing partitions that overwrites a live key
					for id := range live {
						fresh := otherPartitionKey(df, id, nextID, 1)
						nextID = fresh + 1
						live[fresh] = true
						rows := []Row{
							R(fresh, regions[rng.Intn(len(regions))], int64(rng.Intn(200))),
							R(id, regions[rng.Intn(len(regions))], nil),
						}
						if _, err := df.AppendRowsSlice(rows); err != nil {
							t.Fatal(err)
						}
						break
					}
				}
				if step%25 != 24 {
					continue
				}
				for _, q := range queries {
					got, err := s.MustSQL(q).Collect()
					if err != nil {
						t.Fatal(err)
					}
					want, err := s.aggregateWithoutViews(q)
					if err != nil {
						t.Fatal(err)
					}
					if !rowsEquivalent(got, want) {
						sortRows(got)
						sortRows(want)
						t.Fatalf("step %d: %s\nview-answered: %v\nrecomputed:    %v", step, q, got, want)
					}
				}
			}
		})
	}
}

// TestViewConcurrentAppendersAndRefresh hammers a view with concurrent
// appenders, overwriters and view-answered readers (run under -race), then
// asserts the quiescent state equals a from-scratch recomputation.
func TestViewConcurrentAppendersAndRefresh(t *testing.T) {
	const q = "SELECT region, COUNT(*) AS cnt, SUM(amount) AS total FROM sales GROUP BY region"
	s, df := newViewSession(t, 10, 0)
	if _, err := s.SQL("CREATE MATERIALIZED VIEW v AS " + q); err != nil {
		t.Fatal(err)
	}

	const (
		appenders = 4
		perWorker = 200
	)
	var wg sync.WaitGroup
	errs := make(chan error, appenders+2)
	for w := 0; w < appenders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			regions := []string{"emea", "amer", "apac"}
			for i := 0; i < perWorker; i++ {
				id := int64(1000 + w*perWorker + i)
				if _, err := df.AppendRowsSlice([]Row{R(id, regions[i%3], int64(i))}); err != nil {
					errs <- err
					return
				}
				if i%17 == 0 {
					// One append crossing partitions that overwrites id.
					rows := []Row{
						R(otherPartitionKey(df, id, id+10000, 10000), regions[i%3], int64(i)),
						R(id, regions[(i+1)%3], int64(-i)),
					}
					if _, err := df.AppendRowsSlice(rows); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	// Readers keep forcing delta refreshes mid-write.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := s.MustSQL(q).Collect(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	got, err := s.MustSQL(q).Collect()
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.aggregateWithoutViews(q)
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEquivalent(got, want) {
		sortRows(got)
		sortRows(want)
		t.Fatalf("quiescent view state diverged\nview-answered: %v\nrecomputed:    %v", got, want)
	}
	v, _ := s.MaterializedView("v")
	if v.RefreshedVersion() == 0 {
		t.Fatal("view never refreshed")
	}
}
