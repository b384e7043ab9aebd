package indexeddf

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"indexeddf/internal/plan"
)

// TestCompileAllocs bounds the allocations of the two sides of the plan
// cache for the SNB shapes every short-read workload repeats: an indexed
// point lookup under a projection (IS1) and a point lookup joined to an
// indexed table, projected and sorted (IS3). Each bound is the count
// measured when it was set, plus ~10%.
//
// A miss compiles: analysis, the optimizer's rule batch to its fixpoint,
// and physical planning. Planning cost scales with these counts, and a
// rule that rebuilds an unchanged node, a schema rebuilt on every call or
// statistics recomputed per estimate each shows up as several times the
// bound.
//
// A hit is what every later query pays: lifting, keying and looking the
// plan up, and for an ad-hoc SQL point lookup also the parse and the
// cursor's opening. A walk that allocates per node, or a key built as a
// fresh string, shows up here.
func TestCompileAllocs(t *testing.T) {
	s := NewSession(Config{TablePartitions: 4})
	r := newShortReads(t, s, 1_000, 100)
	is1 := func(id int64) *DataFrame {
		return r.person.Filter(Eq(Col("id"), Lit(id))).SelectCols("firstName", "lastName", "creationDate")
	}
	cases := []struct {
		name  string
		df    *DataFrame
		miss  float64 // compile
		hit   float64 // lift, key and lookup
		other *DataFrame
	}{
		{"IS1", is1(42), 26, 1, is1(43)},
		{"IS3", r.is3(7), 69, 1, r.is3(8)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var sh plan.Shape
			sh.Key(c.df.Plan(), nil)
			lifted := sh.Lift(c.df.Plan())
			if _, err := s.compile(lifted); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := s.compile(lifted); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > c.miss {
				t.Fatalf("compiling %s makes %.0f allocations, want at most %.0f", c.name, allocs, c.miss)
			}
			t.Logf("%s miss: %.0f allocations", c.name, allocs)
		})
		t.Run(c.name+" hit", func(t *testing.T) {
			skipUnderRace(t)
			if _, _, _, err := s.prepare(c.df.Plan(), nil); err != nil {
				t.Fatal(err)
			}
			// Another literal: the same cached plan.
			allocs := testing.AllocsPerRun(50, func() {
				if _, _, hit, err := s.prepare(c.other.Plan(), nil); err != nil || !hit {
					t.Fatalf("hit = %v, err = %v", hit, err)
				}
			})
			if allocs > c.hit {
				t.Fatalf("a plan-cache hit for %s makes %.0f allocations, want at most %.0f", c.name, allocs, c.hit)
			}
			t.Logf("%s hit: %.0f allocations", c.name, allocs)
		})
	}
	t.Run("SQL point lookup", func(t *testing.T) {
		skipUnderRace(t)
		ctx := context.Background()
		query := func(id int) *Rows {
			rows, err := s.Query(ctx, fmt.Sprintf("SELECT firstName, lastName FROM person WHERE id = %d", id))
			if err != nil {
				t.Fatal(err)
			}
			return rows
		}
		query(1).Close()
		texts := make([]string, 50)
		for i := range texts {
			texts[i] = fmt.Sprintf("SELECT firstName, lastName FROM person WHERE id = %d", i+2)
		}
		// Up to the cursor's opening: Close is not counted.
		var before, after runtime.MemStats
		var mallocs uint64
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		for _, q := range texts {
			runtime.ReadMemStats(&before)
			rows, err := s.Query(ctx, q)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			mallocs += after.Mallocs - before.Mallocs
			rows.Close()
		}
		const bound = 63
		allocs := float64(mallocs) / float64(len(texts))
		if allocs > bound {
			t.Fatalf("Session.Query of a point lookup makes %.0f allocations, want at most %d", allocs, bound)
		}
		t.Logf("SQL point lookup: %.0f allocations", allocs)
	})
}

// skipUnderRace skips a count of allocations that relies on a pooled
// buffer (raceEnabled).
func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
}
