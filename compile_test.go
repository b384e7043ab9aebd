package indexeddf

import "testing"

// TestCompileAllocs bounds the allocations of planning one short read —
// analysis, the optimizer's rule batch to its fixpoint, and physical
// planning — for the two SNB shapes every short-read workload repeats: an
// indexed point lookup under a projection (IS1) and a point lookup joined
// to an indexed table, projected and sorted (IS3). Planning cost scales
// with these counts, and a rule that rebuilds an unchanged node, a schema
// rebuilt on every call or statistics recomputed per estimate each shows
// up here as several times the bound.
func TestCompileAllocs(t *testing.T) {
	s := NewSession(Config{TablePartitions: 4})
	r := newShortReads(t, s, 1_000, 100)
	cases := []struct {
		name  string
		df    *DataFrame
		bound float64
	}{
		{"IS1", r.person.Filter(Eq(Col("id"), Lit(int64(42)))).
			SelectCols("firstName", "lastName", "creationDate"), 100},
		{"IS3", r.is3(7), 200},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := s.compile(c.df.Plan()); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, _, err := s.compile(c.df.Plan()); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > c.bound {
				t.Fatalf("compiling %s makes %.0f allocations, want at most %.0f", c.name, allocs, c.bound)
			}
			t.Logf("%s: %.0f allocations", c.name, allocs)
		})
	}
}
