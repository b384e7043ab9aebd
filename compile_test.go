package indexeddf

import (
	"testing"

	"indexeddf/internal/sqltypes"
)

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
	person, err := s.CreateIndexedTable("person", NewSchema(
		Field{Name: "id", Type: Int64}, Field{Name: "firstName", Type: String},
		Field{Name: "lastName", Type: String}, Field{Name: "creationDate", Type: Timestamp}), 0)
	if err != nil {
		t.Fatal(err)
	}
	knows, err := s.CreateIndexedTable("knows", NewSchema(
		Field{Name: "person1Id", Type: Int64}, Field{Name: "person2Id", Type: Int64},
		Field{Name: "creationDate", Type: Timestamp}), 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1_000
	var personRows, knowsRows []Row
	for i := 0; i < n; i++ {
		personRows = append(personRows, R(int64(i), "first", "last", V(sqltypes.NewTimestamp(int64(i)*1e6))))
		knowsRows = append(knowsRows, R(int64(i%100), int64(i), V(sqltypes.NewTimestamp(int64(i)*1e6))))
	}
	if _, err := person.AppendRowsSlice(personRows); err != nil {
		t.Fatal(err)
	}
	if _, err := knows.AppendRowsSlice(knowsRows); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		df    *DataFrame
		bound float64
	}{
		{"IS1", person.Filter(Eq(Col("id"), Lit(int64(42)))).
			SelectCols("firstName", "lastName", "creationDate"), 100},
		{"IS3", knows.Filter(Eq(Col("person1Id"), Lit(int64(7)))).
			Join(person, Eq(Col("person2Id"), Col("person.id"))).
			SelectCols("person2Id", "firstName", "lastName", "knows.creationDate").
			OrderBy("-creationDate", "person2Id"), 200},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := s.compile(c.df.Plan()); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := s.compile(c.df.Plan()); err != nil {
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
