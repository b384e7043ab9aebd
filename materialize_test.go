package indexeddf

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"indexeddf/internal/memory"
	"indexeddf/internal/sqltypes"
)

// wideIndexedTable builds an n-row table of ten columns — id, name and
// eight integers — indexed on id. Every 5000th row is named "Target".
func wideIndexedTable(t *testing.T, s *Session, n int) *DataFrame {
	t.Helper()
	fields := []Field{{Name: "id", Type: Int64}, {Name: "name", Type: String}}
	for c := 0; c < 8; c++ {
		fields = append(fields, Field{Name: fmt.Sprintf("c%d", c), Type: Int64})
	}
	rows := make([]Row, n)
	for i := range rows {
		name := fmt.Sprintf("n%d", i)
		if i%5000 == 0 {
			name = "Target"
		}
		r := R(int64(i), name)
		for c := 0; c < 8; c++ {
			r = append(r, V(int64(i*c)))
		}
		rows[i] = r
	}
	df, err := s.CreateIndexedTable("wide", NewSchema(fields...), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.AppendRowsSlice(rows); err != nil {
		t.Fatal(err)
	}
	return df
}

// TestSelectiveRowFilterDoesNotPinSlabs keeps the result of a row filter
// that passes 20 of 100k scanned rows. Scan rows live in shared slabs of up
// to 1024 rows, so the filter must re-pack what it keeps: holding the
// result may cost a small slab, never the scan slabs the kept rows came
// from. (Twenty rows, not ten: ten pinned 1024-row slabs would themselves
// be about a tenth of the table, too close to the bound to tell apart.)
func TestSelectiveRowFilterDoesNotPinSlabs(t *testing.T) {
	const n, cols = 100_000, 10
	s := NewSession(Config{TablePartitions: 4, ShufflePartitions: 4})
	q := wideIndexedTable(t, s, n).Filter(Eq(Fn("LOWER", Col("name")), Lit("target")))
	plan, err := q.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if physical := plan[strings.Index(plan, "== Physical Plan =="):]; !strings.Contains(physical, "\nFilter") ||
		!strings.Contains(physical, "IndexedScan") || strings.Contains(physical, "Vec") {
		t.Fatalf("want a row Filter over a row IndexedScan:\n%s", physical)
	}
	// A first run settles what the session keeps across queries.
	if _, err := q.Collect(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rows, err := q.Collect()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if len(rows) != n/5000 {
		t.Fatalf("filter kept %d rows, want %d", len(rows), n/5000)
	}
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	pinned := int64(n * cols * 40) // every scan slab held: rows x columns x sizeof(Value)
	if growth > pinned/10 {
		t.Fatalf("holding %d filtered rows grew the live heap by %d bytes, over a tenth of the %d bytes fully pinned slabs hold",
			len(rows), growth, pinned)
	}
	runtime.KeepAlive(rows)
	runtime.KeepAlive(q) // the table stays live across both heap readings
}

// TestQueryResultBufferContract holds the materialized partitions handed to
// the cursor to the drain's contract: they are charged to the query's
// budget as "result buffer" and counted as the scan's output rows.
func TestQueryResultBufferContract(t *testing.T) {
	const n = 20_000
	s := NewSession(Config{TablePartitions: 4, ShufflePartitions: 4, QueryMemoryLimit: 64 << 10})
	idx := wideIndexedTable(t, s, n)
	_, err := idx.Collect()
	var le *memory.LimitError
	if !errors.As(err, &le) || le.Operator != "result buffer" {
		t.Fatalf("over-budget scan: err = %v, want a result buffer limit error", err)
	}

	s = NewSession(Config{TablePartitions: 4, ShufflePartitions: 4})
	rows, err := wideIndexedTable(t, s, n).Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for rows.Next() {
		got++
	}
	if err := rows.Close(); err != nil || got != n {
		t.Fatalf("scanned %d rows (err %v), want %d", got, err, n)
	}
	var scanned int64 = -1
	for _, op := range rows.Stats().Ops() {
		if op.Label == "IndexedScan" {
			scanned = op.RowsOut()
		}
	}
	if scanned != n {
		t.Fatalf("IndexedScan rows out = %d, want %d", scanned, n)
	}
}

// TestAllocsPerOutputRow guards the row materialization's cost: a scan, a
// one-column projection and an indexed join over integer and timestamp
// columns make their rows in slabs, hand them to the cursor uncopied, and
// so allocate well under one object per output row. (Decoding a string
// allocates per value, so string columns are left out.)
func TestAllocsPerOutputRow(t *testing.T) {
	const n, keys = 20_000, 2_000
	s := NewSession(Config{TablePartitions: 4, ShufflePartitions: 4})
	facts, err := s.CreateIndexedTable("facts", NewSchema(
		Field{Name: "id", Type: Int64}, Field{Name: "k", Type: Int64}, Field{Name: "ts", Type: Timestamp}), 1)
	if err != nil {
		t.Fatal(err)
	}
	dims, err := s.CreateIndexedTable("dims", NewSchema(
		Field{Name: "dk", Type: Int64}, Field{Name: "since", Type: Timestamp}), 0)
	if err != nil {
		t.Fatal(err)
	}
	var factRows, dimRows []Row
	for i := 0; i < n; i++ {
		factRows = append(factRows, R(int64(i), int64(i%keys), V(sqltypes.NewTimestamp(int64(i)*1e6))))
	}
	for i := 0; i < keys; i++ {
		dimRows = append(dimRows, R(int64(i), V(sqltypes.NewTimestamp(int64(i)*1e6))))
	}
	if _, err := facts.AppendRowsSlice(factRows); err != nil {
		t.Fatal(err)
	}
	if _, err := dims.AppendRowsSlice(dimRows); err != nil {
		t.Fatal(err)
	}
	queries := []struct {
		name, op string
		df       *DataFrame
	}{
		{"scan", "IndexedScan", facts},
		{"projection", "IndexedScan", facts.SelectCols("ts")},
		{"indexed join", "IndexedJoin", facts.Join(dims, Eq(Col("k"), Col("dk")))},
	}
	for _, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			plan, err := q.df.Explain()
			if err != nil {
				t.Fatal(err)
			}
			if physical := plan[strings.Index(plan, "== Physical Plan =="):]; !strings.Contains(physical, "\n"+q.op) {
				t.Fatalf("want a row %s at the plan root:\n%s", q.op, physical)
			}
			var rows int
			allocs := testing.AllocsPerRun(5, func() {
				out, err := q.df.Collect()
				if err != nil {
					t.Fatal(err)
				}
				rows = len(out)
			})
			if rows != n {
				t.Fatalf("%d rows, want %d", rows, n)
			}
			if perRow := allocs / float64(rows); perRow > 0.1 {
				t.Fatalf("%.0f allocations for %d rows: %.3f per row, want at most 0.1", allocs, rows, perRow)
			}
		})
	}
}
