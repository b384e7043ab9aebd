package stats

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"indexeddf/internal/sqltypes"
)

func TestHLLEstimate(t *testing.T) {
	for _, n := range []int{10, 100, 1000, 50000, 500000} {
		var h HLL
		for i := 0; i < n; i++ {
			h.Add(sqltypes.NewInt64(int64(i)).Hash64())
		}
		got := h.Estimate()
		relErr := math.Abs(float64(got)-float64(n)) / float64(n)
		// 1024 registers → ~3.25% std error; allow 5 sigma.
		if relErr > 0.17 {
			t.Errorf("n=%d: estimate %d, rel err %.1f%%", n, got, relErr*100)
		}
	}
}

func TestHLLDuplicatesDontInflate(t *testing.T) {
	var h HLL
	for rep := 0; rep < 10; rep++ {
		for i := 0; i < 100; i++ {
			h.Add(sqltypes.NewString(fmt.Sprintf("key-%d", i)).Hash64())
		}
	}
	if got := h.Estimate(); got < 90 || got > 110 {
		t.Errorf("100 distinct values observed 10x each: estimate %d", got)
	}
}

func TestTableObserveSnapshot(t *testing.T) {
	tbl := NewTable(3)
	var rows []sqltypes.Row
	for i := 0; i < 1000; i++ {
		v := sqltypes.NewInt64(int64(i % 10))
		s := sqltypes.NewString(fmt.Sprintf("s%d", i))
		nul := sqltypes.Null
		if i%4 != 0 {
			nul = sqltypes.NewFloat64(float64(i))
		}
		rows = append(rows, sqltypes.Row{v, s, nul})
	}
	tbl.Observe(rows)

	if tbl.Rows() != 1000 {
		t.Fatalf("rows = %d, want 1000", tbl.Rows())
	}
	cols := tbl.Snapshot()
	if len(cols) != 3 {
		t.Fatalf("snapshot has %d cols, want 3", len(cols))
	}
	c0 := cols[0]
	if c0.NDV < 9 || c0.NDV > 11 {
		t.Errorf("col0 NDV = %d, want ~10", c0.NDV)
	}
	if c0.Min.I != 0 || c0.Max.I != 9 {
		t.Errorf("col0 range = [%v,%v], want [0,9]", c0.Min, c0.Max)
	}
	if c0.Nulls != 0 {
		t.Errorf("col0 nulls = %d, want 0", c0.Nulls)
	}
	c2 := cols[2]
	if c2.Nulls != 250 {
		t.Errorf("col2 nulls = %d, want 250", c2.Nulls)
	}
	if got := c2.NullFraction(); got != 0.25 {
		t.Errorf("col2 null fraction = %v, want 0.25", got)
	}
}

func TestTableInvalidateRebuild(t *testing.T) {
	tbl := NewTable(1)
	rows := []sqltypes.Row{{sqltypes.NewInt64(1)}, {sqltypes.NewInt64(2)}}
	tbl.Observe(rows)
	if tbl.Snapshot() == nil {
		t.Fatal("snapshot nil after observe")
	}
	tbl.Rebuild(rows[:1])
	cols := tbl.Snapshot()
	if cols == nil || cols[0].Count != 1 {
		t.Fatalf("rebuild: snapshot %+v, want count 1", cols)
	}
	if cols[0].Min.I != 1 || cols[0].Max.I != 1 {
		t.Errorf("rebuild range = [%v,%v], want [1,1]", cols[0].Min, cols[0].Max)
	}
}

// TestSnapshotMemo pins the per-version snapshot memo: repeated calls
// share one slice, and every mutation — Observe, Rebuild —
// is visible to the next call without touching snapshots already
// handed out.
func TestSnapshotMemo(t *testing.T) {
	tbl := NewTable(1)
	var rows []sqltypes.Row
	for i := 1; i <= 10; i++ {
		rows = append(rows, sqltypes.Row{sqltypes.NewInt64(int64(i))})
	}
	tbl.Observe(rows)
	first := tbl.Snapshot()
	if again := tbl.Snapshot(); len(again) != 1 || &again[0] != &first[0] {
		t.Fatal("two snapshots with no mutation between them are different slices")
	}

	tbl.Observe([]sqltypes.Row{{sqltypes.NewInt64(100)}, {sqltypes.NewInt64(-5)}})
	cols := tbl.Snapshot()
	if cols[0].Count != 12 || cols[0].Min.I != -5 || cols[0].Max.I != 100 {
		t.Fatalf("after observe: count %d range [%v,%v], want 12 [-5,100]", cols[0].Count, cols[0].Min, cols[0].Max)
	}
	if first[0].Count != 10 || first[0].Max.I != 10 {
		t.Fatalf("observe changed an earlier snapshot: count %d max %v", first[0].Count, first[0].Max)
	}

	tbl.Rebuild([]sqltypes.Row{{sqltypes.NewInt64(7)}})
	cols = tbl.Snapshot()
	if cols == nil || cols[0].Count != 1 || cols[0].Min.I != 7 || cols[0].Max.I != 7 || cols[0].NDV != 1 {
		t.Fatalf("after rebuild: %+v, want count 1, range [7,7], NDV 1", cols)
	}
}

// TestConcurrentObserveSnapshot runs writers and snapshot readers side by
// side (meaningful under -race): each reader sees the row count only grow,
// and the final snapshot counts every row.
func TestConcurrentObserveSnapshot(t *testing.T) {
	const writers, readers, batches = 2, 2, 200
	tbl := NewTable(2)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				v := sqltypes.NewInt64(int64(g*batches + i))
				tbl.Observe([]sqltypes.Row{{v, v}})
			}
		}(g)
	}
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last int64
			for i := 0; i < batches; i++ {
				cols := tbl.Snapshot()
				if cols[0].Count < last || cols[1].Count != cols[0].Count {
					errs <- fmt.Errorf("snapshot count %d/%d after %d", cols[0].Count, cols[1].Count, last)
					return
				}
				last = cols[0].Count
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if cols := tbl.Snapshot(); cols[0].Count != writers*batches || cols[0].Max.I != writers*batches-1 {
		t.Fatalf("final snapshot: count %d max %v, want %d and %d", cols[0].Count, cols[0].Max, writers*batches, writers*batches-1)
	}
}

func TestNilTableSafe(t *testing.T) {
	var tbl *Table
	tbl.Observe([]sqltypes.Row{{sqltypes.NewInt64(1)}})
	tbl.Rebuild(nil)
	if tbl.Snapshot() != nil || tbl.Rows() != 0 || tbl.Version() != 0 {
		t.Fatal("nil Table methods must be no-ops")
	}
}

func TestNDVCappedAtNonNullCount(t *testing.T) {
	tbl := NewTable(1)
	tbl.Observe([]sqltypes.Row{{sqltypes.NewInt64(7)}, {sqltypes.NewInt64(8)}})
	cols := tbl.Snapshot()
	if cols[0].NDV > 2 {
		t.Errorf("NDV = %d exceeds non-null count 2", cols[0].NDV)
	}
}

func TestConcurrentObserve(t *testing.T) {
	tbl := NewTable(1)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 250; i++ {
				tbl.Observe([]sqltypes.Row{{sqltypes.NewInt64(int64(g*1000 + i))}})
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if tbl.Rows() != 1000 {
		t.Fatalf("rows = %d, want 1000", tbl.Rows())
	}
}

func BenchmarkTableObserve(b *testing.B) {
	rows := make([]sqltypes.Row, 1000)
	for i := range rows {
		rows[i] = sqltypes.Row{
			sqltypes.NewString(fmt.Sprintf("tag-%d", i%16)),
			sqltypes.NewInt64(int64(i)),
			sqltypes.NewInt64(int64(i * 7 % 1000)),
			sqltypes.NewFloat64(float64(i) * 1.5),
		}
	}
	t := NewTable(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Observe(rows)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)*4), "ns/value")
}
