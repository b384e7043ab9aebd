package rdd

import (
	"fmt"
	"testing"

	"indexeddf/internal/sqltypes"
	"indexeddf/internal/vector"
)

// TestBatchMergeRunsStayApart: the merge RDD hands each map task's bucket
// to the merge callback as its own stream, in map order, with every row
// accounted for — the property the sorted-run k-way merge builds on.
func TestBatchMergeRunsStayApart(t *testing.T) {
	c := NewContext(WithParallelism(4))
	const nParts = 6
	var rows []sqltypes.Row
	parts := make([][]sqltypes.Row, nParts)
	for p := range parts {
		n := 100*p + 1 // uneven runs, partition 0 tiny
		if p == 3 {
			n = 0 // an empty run
		}
		for i := 0; i < n; i++ {
			r := sqltypes.Row{sqltypes.NewInt64(int64(p)), sqltypes.NewInt64(int64(i))}
			parts[p] = append(parts[p], r)
			rows = append(rows, r)
		}
	}
	parent := c.NewSliceRDD(parts)
	merged := c.NewBatchMergeRDD(parent, kvSchema(), func(tc *TaskContext, runs []vector.BatchIter) (vector.BatchIter, error) {
		if len(runs) != nParts {
			return nil, fmt.Errorf("got %d runs, want %d", len(runs), nParts)
		}
		// Concatenate the runs in order, checking each run only holds its
		// own partition's rows in their original order.
		var out []*vector.Batch
		for p, run := range runs {
			next := 0
			for {
				b, err := run.Next()
				if err != nil {
					return nil, err
				}
				if b == nil {
					break
				}
				for i := 0; i < b.Len(); i++ {
					row := b.Row(i)
					if row[0].Int64Val() != int64(p) {
						return nil, fmt.Errorf("run %d contains row of partition %d", p, row[0].Int64Val())
					}
					if row[1].Int64Val() != int64(next) {
						return nil, fmt.Errorf("run %d out of order: got %d, want %d", p, row[1].Int64Val(), next)
					}
					next++
				}
				out = append(out, b)
			}
			if next != len(parts[p]) {
				return nil, fmt.Errorf("run %d delivered %d of %d rows", p, next, len(parts[p]))
			}
		}
		return vector.NewSliceIter(out), nil
	})
	got, err := c.Collect(merged)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("merge delivered %d of %d rows", len(got), len(rows))
	}
	for i := range got {
		if fmt.Sprint(got[i]) != fmt.Sprint(rows[i]) {
			t.Fatalf("row %d: got %v, want %v", i, got[i], rows[i])
		}
	}
}

// TestStreamJobLazySinglePartition: a 1-partition job streams its final
// stage lazily — the task starts on first Next, and abandoning the cursor
// early leaves it incomplete (the tail is never drained).
func TestStreamJobLazySinglePartition(t *testing.T) {
	c := NewContext(WithParallelism(2))
	rows := make([]sqltypes.Row, 5_000)
	for i := range rows {
		rows[i] = sqltypes.Row{sqltypes.NewInt64(int64(i)), sqltypes.NewInt64(int64(i))}
	}
	r := c.NewSliceRDD(chunks(rows, 1))
	base := c.TasksStarted()
	s := c.StreamJob(nil, r)
	if got := c.TasksStarted() - base; got != 0 {
		t.Fatalf("lazy stream started %d tasks before first Next", got)
	}
	for i := 0; i < 10; i++ {
		row, err := s.Next()
		if err != nil || row == nil {
			t.Fatalf("Next %d: row=%v err=%v", i, row, err)
		}
		if row[0].Int64Val() != int64(i) {
			t.Fatalf("row %d out of order: %v", i, row)
		}
	}
	if got := c.TasksStarted() - base; got != 1 {
		t.Fatalf("lazy stream started %d tasks, want 1", got)
	}
	s.Close()
	if got := c.TasksCompleted(); got != 0 {
		t.Fatalf("abandoned lazy task counted as completed (%d)", got)
	}
	// A drained lazy stream completes its task.
	s2 := c.StreamJob(nil, c.NewSliceRDD(chunks(rows[:16], 1)))
	n := 0
	for {
		row, err := s2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if row == nil {
			break
		}
		n++
	}
	if n != 16 {
		t.Fatalf("drained %d of 16 rows", n)
	}
	if got := c.TasksCompleted(); got != 1 {
		t.Fatalf("drained lazy task not completed (%d)", got)
	}
}
