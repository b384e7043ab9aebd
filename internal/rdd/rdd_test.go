package rdd

import (
	"context"
	"errors"
	"sort"
	"testing"

	"indexeddf/internal/sqltypes"
)

// chunks splits rows into n contiguous partitions (the last ones shorter
// or empty when rows do not divide evenly), for building a SliceRDD.
func chunks(rows []sqltypes.Row, n int) [][]sqltypes.Row {
	parts := make([][]sqltypes.Row, n)
	size := (len(rows) + n - 1) / n
	for i := range parts {
		lo, hi := min(i*size, len(rows)), min((i+1)*size, len(rows))
		parts[i] = rows[lo:hi]
	}
	return parts
}

func intRows(n int) []sqltypes.Row {
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = sqltypes.Row{sqltypes.NewInt64(int64(i))}
	}
	return rows
}

func rowInts(rows []sqltypes.Row) []int {
	out := make([]int, len(rows))
	for i, r := range rows {
		out[i] = int(r[0].Int64Val())
	}
	sort.Ints(out)
	return out
}

func TestSliceRDDCollect(t *testing.T) {
	c := NewContext(WithParallelism(4))
	r := c.NewSliceRDD(chunks(intRows(100), 7))
	if r.NumPartitions() != 7 {
		t.Fatalf("NumPartitions = %d", r.NumPartitions())
	}
	rows, err := c.Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	got := rowInts(rows)
	if len(got) != 100 || got[0] != 0 || got[99] != 99 {
		t.Fatalf("Collect lost rows: %d rows", len(got))
	}
	n, err := c.Count(r)
	if err != nil || n != 100 {
		t.Fatalf("Count = %d, %v", n, err)
	}
}

func TestSliceRDDEmptyAndSmall(t *testing.T) {
	c := NewContext()
	r := c.NewSliceRDD(chunks(nil, 4))
	rows, err := c.Collect(r)
	if err != nil || len(rows) != 0 {
		t.Fatalf("empty collect: %v %v", rows, err)
	}
	// Fewer rows than partitions.
	r2 := c.NewSliceRDD(chunks(intRows(2), 8))
	rows2, err := c.Collect(r2)
	if err != nil || len(rows2) != 2 {
		t.Fatalf("small collect: %v %v", rows2, err)
	}
}

func TestIterRDDPipelining(t *testing.T) {
	c := NewContext()
	base := c.NewSliceRDD(chunks(intRows(50), 4))
	doubled := c.NewIterRDD(base, 0, func(_ *TaskContext, _ int, in sqltypes.RowIter) (sqltypes.RowIter, error) {
		rows, err := sqltypes.Drain(in)
		if err != nil {
			return nil, err
		}
		out := make([]sqltypes.Row, 0, len(rows))
		for _, r := range rows {
			out = append(out, sqltypes.Row{sqltypes.NewInt64(r[0].Int64Val() * 2)})
		}
		return sqltypes.NewSliceIter(out), nil
	})
	rows, err := c.Collect(doubled)
	if err != nil {
		t.Fatal(err)
	}
	got := rowInts(rows)
	for i, v := range got {
		if v != i*2 {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestShuffleGroupsByKey(t *testing.T) {
	c := NewContext(WithParallelism(2))
	base := c.NewSliceRDD(chunks(intRows(1000), 8))
	part := &HashPartitioner{N: 5, Key: func(r sqltypes.Row) sqltypes.Value { return r[0] }}
	sh := c.NewShuffledRDD(base, part)
	parts, err := c.RunJob(sh)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 5 {
		t.Fatalf("reduce partitions = %d", len(parts))
	}
	// Every row lands exactly once, in the partition its hash selects.
	total := 0
	for p, rows := range parts {
		total += len(rows)
		for _, r := range rows {
			if want := int(r[0].Hash64() % 5); want != p {
				t.Fatalf("row %v in partition %d, want %d", r, p, want)
			}
		}
	}
	if total != 1000 {
		t.Fatalf("total rows after shuffle = %d", total)
	}
}

func TestShuffleChain(t *testing.T) {
	// Two shuffles back to back exercise multi-stage scheduling.
	c := NewContext()
	base := c.NewSliceRDD(chunks(intRows(200), 4))
	p1 := &HashPartitioner{N: 3, Key: func(r sqltypes.Row) sqltypes.Value { return r[0] }}
	s1 := c.NewShuffledRDD(base, p1)
	s2 := c.NewShuffledRDD(s1, SinglePartitioner{})
	rows, err := c.Collect(s2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 200 {
		t.Fatalf("rows after two shuffles = %d", len(rows))
	}
}

func TestUnionRDD(t *testing.T) {
	c := NewContext()
	a := c.NewSliceRDD(chunks(intRows(10), 2))
	b := c.NewSliceRDD(chunks(intRows(5), 3))
	u := c.NewUnionRDD(a, b)
	if u.NumPartitions() != 5 {
		t.Fatalf("union partitions = %d", u.NumPartitions())
	}
	rows, err := c.Collect(u)
	if err != nil || len(rows) != 15 {
		t.Fatalf("union rows = %d, %v", len(rows), err)
	}
}

func TestComputeErrorPropagates(t *testing.T) {
	c := NewContext()
	boom := errors.New("boom")
	bad := c.NewIterRDD(nil, 4, func(_ *TaskContext, p int, _ sqltypes.RowIter) (sqltypes.RowIter, error) {
		if p == 2 {
			return nil, boom
		}
		return sqltypes.NewSliceIter(nil), nil
	})
	if _, err := c.Collect(bad); err == nil || !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	// Error inside a shuffle map stage propagates too.
	sh := c.NewShuffledRDD(bad, SinglePartitioner{})
	if _, err := c.Collect(sh); err == nil || !errors.Is(err, boom) {
		t.Fatalf("shuffle error not propagated: %v", err)
	}
}

func TestShuffleFetchWithoutStageFails(t *testing.T) {
	m := NewShuffleManager()
	if _, err := m.OpenRowReader(42, 0, nil); err == nil {
		t.Fatal("OpenRowReader of unknown shuffle should fail")
	}
	if _, err := m.OpenBatchReader(42, 0, nil); err == nil {
		t.Fatal("OpenBatchReader of unknown shuffle should fail")
	}
}

func TestShuffleDropAllowsRerun(t *testing.T) {
	m := NewShuffleManager()
	runs := 0
	_ = m.RunOnce(1, func() error { runs++; return nil })
	_ = m.RunOnce(1, func() error { runs++; return nil })
	if runs != 1 {
		t.Fatalf("RunOnce ran %d times", runs)
	}
	m.Drop(1)
	_ = m.RunOnce(1, func() error { runs++; return nil })
	if runs != 2 {
		t.Fatalf("RunOnce after Drop ran %d times", runs)
	}
}

func TestHashPartitionerDeterminism(t *testing.T) {
	p := &HashPartitioner{N: 7, Key: func(r sqltypes.Row) sqltypes.Value { return r[0] }}
	for i := 0; i < 100; i++ {
		row := sqltypes.Row{sqltypes.NewInt64(int64(i))}
		a := p.PartitionFor(row)
		b := p.PartitionFor(row)
		if a != b || a < 0 || a >= 7 {
			t.Fatalf("partitioner unstable or out of range: %d %d", a, b)
		}
	}
}

func TestStreamJobDeliversPartitionOrderAndCancels(t *testing.T) {
	c := NewContext(WithParallelism(2))
	base := c.NewSliceRDD(chunks(intRows(10_000), 16))
	// Streamed rows match Collect order.
	want, err := c.Collect(base)
	if err != nil {
		t.Fatal(err)
	}
	s := c.StreamJob(context.Background(), base)
	var got []sqltypes.Row
	for {
		row, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if row == nil {
			break
		}
		got = append(got, row)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i][0].I != want[i][0].I {
			t.Fatalf("row %d: %v vs %v", i, got[i], want[i])
		}
	}

	// Cancellation surfaces the context error and stops the job.
	ctx, cancel := context.WithCancel(context.Background())
	s2 := c.StreamJob(ctx, base)
	if _, err := s2.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	for {
		row, err := s2.Next()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			break
		}
		if row == nil {
			// The buffered partitions drained before the cancel landed;
			// that is a legal (if unlikely) outcome for this small job.
			break
		}
	}
	s2.Close()

	// Close is idempotent and releases cleanly after exhaustion.
	s.Close()
}

// TestStreamJobInline: under an inline context a multi-partition job takes
// the lazy path — partition p starts only when the consumer reaches it and
// rows come in Collect order — and its shuffle map stage runs and is
// released like any other.
func TestStreamJobInline(t *testing.T) {
	c := NewContext(WithParallelism(4))
	base := c.NewSliceRDD(chunks(intRows(100), 4))
	ctx := WithInline(context.Background())
	s := c.StreamJob(ctx, base)
	for i := 0; i < 30; i++ {
		row, err := s.Next()
		if err != nil || row == nil || row[0].Int64Val() != int64(i) {
			t.Fatalf("Next %d: row=%v err=%v", i, row, err)
		}
	}
	s.Close()
	// 30 rows reach into the second 25-row partition; the other two
	// never start.
	if started, completed := c.TasksStarted(), c.TasksCompleted(); started != 2 || completed != 1 {
		t.Fatalf("tasks %d/%d, want 1 completed of 2 started", completed, started)
	}

	s = c.StreamJob(ctx, c.NewShuffledRDD(base, &HashPartitioner{N: 3,
		Key: func(r sqltypes.Row) sqltypes.Value { return r[0] }}))
	var got []sqltypes.Row
	for {
		row, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if row == nil {
			break
		}
		got = append(got, row)
	}
	if ints := rowInts(got); len(ints) != 100 || ints[0] != 0 || ints[99] != 99 {
		t.Fatalf("shuffled inline job returned %d rows", len(got))
	}
	if n := c.ShuffleOutstanding(); n != 0 {
		t.Fatalf("%d shuffles retained after exhaustion", n)
	}
}
