package rdd

import (
	"context"
	"errors"
	"testing"

	"indexeddf/internal/memory"
	"indexeddf/internal/obs"
	"indexeddf/internal/sqltypes"
)

// streamingIter hides its slice, so drainCtx takes the row-by-row path.
type streamingIter struct{ in sqltypes.RowIter }

func (it streamingIter) Next() (sqltypes.Row, error) { return it.in.Next() }

// TestDrainHandoverKeepsContract runs the drain's two paths side by side:
// an iterator holding its rows as a slice (also behind an operator's stats
// wrapper) is handed over uncopied, and it is checked for cancellation,
// charged to the query's budget and counted exactly like a streamed one.
func TestDrainHandoverKeepsContract(t *testing.T) {
	rows := intRows(5000)
	var want int64
	for _, r := range rows {
		want += RowBytes(r)
	}
	paths := []struct {
		name     string
		iter     func(st *obs.OpStats) sqltypes.RowIter
		handover bool
	}{
		{"handover", func(st *obs.OpStats) sqltypes.RowIter { return obs.Rows(st, sqltypes.NewSliceIter(rows)) }, true},
		{"streamed", func(st *obs.OpStats) sqltypes.RowIter {
			return obs.Rows(st, streamingIter{sqltypes.NewSliceIter(rows)})
		}, false},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			st := &obs.OpStats{}
			out, bytes, err := drainCtx(context.Background(), p.iter(st))
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != len(rows) || bytes != want {
				t.Fatalf("drained %d rows, %d bytes; want %d rows, %d bytes", len(out), bytes, len(rows), want)
			}
			if p.handover && &out[0] != &rows[0] {
				t.Fatal("a held slice was copied, not handed over")
			}
			if st.RowsOut() != int64(len(rows)) {
				t.Fatalf("rows out = %d, want %d", st.RowsOut(), len(rows))
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, _, err := drainCtx(ctx, p.iter(nil)); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled drain: err = %v, want context.Canceled", err)
			}

			tr := memory.NewPool(0).NewTracker("q1", want/2)
			defer tr.Close()
			_, _, err = drainCtx(memory.WithTracker(context.Background(), tr), p.iter(nil))
			var le *memory.LimitError
			if !errors.As(err, &le) || le.Operator != "result buffer" {
				t.Fatalf("over-budget drain: err = %v, want a result buffer limit error", err)
			}
		})
	}
}
