package core

import (
	"testing"

	"indexeddf/internal/sqltypes"
)

func logSchema() *sqltypes.Schema {
	return sqltypes.NewSchema(
		sqltypes.Field{Name: "k", Type: sqltypes.Int64},
		sqltypes.Field{Name: "v", Type: sqltypes.Int64},
	)
}

func logRow(k, v int64) sqltypes.Row {
	return sqltypes.Row{sqltypes.NewInt64(k), sqltypes.NewInt64(v)}
}

func newLogTable(t *testing.T, parts int) *IndexedTable {
	t.Helper()
	tbl, err := NewIndexedTable(logSchema(), 0, Options{NumPartitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// allChanges drains every partition's full log.
func allChanges(t *testing.T, tbl *IndexedTable) []Change {
	t.Helper()
	var out []Change
	for p := 0; p < tbl.NumPartitions(); p++ {
		ch, ok := tbl.ChangesBetween(p, 0, tbl.ChangeMark(p))
		if !ok {
			t.Fatalf("partition %d log unreadable from 0", p)
		}
		out = append(out, ch...)
	}
	return out
}

func TestChangeCaptureOffByDefault(t *testing.T) {
	tbl := newLogTable(t, 2)
	if err := tbl.Append([]sqltypes.Row{logRow(1, 10), logRow(2, 20)}); err != nil {
		t.Fatal(err)
	}
	if tbl.ChangeCaptureEnabled() {
		t.Fatal("capture enabled by default")
	}
	if n := tbl.ChangeLogSize(); n != 0 {
		t.Fatalf("log size = %d without capture", n)
	}
	// A consumer starting at cursor 0 with capture off cannot fold a delta.
	snap := tbl.Snapshot()
	if m := snap.ChangeMark(0); m != -1 {
		t.Fatalf("ChangeMark = %d with capture off, want -1", m)
	}
}

func TestChangeCaptureAppend(t *testing.T) {
	tbl := newLogTable(t, 2)
	tbl.EnableChangeCapture()
	if err := tbl.Append([]sqltypes.Row{logRow(1, 10), logRow(1, 11), logRow(2, 20)}); err != nil {
		t.Fatal(err)
	}
	var appended int
	for _, ch := range allChanges(t, tbl) {
		appended += len(ch.Rows)
	}
	if appended != 3 {
		t.Fatalf("appended rows logged = %d, want 3", appended)
	}
}

func TestSnapshotChangeMarkPinsLogPrefix(t *testing.T) {
	tbl := newLogTable(t, 1)
	tbl.EnableChangeCapture()
	if err := tbl.Append([]sqltypes.Row{logRow(1, 10)}); err != nil {
		t.Fatal(err)
	}
	snap := tbl.Snapshot()
	mark := snap.ChangeMark(0)
	if err := tbl.Append([]sqltypes.Row{logRow(2, 20)}); err != nil {
		t.Fatal(err)
	}
	// Content visible in the snapshot == records below the mark.
	n, err := snap.PartitionRowCount(0)
	if err != nil {
		t.Fatal(err)
	}
	pre, ok := tbl.ChangesBetween(0, 0, mark)
	if !ok {
		t.Fatal("prefix unreadable")
	}
	preRows := 0
	for _, ch := range pre {
		preRows += len(ch.Rows)
	}
	if preRows != n {
		t.Fatalf("snapshot sees %d rows, log prefix has %d", n, preRows)
	}
	// Records at/after the mark cover the rest.
	post, ok := tbl.ChangesBetween(0, mark, tbl.ChangeMark(0))
	if !ok || len(post) != 1 || len(post[0].Rows) != 1 {
		t.Fatalf("post-mark delta wrong: ok=%v %+v", ok, post)
	}
}

func TestPruneChanges(t *testing.T) {
	tbl := newLogTable(t, 1)
	tbl.EnableChangeCapture()
	for i := int64(0); i < 10; i++ {
		if err := tbl.Append([]sqltypes.Row{logRow(i, i)}); err != nil {
			t.Fatal(err)
		}
	}
	mark := tbl.ChangeMark(0)
	if mark != 10 {
		t.Fatalf("mark = %d", mark)
	}
	tbl.PruneChanges(0, 7)
	if n := tbl.ChangeLogSize(); n != 3 {
		t.Fatalf("retained = %d after prune, want 3", n)
	}
	// Cursors at/above the prune point still read.
	if _, ok := tbl.ChangesBetween(0, 7, mark); !ok {
		t.Fatal("cursor 7 should survive prune to 7")
	}
	if got, ok := tbl.ChangesBetween(0, 8, mark); !ok || len(got) != 2 {
		t.Fatalf("cursor 8: ok=%v len=%d", ok, len(got))
	}
	// Cursors below it must detect the gap.
	if _, ok := tbl.ChangesBetween(0, 6, mark); ok {
		t.Fatal("cursor 6 should be invalidated by prune to 7")
	}
}

func TestDisableChangeCaptureClearsLog(t *testing.T) {
	tbl := newLogTable(t, 2)
	tbl.EnableChangeCapture()
	for i := int64(0); i < 10; i++ {
		if err := tbl.Append([]sqltypes.Row{logRow(i, i)}); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.ChangeLogSize() == 0 {
		t.Fatal("no records captured")
	}
	tbl.DisableChangeCapture()
	if tbl.ChangeCaptureEnabled() || tbl.ChangeLogSize() != 0 {
		t.Fatalf("capture=%v size=%d after disable", tbl.ChangeCaptureEnabled(), tbl.ChangeLogSize())
	}
	// Mutations stop accumulating records...
	if err := tbl.Append([]sqltypes.Row{logRow(99, 99)}); err != nil {
		t.Fatal(err)
	}
	if n := tbl.ChangeLogSize(); n != 0 {
		t.Fatalf("log grew to %d while disabled", n)
	}
	// ...and stale cursors read as a gap, not as an empty delta.
	for p := 0; p < tbl.NumPartitions(); p++ {
		if _, ok := tbl.ChangesBetween(p, 0, tbl.ChangeMark(p)); ok {
			t.Fatalf("partition %d: stale cursor must observe a gap", p)
		}
	}
}

func TestPartialAppendFailureInvalidatesLog(t *testing.T) {
	tbl := newLogTable(t, 1)
	tbl.EnableChangeCapture()
	if err := tbl.Append([]sqltypes.Row{logRow(1, 1)}); err != nil {
		t.Fatal(err)
	}
	cursor := tbl.ChangeMark(0)
	// Batch whose second row fails to encode (wrong type for column 1):
	// the first row lands physically but the batch cannot be logged.
	bad := sqltypes.Row{sqltypes.NewInt64(2), sqltypes.NewString("boom")}
	err := tbl.AppendToPartition(0, []sqltypes.Row{logRow(3, 3), bad})
	if err == nil {
		t.Fatal("expected encode failure")
	}
	if _, ok := tbl.ChangesBetween(0, cursor, tbl.ChangeMark(0)); ok {
		t.Fatal("partially applied batch must break the log, not vanish from it")
	}
}
