package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"indexeddf/internal/sqltypes"
)

func testSchema() *sqltypes.Schema {
	return sqltypes.NewSchema(
		sqltypes.Field{Name: "id", Type: sqltypes.Int64},
		sqltypes.Field{Name: "name", Type: sqltypes.String, Nullable: true},
		sqltypes.Field{Name: "score", Type: sqltypes.Float64, Nullable: true},
	)
}

func mkRow(id int64, name string, score float64) sqltypes.Row {
	return sqltypes.Row{
		sqltypes.NewInt64(id),
		sqltypes.NewString(name),
		sqltypes.NewFloat64(score),
	}
}

func newTable(t *testing.T, parts int) *IndexedTable {
	t.Helper()
	tbl, err := NewIndexedTable(testSchema(), 0, Options{NumPartitions: parts, BatchSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestNewIndexedTableValidation(t *testing.T) {
	if _, err := NewIndexedTable(testSchema(), 5, Options{}); err == nil {
		t.Fatal("out-of-range key column accepted")
	}
	tbl, err := NewIndexedTable(testSchema(), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumPartitions() != 4 {
		t.Fatalf("default partitions = %d", tbl.NumPartitions())
	}
	if tbl.KeyColumn() != 0 || !tbl.Schema().Equal(testSchema()) {
		t.Fatal("accessors broken")
	}
}

func TestAppendAndGetRows(t *testing.T) {
	tbl := newTable(t, 3)
	var rows []sqltypes.Row
	for i := int64(0); i < 100; i++ {
		rows = append(rows, mkRow(i%10, fmt.Sprintf("n%d", i), float64(i)))
	}
	if err := tbl.Append(rows); err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount() != 100 {
		t.Fatalf("RowCount = %d", tbl.RowCount())
	}
	if tbl.DistinctKeys() != 10 {
		t.Fatalf("DistinctKeys = %d", tbl.DistinctKeys())
	}
	snap := tbl.Snapshot()
	got, err := snap.GetRows(sqltypes.NewInt64(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("GetRows(3) returned %d rows, want 10", len(got))
	}
	// Newest first: the last appended row for key 3 is i=93.
	if got[0][1].StringVal() != "n93" {
		t.Fatalf("newest row = %v", got[0])
	}
	if got[9][1].StringVal() != "n3" {
		t.Fatalf("oldest row = %v", got[9])
	}
	// Missing key returns empty.
	none, err := snap.GetRows(sqltypes.NewInt64(999))
	if err != nil || len(none) != 0 {
		t.Fatalf("GetRows(missing) = %v, %v", none, err)
	}
}

func TestSnapshotIsolationFromAppends(t *testing.T) {
	tbl := newTable(t, 2)
	if err := tbl.Append([]sqltypes.Row{mkRow(1, "a", 1), mkRow(2, "b", 2)}); err != nil {
		t.Fatal(err)
	}
	snap := tbl.Snapshot()
	v1 := snap.Version()
	if err := tbl.Append([]sqltypes.Row{mkRow(1, "a2", 10), mkRow(3, "c", 3)}); err != nil {
		t.Fatal(err)
	}
	// The snapshot sees exactly the old state.
	got, err := snap.GetRows(sqltypes.NewInt64(1))
	if err != nil || len(got) != 1 || got[0][1].StringVal() != "a" {
		t.Fatalf("snapshot GetRows(1) = %v, %v", got, err)
	}
	if rows, _ := snap.GetRows(sqltypes.NewInt64(3)); len(rows) != 0 {
		t.Fatal("snapshot sees key appended after it")
	}
	if n := snap.RowCount(); n != 2 {
		t.Fatalf("snapshot RowCount = %d", n)
	}
	// A fresh snapshot sees everything.
	snap2 := tbl.Snapshot()
	if snap2.Version() <= v1 {
		t.Fatal("version did not advance")
	}
	got2, _ := snap2.GetRows(sqltypes.NewInt64(1))
	if len(got2) != 2 || got2[0][1].StringVal() != "a2" {
		t.Fatalf("fresh snapshot GetRows(1) = %v", got2)
	}
	if n := snap2.RowCount(); n != 4 {
		t.Fatalf("fresh snapshot RowCount = %d", n)
	}
}

func TestFineGrainedAppendFastPath(t *testing.T) {
	tbl := newTable(t, 4)
	for i := int64(0); i < 50; i++ {
		if err := tbl.Append([]sqltypes.Row{mkRow(i, "x", 0)}); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.RowCount() != 50 || tbl.Version() != 50 {
		t.Fatalf("RowCount=%d Version=%d", tbl.RowCount(), tbl.Version())
	}
}

func TestAppendEmptyAndBadArity(t *testing.T) {
	tbl := newTable(t, 2)
	if err := tbl.Append(nil); err != nil {
		t.Fatal(err)
	}
	if tbl.Version() != 0 {
		t.Fatal("empty append bumped version")
	}
	err := tbl.Append([]sqltypes.Row{{sqltypes.NewInt64(1)}, {sqltypes.NewInt64(2)}})
	if err == nil {
		t.Fatal("bad arity accepted")
	}
}

func TestScanPartitionSeesSnapshotOnly(t *testing.T) {
	tbl := newTable(t, 1)
	for i := int64(0); i < 20; i++ {
		if err := tbl.Append([]sqltypes.Row{mkRow(i, "a", 0)}); err != nil {
			t.Fatal(err)
		}
	}
	snap := tbl.Snapshot()
	for i := int64(20); i < 40; i++ {
		if err := tbl.Append([]sqltypes.Row{mkRow(i, "b", 0)}); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := snap.ScanPartition(0, func(row sqltypes.Row) bool {
		if row[1].StringVal() != "a" {
			t.Error("scan leaked a post-snapshot row")
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("scan saw %d rows", n)
	}
}

func TestScanPartitionColumns(t *testing.T) {
	tbl := newTable(t, 1)
	if err := tbl.Append([]sqltypes.Row{mkRow(1, "x", 2.5), mkRow(2, "y", 3.5)}); err != nil {
		t.Fatal(err)
	}
	snap := tbl.Snapshot()
	var names []string
	var scores []float64
	err := snap.ScanPartitionColumns(0, []int{1, 2}, func(row sqltypes.Row) bool {
		names = append(names, row[0].StringVal())
		scores = append(scores, row[1].Float64Val())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "x" || scores[1] != 3.5 {
		t.Fatalf("projected scan: %v %v", names, scores)
	}
}

func TestMemoryUsageAccounting(t *testing.T) {
	tbl := newTable(t, 2)
	rows := make([]sqltypes.Row, 0, 1000)
	for i := int64(0); i < 1000; i++ {
		rows = append(rows, mkRow(i, "some-name-payload", float64(i)))
	}
	if err := tbl.Append(rows); err != nil {
		t.Fatal(err)
	}
	batchBytes, dataBytes, indexBytes := tbl.MemoryUsage()
	if batchBytes <= 0 || dataBytes <= 0 || indexBytes <= 0 {
		t.Fatalf("memory usage: %d %d %d", batchBytes, dataBytes, indexBytes)
	}
	if dataBytes > batchBytes {
		t.Fatal("data bytes exceed reserved bytes")
	}
}

func TestLookupEachEarlyStop(t *testing.T) {
	tbl := newTable(t, 1)
	for i := 0; i < 10; i++ {
		if err := tbl.Append([]sqltypes.Row{mkRow(7, fmt.Sprint(i), 0)}); err != nil {
			t.Fatal(err)
		}
	}
	snap := tbl.Snapshot()
	n := 0
	if err := snap.LookupEach(sqltypes.NewInt64(7), func(sqltypes.Row) bool {
		n++
		return n < 3
	}); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestConcurrentAppendersAndSnapshotReaders(t *testing.T) {
	tbl := newTable(t, 4)
	const writers = 4
	const perWriter = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := int64(i % 50)
				row := mkRow(key, fmt.Sprintf("w%d-%d", w, i), float64(i))
				if err := tbl.Append([]sqltypes.Row{row}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	// Readers take snapshots and check invariants while writers run: a
	// snapshot's scans, chains and row count agree, however often they
	// are read.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				snap := tbl.Snapshot()
				for pass := 0; pass < 2; pass++ {
					if err := checkSnapshot(snap, 50); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if tbl.RowCount() != writers*perWriter {
		t.Fatalf("RowCount = %d, want %d", tbl.RowCount(), writers*perWriter)
	}
	// Final consistency: chain lengths per key sum to total rows.
	snap := tbl.Snapshot()
	var total int
	for key := int64(0); key < 50; key++ {
		rows, err := snap.GetRows(sqltypes.NewInt64(key))
		if err != nil {
			t.Fatal(err)
		}
		total += len(rows)
	}
	if total != writers*perWriter {
		t.Fatalf("sum of chains = %d, want %d", total, writers*perWriter)
	}
}

// checkSnapshot cross-checks a snapshot of a table keyed 0..keys-1: the
// scanned rows, the rows on every key's chain and RowCount all agree, and
// every chained row carries its chain's key.
func checkSnapshot(snap *Snapshot, keys int64) error {
	var scanned int64
	for p := 0; p < snap.NumPartitions(); p++ {
		n, err := snap.PartitionRowCount(p)
		if err != nil {
			return err
		}
		scanned += int64(n)
	}
	var chained int64
	for key := int64(0); key < keys; key++ {
		var wrong sqltypes.Value
		err := snap.LookupEach(sqltypes.NewInt64(key), func(row sqltypes.Row) bool {
			chained++
			if row[0].Int64Val() != key {
				wrong = row[0]
			}
			return wrong.IsNull()
		})
		if err != nil {
			return err
		}
		if !wrong.IsNull() {
			return fmt.Errorf("chain of key %d holds a row keyed %v", key, wrong)
		}
	}
	if scanned != snap.RowCount() || chained != snap.RowCount() {
		return fmt.Errorf("snapshot %d: scans see %d rows, chains %d, RowCount %d",
			snap.Version(), scanned, chained, snap.RowCount())
	}
	return nil
}

// TestQuickAppendLookup property: for any batch of (key, payload) pairs,
// GetRows(k) returns exactly the payloads appended with k, newest first.
func TestQuickAppendLookup(t *testing.T) {
	f := func(keys []uint8) bool {
		tbl, err := NewIndexedTable(testSchema(), 0, Options{NumPartitions: 3, BatchSize: 2048})
		if err != nil {
			return false
		}
		want := map[int64][]string{}
		var rows []sqltypes.Row
		for i, k := range keys {
			key := int64(k % 17)
			name := fmt.Sprintf("r%d", i)
			rows = append(rows, mkRow(key, name, 0))
			want[key] = append([]string{name}, want[key]...) // newest first
		}
		if err := tbl.Append(rows); err != nil {
			return false
		}
		snap := tbl.Snapshot()
		for key, names := range want {
			got, err := snap.GetRows(sqltypes.NewInt64(key))
			if err != nil || len(got) != len(names) {
				return false
			}
			for i, r := range got {
				if r[1].StringVal() != names[i] {
					return false
				}
			}
		}
		return checkSnapshot(snap, 17) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestAppendChecksEveryRowFirst: whatever makes a row unstorable — its
// arity, a value its column cannot take, a record larger than a batch —
// fails the batch before any row of it, the good ones included, lands.
func TestAppendChecksEveryRowFirst(t *testing.T) {
	bad := map[string]sqltypes.Row{
		"arity":     {sqltypes.NewInt64(2), sqltypes.NewString("b")},
		"type":      {sqltypes.NewInt64(2), sqltypes.NewString("b"), sqltypes.NewString("not a number")},
		"oversized": mkRow(2, strings.Repeat("x", 4096), 2),
	}
	for name, row := range bad {
		tbl := newTable(t, 4)
		if err := tbl.Append([]sqltypes.Row{mkRow(1, "a", 1), row}); err == nil {
			t.Fatalf("%s: the batch was accepted", name)
		}
		if tbl.RowCount() != 0 || tbl.Version() != 0 || tbl.DistinctKeys() != 0 {
			t.Fatalf("%s: failed batch left %d rows, version %d, %d keys", name, tbl.RowCount(), tbl.Version(), tbl.DistinctKeys())
		}
		if rows, err := tbl.Snapshot().GetRows(sqltypes.NewInt64(1)); err != nil || len(rows) != 0 {
			t.Fatalf("%s: the good row is visible: %v, %v", name, rows, err)
		}
		if err := tbl.Append([]sqltypes.Row{mkRow(1, "a", 1)}); err != nil {
			t.Fatalf("%s: table refuses appends after a failed batch: %v", name, err)
		}
	}
}

// TestScanWalksEveryVersionInAppendOrder pins the single scan path: a scan
// is the append-order walk up to the snapshot's end positions, so it
// yields every version of every key, overwrites included.
func TestScanWalksEveryVersionInAppendOrder(t *testing.T) {
	const (
		keys       = 10000
		overwrites = 1000
		total      = keys + overwrites
		hot        = int64(42)
	)
	tbl, err := NewIndexedTable(testSchema(), 0, Options{NumPartitions: 4, BatchSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 100)
	// Row seq carries its append sequence in score: keys 0..9999 once
	// each, then the hot key over and over.
	var mid *Snapshot
	for seq := 0; seq < total; seq++ {
		k := int64(seq)
		if seq >= keys {
			k = hot
		}
		if err := tbl.Append([]sqltypes.Row{mkRow(k, pad, float64(seq))}); err != nil {
			t.Fatal(err)
		}
		if seq+1 == total/2 {
			mid = tbl.Snapshot()
		}
	}
	for p := range tbl.parts {
		if n := tbl.parts[p].batches.NumBatches(); n < 4 {
			t.Fatalf("partition %d spans %d batches, want several", p, n)
		}
	}

	// scanSeqs checks each partition yields strictly increasing sequence
	// numbers and returns them all, with the per-partition row counts.
	scanSeqs := func(snap *Snapshot) (seen []bool, counted int64) {
		seen = make([]bool, total)
		for p := 0; p < snap.NumPartitions(); p++ {
			last := -1
			if err := snap.ScanPartition(p, func(row sqltypes.Row) bool {
				seq := int(row[2].Float64Val())
				if seq <= last {
					t.Fatalf("partition %d: seq %d after %d", p, seq, last)
				}
				if seen[seq] {
					t.Fatalf("seq %d scanned twice", seq)
				}
				last, seen[seq] = seq, true
				return true
			}); err != nil {
				t.Fatal(err)
			}
			n, err := snap.PartitionRowCount(p)
			if err != nil {
				t.Fatal(err)
			}
			counted += int64(n)
		}
		return seen, counted
	}

	seen, counted := scanSeqs(tbl.Snapshot())
	for seq, ok := range seen {
		if !ok {
			t.Fatalf("seq %d missing from the scan", seq)
		}
	}
	if counted != tbl.RowCount() || counted != total {
		t.Fatalf("partition row counts sum to %d, RowCount %d, want %d", counted, tbl.RowCount(), total)
	}

	rows, err := tbl.Snapshot().GetRows(sqltypes.NewInt64(hot))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != overwrites+1 {
		t.Fatalf("GetRows(hot) = %d rows, want %d", len(rows), overwrites+1)
	}
	for i, r := range rows {
		want := total - 1 - i // newest first
		if i == overwrites {
			want = int(hot) // the original load row
		}
		if got := int(r[2].Float64Val()); got != want {
			t.Fatalf("GetRows(hot)[%d] seq = %d, want %d", i, got, want)
		}
	}

	seen, counted = scanSeqs(mid)
	for seq, ok := range seen {
		if ok != (seq < total/2) {
			t.Fatalf("halfway snapshot: seq %d visible=%v", seq, ok)
		}
	}
	if counted != total/2 {
		t.Fatalf("halfway snapshot counts %d rows, want %d", counted, total/2)
	}
}

// TestSnapshotNeverHoldsPartialBatch: a snapshot publishes whole append
// batches only. One writer appends 64-row batches spread over 8
// partitions while a reader takes 200 snapshots; each must hold a
// multiple of 64 rows, by its scans as well as by its count.
func TestSnapshotNeverHoldsPartialBatch(t *testing.T) {
	const (
		batch     = 64
		snapshots = 200
	)
	tbl := newTable(t, 8)
	done := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(done)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := int64(0); ; b++ {
			select {
			case <-done:
				return
			default:
			}
			rows := make([]sqltypes.Row, batch)
			for i := range rows {
				rows[i] = mkRow(b*batch+int64(i), "x", 0)
			}
			if err := tbl.Append(rows); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for tbl.RowCount() == 0 {
		runtime.Gosched()
	}
	for i := 0; i < snapshots; i++ {
		snap := tbl.Snapshot()
		var scanned int64
		for p := 0; p < snap.NumPartitions(); p++ {
			n, err := snap.PartitionRowCount(p)
			if err != nil {
				t.Fatal(err)
			}
			scanned += int64(n)
		}
		if scanned%batch != 0 || scanned != snap.RowCount() {
			t.Fatalf("snapshot %d holds %d rows (RowCount %d): a partial %d-row batch", i, scanned, snap.RowCount(), batch)
		}
	}
}

// TestLookupAtSnapshotIgnoresLaterInserts: lookups read the live Ctrie but
// answer as of the snapshot. A key present when the snapshot was taken is
// found with exactly its rows then, and a key first inserted after it is
// absent, while another goroutine inserts 100k fresh keys and re-appends
// the old one.
func TestLookupAtSnapshotIgnoresLaterInserts(t *testing.T) {
	const (
		fresh = 100000
		batch = 1000
		old   = int64(-1)
	)
	tbl, err := NewIndexedTable(testSchema(), 0, Options{NumPartitions: 4, BatchSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append([]sqltypes.Row{mkRow(old, "at-w", 0)}); err != nil {
		t.Fatal(err)
	}
	snap := tbl.Snapshot()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for lo := int64(0); lo < fresh; lo += batch {
			rows := make([]sqltypes.Row, 0, batch+1)
			for k := lo; k < lo+batch; k++ {
				rows = append(rows, mkRow(k, "after-w", 0))
			}
			rows = append(rows, mkRow(old, "after-w", 0))
			if err := tbl.Append(rows); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	check := func() {
		t.Helper()
		got, err := snap.GetRows(sqltypes.NewInt64(old))
		if err != nil || len(got) != 1 || got[0][1].StringVal() != "at-w" {
			t.Fatalf("GetRows(old) at w = %v, %v; want the one row present at w", got, err)
		}
		p := snap.PartitionFor(sqltypes.NewInt64(old))
		if _, ok, err := snap.LookupPtr(p, sqltypes.NewInt64(old)); !ok || err != nil {
			t.Fatalf("LookupPtr(old) at w = %v, %v", ok, err)
		}
		for _, k := range []int64{0, fresh / 2, fresh - 1} {
			if rows, err := snap.GetRows(sqltypes.NewInt64(k)); err != nil || len(rows) != 0 {
				t.Fatalf("key %d inserted after w is visible at w: %v, %v", k, rows, err)
			}
			if _, ok, _ := snap.LookupPtr(snap.PartitionFor(sqltypes.NewInt64(k)), sqltypes.NewInt64(k)); ok {
				t.Fatalf("LookupPtr finds key %d inserted after w", k)
			}
		}
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		check()
	}
	if got := tbl.Snapshot().RowCount(); got != 1+fresh+fresh/batch {
		t.Fatalf("table holds %d rows, want %d", got, 1+fresh+fresh/batch)
	}
	if rows, _ := tbl.Snapshot().GetRows(sqltypes.NewInt64(fresh - 1)); len(rows) != 1 {
		t.Fatalf("a fresh snapshot finds %d rows for the last key, want 1", len(rows))
	}
}

// TestFailedAppendPublishesNothing: a batch whose second row fails to
// encode (wrong type for column 2) lands none of its rows — not in the
// content, the version or the row count.
func TestFailedAppendPublishesNothing(t *testing.T) {
	tbl := newTable(t, 1)
	if err := tbl.Append([]sqltypes.Row{mkRow(1, "a", 1)}); err != nil {
		t.Fatal(err)
	}
	before := tbl.Snapshot()
	bad := sqltypes.Row{sqltypes.NewInt64(2), sqltypes.NewString("b"), sqltypes.NewString("boom")}
	if err := tbl.Append([]sqltypes.Row{mkRow(3, "c", 3), bad}); err == nil {
		t.Fatal("expected encode failure")
	}
	after := tbl.Snapshot()
	if after != before || tbl.RowCount() != 1 || tbl.Version() != before.Version() {
		t.Fatalf("failed batch published: version %d -> %d, %d rows", before.Version(), tbl.Version(), tbl.RowCount())
	}
	if rows, err := after.GetRows(sqltypes.NewInt64(3)); err != nil || len(rows) != 0 {
		t.Fatalf("the failed batch's good row is visible: %v, %v", rows, err)
	}
	// The next batch publishes only its own rows.
	if err := tbl.Append([]sqltypes.Row{mkRow(4, "d", 4)}); err != nil {
		t.Fatal(err)
	}
	if n, _ := tbl.Snapshot().PartitionRowCount(0); n != 2 {
		t.Fatalf("after a good batch the partition holds %d rows, want 2", n)
	}
}

// TestScanPartitionSinceReadsOnlyNewRows: the rows a snapshot holds beyond
// an older one are exactly the batches appended in between, in append
// order, across batch rollovers; a nil prev reads everything.
func TestScanPartitionSinceReadsOnlyNewRows(t *testing.T) {
	tbl := newTable(t, 1) // 4 KiB batches: 300 rows span several
	var snaps []*Snapshot
	for b := int64(0); b < 3; b++ {
		snaps = append(snaps, tbl.Snapshot())
		var rows []sqltypes.Row
		for i := b * 100; i < (b+1)*100; i++ {
			rows = append(rows, mkRow(i, "x", 0))
		}
		if err := tbl.Append(rows); err != nil {
			t.Fatal(err)
		}
	}
	last := tbl.Snapshot()
	ids := func(prev *Snapshot) []int64 {
		t.Helper()
		var out []int64
		if err := last.ScanPartitionSince(prev, 0, func(r sqltypes.Row) bool {
			out = append(out, r[0].Int64Val())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for b, prev := range snaps {
		got := ids(prev)
		if want := 300 - 100*b; len(got) != want || got[0] != int64(100*b) || got[len(got)-1] != 299 {
			t.Fatalf("since batch %d: %d rows %v..., want %d from %d", b, len(got), got[:1], want, 100*b)
		}
	}
	if got := ids(nil); len(got) != 300 || got[0] != 0 {
		t.Fatalf("since nil: %d rows", len(got))
	}
	if got := ids(last); len(got) != 0 {
		t.Fatalf("since itself: %d rows", len(got))
	}
	if err := snaps[1].ScanPartitionSince(last, 0, func(sqltypes.Row) bool { return true }); err == nil {
		t.Fatal("a newer prev was accepted")
	}
	other := newTable(t, 1)
	if err := last.ScanPartitionSince(other.Snapshot(), 0, func(sqltypes.Row) bool { return true }); err == nil {
		t.Fatal("another table's snapshot was accepted")
	}
}
