package view

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"indexeddf/internal/core"
	"indexeddf/internal/expr"
	"indexeddf/internal/faultpoint"
	"indexeddf/internal/sqltypes"
)

// Test fixture: table (k BIGINT key, grp BIGINT, val BIGINT), view
// SELECT grp, COUNT(*), SUM(val), MIN(val), MAX(val), AVG(val) GROUP BY grp.

func testSchema() *sqltypes.Schema {
	return sqltypes.NewSchema(
		sqltypes.Field{Name: "k", Type: sqltypes.Int64},
		sqltypes.Field{Name: "grp", Type: sqltypes.Int64},
		sqltypes.Field{Name: "val", Type: sqltypes.Int64, Nullable: true},
	)
}

func row(k, grp int64, val sqltypes.Value) sqltypes.Row {
	return sqltypes.Row{sqltypes.NewInt64(k), sqltypes.NewInt64(grp), val}
}

func i64(v int64) sqltypes.Value { return sqltypes.NewInt64(v) }

func testDef(base *core.IndexedTable, filter expr.Expr) Def {
	val := expr.B(2, sqltypes.Int64, "val")
	return Def{
		Name:     "v",
		SQL:      "SELECT ...",
		Base:     base,
		BaseName: "t",
		Filter:   filter,
		Groups:   []expr.Expr{expr.B(1, sqltypes.Int64, "grp")},
		Aggs: []expr.Agg{
			{Func: expr.CountStarAgg, Name: "cnt"},
			{Func: expr.SumAgg, Arg: val, Name: "sum"},
			{Func: expr.MinAgg, Arg: val, Name: "min"},
			{Func: expr.MaxAgg, Arg: val, Name: "max"},
			{Func: expr.AvgAgg, Arg: val, Name: "avg"},
		},
	}
}

func newBase(t *testing.T) *core.IndexedTable {
	t.Helper()
	base, err := core.NewIndexedTable(testSchema(), 0, core.Options{NumPartitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// oracle recomputes the view's expected rows from snap with an
// independent implementation.
func oracle(t *testing.T, snap *core.Snapshot, filter expr.Expr) map[int64][]sqltypes.Value {
	t.Helper()
	type st struct {
		n, sum, nonNull int64
		min, max        sqltypes.Value
	}
	groups := map[int64]*st{}
	for p := 0; p < snap.NumPartitions(); p++ {
		err := snap.ScanPartition(p, func(r sqltypes.Row) bool {
			if filter != nil {
				keep, err := expr.EvalPredicate(filter, r)
				if err != nil {
					t.Fatal(err)
				}
				if !keep {
					return true
				}
			}
			g := r[1].Int64Val()
			s := groups[g]
			if s == nil {
				s = &st{}
				groups[g] = s
			}
			s.n++
			if !r[2].IsNull() {
				v := r[2].Int64Val()
				s.nonNull++
				s.sum += v
				if s.min.IsNull() || v < s.min.Int64Val() {
					s.min = r[2]
				}
				if s.max.IsNull() || v > s.max.Int64Val() {
					s.max = r[2]
				}
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	out := map[int64][]sqltypes.Value{}
	for g, s := range groups {
		sum, avg := sqltypes.Null, sqltypes.Null
		if s.nonNull > 0 {
			sum = sqltypes.NewInt64(s.sum)
			avg = sqltypes.NewFloat64(float64(s.sum) / float64(s.nonNull))
		}
		out[g] = []sqltypes.Value{sqltypes.NewInt64(s.n), sum, s.min, s.max, avg}
	}
	return out
}

// checkAgainstOracle refreshes v and compares its rows with a recompute
// from the base table's current snapshot.
func checkAgainstOracle(t *testing.T, v *View, base *core.IndexedTable, filter expr.Expr) {
	t.Helper()
	want := oracle(t, base.Snapshot(), filter)
	rows, err := v.RefreshRows()
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, rows, want)
}

// checkRows compares a view's state rows with an oracle's.
func checkRows(t *testing.T, rows []sqltypes.Row, want map[int64][]sqltypes.Value) {
	t.Helper()
	if len(rows) != len(want) {
		t.Fatalf("view has %d groups, oracle %d", len(rows), len(want))
	}
	for _, r := range rows {
		g := r[0].Int64Val()
		exp, ok := want[g]
		if !ok {
			t.Fatalf("unexpected group %d", g)
		}
		for i, w := range exp {
			got := r[1+i]
			if w.T == sqltypes.Float64 {
				if got.IsNull() || math.Abs(got.Float64Val()-w.Float64Val()) > 1e-9 {
					t.Fatalf("group %d agg %d = %v, want %v", g, i, got, w)
				}
				continue
			}
			if !sqltypes.Equal(got, w) && !(got.IsNull() && w.IsNull()) {
				t.Fatalf("group %d agg %d = %v, want %v", g, i, got, w)
			}
		}
	}
}

func TestViewInitialBuildAndDeltaAppend(t *testing.T) {
	base := newBase(t)
	for i := int64(0); i < 50; i++ {
		if err := base.Append([]sqltypes.Row{row(i, i%5, i64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	v, err := New(testDef(base, nil))
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, v, base, nil)
	if v.Stats().FullRecomputes != 1 {
		t.Fatalf("full recomputes = %d after build", v.Stats().FullRecomputes)
	}

	// Appends fold incrementally: no further full recomputes.
	for i := int64(50); i < 80; i++ {
		if err := base.Append([]sqltypes.Row{row(i, i%7, i64(i*2))}); err != nil {
			t.Fatal(err)
		}
	}
	checkAgainstOracle(t, v, base, nil)
	st := v.Stats()
	if st.FullRecomputes != 1 {
		t.Fatalf("full recomputes = %d after delta refresh, want 1", st.FullRecomputes)
	}
	if st.DeltaRows != 30 {
		t.Fatalf("delta rows folded = %d, want 30", st.DeltaRows)
	}
}

func TestViewOverwriteStreamMatchesRecompute(t *testing.T) {
	// Load 10k distinct keys, then overwrite one key 1,000 times with
	// values that keep moving its group's MIN and MAX. Every version stays
	// visible, so the delta fold must equal a recompute at every step.
	base, err := core.NewIndexedTable(testSchema(), 0, core.Options{NumPartitions: 4, BatchSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	v, err := New(testDef(base, nil))
	if err != nil {
		t.Fatal(err)
	}
	const keys, overwrites, hot = 10000, 1000, int64(42)
	for step := int64(0); step < keys+overwrites; step++ {
		r := row(step, step%5, i64(step))
		if step >= keys {
			n := step - keys
			val := n * 7
			if n%2 == 1 {
				val = -val // alternately a new MIN and a new MAX
			}
			r = row(hot, n%3, i64(val))
		}
		if err := base.Append([]sqltypes.Row{r}); err != nil {
			t.Fatal(err)
		}
		if step%100 == 99 {
			checkAgainstOracle(t, v, base, nil)
		}
	}
	if st := v.Stats(); st.FullRecomputes != 1 || st.DeltaRows != keys+overwrites {
		t.Fatalf("stats = %+v, want one build and every row folded as a delta", st)
	}
}
func TestViewNullHandling(t *testing.T) {
	base := newBase(t)
	if err := base.Append([]sqltypes.Row{
		row(1, 0, sqltypes.Null),
		row(2, 0, sqltypes.Null),
		row(3, 1, i64(7)),
		row(4, 1, sqltypes.Null),
	}); err != nil {
		t.Fatal(err)
	}
	v, err := New(testDef(base, nil))
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, v, base, nil)
	// Overwrite a null contribution with a value, then a value with a null.
	if err := base.Append([]sqltypes.Row{row(4, 1, i64(9)), row(3, 1, sqltypes.Null)}); err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, v, base, nil)
}

func TestViewWithFilter(t *testing.T) {
	base := newBase(t)
	filter := expr.NewCmp(expr.Gt, expr.B(2, sqltypes.Int64, "val"), expr.LitInt64(10))
	for i := int64(0); i < 30; i++ {
		if err := base.Append([]sqltypes.Row{row(i, i%4, i64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	v, err := New(testDef(base, filter))
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, v, base, filter)
	// Overwrites filtered out must not disturb state; one that passes
	// the filter folds in beside its key's older version.
	if err := base.Append([]sqltypes.Row{row(5, 1, i64(3)), row(25, 1, i64(2)), row(26, 2, i64(40))}); err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, v, base, filter)
}

func TestViewGlobalAggregate(t *testing.T) {
	base := newBase(t)
	def := testDef(base, nil)
	def.Groups = nil
	v, err := New(def)
	if err != nil {
		t.Fatal(err)
	}
	// Empty table: exactly one row, COUNT 0, NULL everything else.
	rows, err := v.RefreshRows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int64Val() != 0 || !rows[0][1].IsNull() {
		t.Fatalf("global agg over empty = %v", rows)
	}
	for i := int64(0); i < 10; i++ {
		if err := base.Append([]sqltypes.Row{row(i, 0, i64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	rows, err = v.RefreshRows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int64Val() != 10 || rows[0][1].Int64Val() != 45 {
		t.Fatalf("global agg = %v", rows)
	}
}

func TestViewGlobalAggSurvivesEmptyThenRefill(t *testing.T) {
	// A global-aggregate view refreshed over an empty table emits one row;
	// once rows arrive, the emitted row follows the state, MIN/MAX included.
	base := newBase(t)
	def := testDef(base, nil)
	def.Groups = nil
	v, err := New(def)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := v.RefreshRows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int64Val() != 0 || !rows[0][2].IsNull() {
		t.Fatalf("empty global agg = %v", rows)
	}
	if err := base.Append([]sqltypes.Row{row(2, 0, i64(9))}); err != nil {
		t.Fatal(err)
	}
	rows, err = v.RefreshRows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int64Val() != 1 || rows[0][2].Int64Val() != 9 || rows[0][3].Int64Val() != 9 {
		t.Fatalf("refilled global agg = %v (count, min stale?)", rows)
	}
}
func TestViewGroupChurnBoundsOrder(t *testing.T) {
	// Keys overwritten over and over move their newest version between
	// groups; the emission order keeps exactly one slot per group.
	base := newBase(t)
	v, err := New(testDef(base, nil))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 2000; i++ {
		if err := base.Append([]sqltypes.Row{row(i%10, i%7, i64(i))}); err != nil {
			t.Fatal(err)
		}
		if i%100 == 99 {
			if _, err := v.RefreshRows(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := v.RefreshRows(); err != nil {
		t.Fatal(err)
	}
	v.mu.Lock()
	orderLen, groups := len(v.order), len(v.state)
	v.mu.Unlock()
	if orderLen != groups || groups != 7 {
		t.Fatalf("order holds %d slots for %d groups, want 7 each", orderLen, groups)
	}
	checkAgainstOracle(t, v, base, nil)
}

// TestViewRefreshFaultForcesOneRebuild: a failed append publishes
// nothing, so the view folds on without a rebuild; a refresh that fails
// once it has started folding forces exactly one rebuild, after which
// delta folding resumes.
func TestViewRefreshFaultForcesOneRebuild(t *testing.T) {
	defer faultpoint.Reset()
	base := newBase(t)
	for i := int64(0); i < 10; i++ {
		if err := base.Append([]sqltypes.Row{row(i%3, i%3, i64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	v, err := New(testDef(base, nil))
	if err != nil {
		t.Fatal(err)
	}
	bad := sqltypes.Row{i64(1), i64(1), sqltypes.NewString("boom")}
	if err := base.Append([]sqltypes.Row{row(1, 1, i64(50)), bad}); err == nil {
		t.Fatal("expected encode failure")
	}
	checkAgainstOracle(t, v, base, nil)
	if n := v.Stats().FullRecomputes; n != 1 {
		t.Fatalf("full recomputes = %d after a failed batch, want the initial build only", n)
	}

	if err := base.Append([]sqltypes.Row{row(2, 2, i64(60))}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("refresh blew up")
	faultpoint.Arm(faultpoint.ViewRefresh, faultpoint.Schedule{Err: boom, Limit: 1})
	if err := v.Refresh(); !errors.Is(err, boom) {
		t.Fatalf("refresh err = %v, want the injected failure", err)
	}
	checkAgainstOracle(t, v, base, nil)
	if n := v.Stats().FullRecomputes; n != 2 {
		t.Fatalf("full recomputes = %d after a failed refresh, want exactly one rebuild", n)
	}

	if err := base.Append([]sqltypes.Row{row(99, 9, i64(99))}); err != nil {
		t.Fatal(err)
	}
	delta := v.Stats().DeltaRows
	checkAgainstOracle(t, v, base, nil)
	if st := v.Stats(); st.FullRecomputes != 2 || st.DeltaRows != delta+1 {
		t.Fatalf("stats = %+v after the rebuild, want the next append folded as a delta", st)
	}
}
func TestViewMatchesCanonical(t *testing.T) {
	base := newBase(t)
	v, err := New(testDef(base, nil))
	if err != nil {
		t.Fatal(err)
	}
	// Same shape, different display names (alias-insensitive).
	groups := []expr.Expr{expr.B(1, sqltypes.Int64, "t.grp")}
	aggs := []expr.Agg{
		{Func: expr.SumAgg, Arg: expr.B(2, sqltypes.Int64, "t.val")},
		{Func: expr.CountStarAgg},
	}
	cols, ok := v.MatchesAggregate(base, nil, groups, aggs)
	if !ok {
		t.Fatal("expected match")
	}
	// State layout: grp, cnt, sum, min, max, avg → want [0 2 1].
	if fmt.Sprint(cols) != "[0 2 1]" {
		t.Fatalf("cols = %v", cols)
	}
	// Different ordinal: no match.
	if _, ok := v.MatchesAggregate(base, nil, []expr.Expr{expr.B(2, sqltypes.Int64, "grp")}, nil); ok {
		t.Fatal("group on different column must not match")
	}
	// Unknown aggregate argument: no match.
	if _, ok := v.MatchesAggregate(base, nil, groups, []expr.Agg{
		{Func: expr.SumAgg, Arg: expr.B(1, sqltypes.Int64, "grp")},
	}); ok {
		t.Fatal("SUM over a different column must not match")
	}
	// Filter mismatch: no match.
	f := expr.NewCmp(expr.Gt, expr.B(2, sqltypes.Int64, "val"), expr.LitInt64(1))
	if _, ok := v.MatchesAggregate(base, f, groups, aggs); ok {
		t.Fatal("filtered query must not match unfiltered view")
	}
}

func TestViewRowsSorted(t *testing.T) {
	// Deterministic emission order sanity: groups come out in first-seen
	// order; sorting them yields the oracle's key set.
	base := newBase(t)
	for i := int64(0); i < 30; i++ {
		if err := base.Append([]sqltypes.Row{row(i, i%6, i64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	v, err := New(testDef(base, nil))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := v.RefreshRows()
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, r := range rows {
		got = append(got, r[0].Int64Val())
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if fmt.Sprint(got) != "[0 1 2 3 4 5]" {
		t.Fatalf("groups = %v", got)
	}
}

// TestViewBuiltDuringAppendsMatchesRecompute builds views while a writer
// appends and refreshes each several times before the writer stops; after
// every refresh the state must equal a recompute from the very snapshot
// the view reports it reflects.
func TestViewBuiltDuringAppendsMatchesRecompute(t *testing.T) {
	for round := 0; round < 10; round++ {
		base := newBase(t)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := int64(0); i < 200; i++ {
				rows := make([]sqltypes.Row, 8)
				for j := range rows {
					k := i*8 + int64(j)
					rows[j] = row(k, k%5, i64(k))
				}
				if err := base.Append(rows); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		v, err := New(testDef(base, nil))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			rows, err := v.RefreshRows()
			if err != nil {
				t.Fatal(err)
			}
			// Only this goroutine refreshes v, so its snapshot stays put.
			v.mu.Lock()
			snap := v.snap
			v.mu.Unlock()
			if snap.Version() != v.RefreshedVersion() {
				t.Fatalf("view at snapshot %d reports version %d", snap.Version(), v.RefreshedVersion())
			}
			checkRows(t, rows, oracle(t, snap, nil))
		}
		<-done
		checkAgainstOracle(t, v, base, nil)
	}
}

// TestViewKeepsNoCopyOfAppendedRows: appends to a viewed table that is not
// refreshed grow the heap no more than the same appends to an unviewed
// twin, because a view's delta is read back from the row batches rather
// than kept aside; one refresh then folds every row.
func TestViewKeepsNoCopyOfAppendedRows(t *testing.T) {
	const n, batch = 100_000, 100
	heapLive := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	grow := func(tbl *core.IndexedTable) int64 {
		before := heapLive()
		for lo := int64(0); lo < n; lo += batch {
			rows := make([]sqltypes.Row, batch)
			for j := range rows {
				k := lo + int64(j)
				rows[j] = row(k, k%5, i64(k))
			}
			if err := tbl.Append(rows); err != nil {
				t.Fatal(err)
			}
		}
		return heapLive() - before
	}
	twin := newBase(t)
	plain := grow(twin)
	base := newBase(t)
	v, err := New(testDef(base, nil))
	if err != nil {
		t.Fatal(err)
	}
	viewed := grow(base)
	runtime.KeepAlive(twin)
	t.Logf("heap growth for %d rows: viewed %d bytes, unviewed %d", n, viewed, plain)
	if limit := max(plain*11/10, plain+1<<20); viewed > limit {
		t.Fatalf("%d appended rows grew the heap by %d bytes on a viewed table, %d on an unviewed one (limit %d)",
			n, viewed, plain, limit)
	}
	checkAgainstOracle(t, v, base, nil)
	if st := v.Stats(); st.FullRecomputes != 1 || st.DeltaRows != n {
		t.Fatalf("stats = %+v, want the initial build and one refresh folding all %d rows", st, n)
	}
}
