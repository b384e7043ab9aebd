package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"indexeddf"
	"indexeddf/internal/catalog"
	"indexeddf/internal/columnar"
	"indexeddf/internal/core"
	"indexeddf/internal/ctrie"
	"indexeddf/internal/expr"
	"indexeddf/internal/memory"
	"indexeddf/internal/rowbatch"
	"indexeddf/internal/spill"
	"indexeddf/internal/sqlparser"
	"indexeddf/internal/sqltypes"
	"indexeddf/internal/stats"
	"indexeddf/internal/vector"
)

// probeInputs are a workload's own inputs, replayed directly through each
// layer's exported functions: the rows of its main table, which columns it
// keys, filters and sorts on, and the i-th distinct text of its SQL shape.
type probeInputs struct {
	schema                     *sqltypes.Schema
	keyCol, filterCol, sortCol int
	rows                       []sqltypes.Row
	sqlText                    func(i int) string
}

// maxProbeRows bounds a probe's input so the traced pass stays short.
const maxProbeRows = 1 << 16

// layerMetric is one per-layer number with the work behind it.
type layerMetric struct {
	name  string
	unit  string
	value float64
	count int           // calls or rows measured
	busy  time.Duration // time spent inside the layer while measuring
}

type layerReport struct{ metrics []layerMetric }

func (r *layerReport) add(name, unit string, value float64, count int, busy time.Duration) {
	r.metrics = append(r.metrics, layerMetric{name, unit, value, count, busy})
}

// perUnit records busy/count in the given time unit (ns or us).
func (r *layerReport) perUnit(name, unit string, count int, busy time.Duration) {
	div := 1.0
	if unit == "us" {
		div = 1e3
	}
	v := 0.0
	if count > 0 {
		v = float64(busy.Nanoseconds()) / float64(count) / div
	}
	r.add(name, unit, v, count, busy)
}

// firstError keeps the first error a timed loop meets, so the loop itself
// stays free of early returns.
type firstError struct{ err error }

func (f *firstError) keep(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

func timeIt(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// medianDur times fn(i) for i in [0,n) and returns the median and the total.
func medianDur(n int, fn func(i int)) (med, total time.Duration) {
	ds := make([]int64, n)
	for i := range ds {
		d := timeIt(func() { fn(i) })
		ds[i] = d.Nanoseconds()
		total += d
	}
	v, _ := percentile(sortedCopy(ds), 0.5)
	return time.Duration(v), total
}

// runProbes replays the workload's inputs through every layer below the
// session API. Each probe builds private state, so the workload's own
// session is left as the run left it (the planner probe only fills its
// plan cache).
func runProbes(e *env, p params, r *layerReport) error {
	in := e.probe
	rows := in.rows
	if len(rows) > maxProbeRows {
		rows = rows[:maxProbeRows]
	}
	if len(rows) < 2*appendBatch {
		return fmt.Errorf("probes: workload exposes only %d rows", len(rows))
	}
	if err := probeFrontEnd(e.sess, in, r); err != nil {
		return err
	}
	probeCtrie(in, rows, r)
	if err := probeRowBatch(in, rows, r); err != nil {
		return err
	}
	if err := probeCore(in, rows, r); err != nil {
		return err
	}
	batches, err := toBatches(in.schema, rows)
	if err != nil {
		return err
	}
	if err := probeVector(in, batches, len(rows), r); err != nil {
		return err
	}
	probeMemory(r)
	if err := probeSpill(in, batches, p.tmpDir, r); err != nil {
		return err
	}
	if err := probeView(in, rows, r); err != nil {
		return err
	}
	probeStats(in, rows, r)
	return nil
}

// probeFrontEnd times sqlparser (Normalize + ParseStatement) and opt (a
// cache-missing Session.Prepare minus the parse) on distinct texts of the
// workload's SQL shape.
func probeFrontEnd(sess *indexeddf.Session, in probeInputs, r *layerReport) error {
	const n = 200
	resolve := func(name string) (catalog.Table, error) {
		if t, ok := sess.LookupTable(name); ok {
			return t, nil
		}
		return nil, fmt.Errorf("table %q not found", name)
	}
	texts := make([]string, 2*n)
	for i := range texts {
		texts[i] = in.sqlText(i)
	}
	var fe firstError
	parse, parseBusy := medianDur(n, func(i int) {
		text, err := sqlparser.Normalize(texts[i])
		fe.keep(err)
		_, err = sqlparser.ParseStatement(text, resolve)
		fe.keep(err)
	})
	// Texts n..2n have not been seen by the plan cache.
	prepare, prepBusy := medianDur(n, func(i int) {
		_, err := sess.Prepare(texts[n+i])
		fe.keep(err)
	})
	if fe.err != nil {
		return fmt.Errorf("front-end probe: %w", fe.err)
	}
	plan := prepare - parse
	if plan < 0 {
		plan = 0
	}
	r.add("sqlparser.parse_us", "us", float64(parse.Nanoseconds())/1e3, n, parseBusy)
	r.add("opt.plan_us", "us", float64(plan.Nanoseconds())/1e3, n, prepBusy-parseBusy)
	return nil
}

// probeCtrie inserts, looks up and snapshots the workload's distinct keys.
func probeCtrie(in probeInputs, rows []sqltypes.Row, r *layerReport) {
	seen := map[sqltypes.Value]bool{}
	var keys []sqltypes.Value
	for _, row := range rows {
		if k := row[in.keyCol]; !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	// Same spread as the storage layer gives its tries: the value hash
	// through a splitmix64 finalizer.
	hasher := func(v sqltypes.Value) uint64 {
		z := v.Hash64()
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	trie := ctrie.New[sqltypes.Value, rowbatch.Ptr](hasher)
	r.perUnit("ctrie.insert_ns", "ns", len(keys), timeIt(func() {
		for i, k := range keys {
			trie.Insert(k, rowbatch.Ptr(i+1))
		}
	}))
	order := rand.New(rand.NewSource(1)).Perm(len(keys))
	misses := 0
	r.perUnit("ctrie.lookup_ns", "ns", len(keys), timeIt(func() {
		for _, i := range order {
			if _, ok := trie.Lookup(keys[i]); !ok {
				misses++
			}
		}
	}))
	if misses > 0 {
		fmt.Printf("PROBE ctrie: %d of %d inserted keys not found\n", misses, len(keys))
	}
	// A snapshot is O(1) to take; its cost lands on the next insert, which
	// copies the path it touches into the new generation. Time the pair.
	const snaps = 2000
	r.perUnit("ctrie.snapshot_ns", "ns", snaps, timeIt(func() {
		for i := 0; i < snaps; i++ {
			_ = trie.ReadOnlySnapshot()
			trie.Insert(keys[i%len(keys)], rowbatch.Ptr(i+1))
		}
	}))
}

// probeRowBatch appends the workload's encoded rows to a row-batch set and
// reads them back through their packed pointers.
func probeRowBatch(in probeInputs, rows []sqltypes.Row, r *layerReport) error {
	codec := sqltypes.NewRowCodec(in.schema)
	payloads := make([][]byte, len(rows))
	for i, row := range rows {
		b, err := codec.Encode(nil, row)
		if err != nil {
			return fmt.Errorf("rowbatch probe: %w", err)
		}
		payloads[i] = b
	}
	set := rowbatch.NewSet(rowbatch.DefaultBatchSize)
	ptrs := make([]rowbatch.Ptr, len(payloads))
	var fe firstError
	r.perUnit("rowbatch.append_ns_row", "ns", len(payloads), timeIt(func() {
		prev := rowbatch.Nil
		for i, pl := range payloads {
			ptr, err := set.Append(prev, pl)
			fe.keep(err)
			ptrs[i], prev = ptr, ptr
		}
	}))
	r.perUnit("rowbatch.read_ns_row", "ns", len(ptrs), timeIt(func() {
		for _, ptr := range ptrs {
			_, _, err := set.Read(ptr)
			fe.keep(err)
		}
	}))
	if fe.err != nil {
		return fmt.Errorf("rowbatch probe: %w", fe.err)
	}
	return nil
}

// probeCore drives the Indexed DataFrame storage engine directly: batched
// appends, snapshots, point lookups, partition scans, and its footprint.
func probeCore(in probeInputs, rows []sqltypes.Row, r *layerReport) error {
	table, err := core.NewIndexedTable(in.schema, in.keyCol, core.Options{NumPartitions: engineConfig().TablePartitions})
	if err != nil {
		return err
	}
	var fe firstError
	r.perUnit("core.append_us_row", "us", len(rows), timeIt(func() {
		for lo := 0; lo < len(rows); lo += appendBatch {
			hi := lo + appendBatch
			if hi > len(rows) {
				hi = len(rows)
			}
			fe.keep(table.Append(rows[lo:hi]))
		}
	}))
	if fe.err != nil {
		return fmt.Errorf("core probe: append: %w", fe.err)
	}
	const snaps = 2000
	r.perUnit("core.snapshot_us", "us", snaps, timeIt(func() {
		for i := 0; i < snaps; i++ {
			_ = table.Snapshot()
		}
	}))
	snap := table.Snapshot()
	const lookups = 5000
	rng := rand.New(rand.NewSource(1))
	found := 0
	r.perUnit("core.get_rows_us", "us", lookups, timeIt(func() {
		for i := 0; i < lookups; i++ {
			got, err := snap.GetRows(rows[rng.Intn(len(rows))][in.keyCol])
			fe.keep(err)
			found += len(got)
		}
	}))
	if fe.err != nil || found < lookups {
		return fmt.Errorf("core probe: %d lookups found %d rows, err %v", lookups, found, fe.err)
	}
	scanned := 0
	r.perUnit("core.scan_ns_row", "ns", len(rows), timeIt(func() {
		for p := 0; p < snap.NumPartitions(); p++ {
			fe.keep(snap.ScanPartition(p, func(sqltypes.Row) bool { scanned++; return true }))
		}
	}))
	if fe.err != nil || scanned != len(rows) {
		return fmt.Errorf("core probe: scan saw %d of %d rows, err %v", scanned, len(rows), fe.err)
	}
	batchBytes, dataBytes, indexBytes := table.MemoryUsage()
	r.add("core.bytes_per_user_byte", "ratio", float64(batchBytes+indexBytes)/float64(dataBytes), len(rows), 0)
	return nil
}

func toBatches(schema *sqltypes.Schema, rows []sqltypes.Row) ([]*vector.Batch, error) {
	var out []*vector.Batch
	for lo := 0; lo < len(rows); lo += vector.DefaultBatchSize {
		hi := lo + vector.DefaultBatchSize
		if hi > len(rows) {
			hi = len(rows)
		}
		b := vector.NewBatch(schema)
		for _, row := range rows[lo:hi] {
			if err := b.AppendRow(row); err != nil {
				return nil, err
			}
		}
		out = append(out, b)
	}
	return out, nil
}

// probeVector runs the three kernel families over the workload's batches:
// a compiled comparison with selection and gather, the hash scatter, and
// the index sort.
func probeVector(in probeInputs, batches []*vector.Batch, nRows int, r *layerReport) error {
	const rounds = 5
	// Filter on the middle value of the filter column: half the rows pass.
	mid := batches[len(batches)/2].Row(0)[in.filterCol]
	bound, err := expr.Bind(expr.NewCmp(expr.Gt, expr.C(in.schema.Field(in.filterCol).Name), expr.Lit(mid)), in.schema)
	if err != nil {
		return fmt.Errorf("vector probe: %w", err)
	}
	kernel, ok := expr.CompileVec(bound)
	if !ok {
		return fmt.Errorf("vector probe: %s does not vectorize", bound)
	}
	var fe firstError
	var sel []int
	r.perUnit("vector.filter_ns_row", "ns", rounds*nRows, timeIt(func() {
		for i := 0; i < rounds; i++ {
			for _, b := range batches {
				bools, err := kernel.Eval(b)
				if err != nil {
					fe.keep(err)
					continue
				}
				sel = vector.SelectTrue(bools, sel[:0])
				out := vector.NewBatch(in.schema)
				vector.Gather(out, b, sel)
			}
		}
	}))
	if fe.err != nil {
		return fmt.Errorf("vector probe: %w", fe.err)
	}
	r.perUnit("vector.scatter_ns_row", "ns", rounds*nRows, timeIt(func() {
		for i := 0; i < rounds; i++ {
			sc := vector.NewScatter(in.schema, []int{in.keyCol}, engineConfig().ShufflePartitions)
			for _, b := range batches {
				sc.Add(b)
			}
			_ = sc.Seal()
		}
	}))
	r.perUnit("vector.sort_ns_row", "ns", rounds*nRows, timeIt(func() {
		for i := 0; i < rounds; i++ {
			lanes := vector.NewKeyLanes([]sqltypes.Type{in.schema.Field(in.sortCol).Type})
			for _, b := range batches {
				lanes.AppendCols([]*columnar.Vector{b.Cols[in.sortCol]})
			}
			_ = vector.SortIndices(lanes, []bool{false})
		}
	}))
	return nil
}

// probeMemory times one Reserve/Release pair on a query tracker.
func probeMemory(r *layerReport) {
	const n = 200_000
	pool := memory.NewPool(1 << 30)
	tracker := pool.NewTracker("probe", 1<<29)
	defer tracker.Close()
	r.perUnit("memory.reserve_ns", "ns", n, timeIt(func() {
		for i := 0; i < n; i++ {
			if tracker.Reserve("probe", 4096) == nil {
				tracker.Release(4096)
			}
		}
	}))
}

// probeSpill streams the workload's batches into one run file and back.
// The file is served from the page cache here: the rates bound the codec,
// not a device.
func probeSpill(in probeInputs, batches []*vector.Batch, tmpDir string, r *layerReport) error {
	dir, err := os.MkdirTemp(tmpDir, "probe-spill")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	m := spill.NewManager(dir)
	defer m.Close()
	run := m.NewRun("probe", in.schema, nil, nil, nil)
	if err := run.SpillNow(); err != nil {
		return fmt.Errorf("spill probe: %w", err)
	}
	var fe firstError
	keep := fe.keep
	write := timeIt(func() {
		for _, b := range batches {
			keep(run.Append(b.Clone())) // the run takes ownership
		}
		keep(run.Seal())
	})
	rowsBack := 0
	read := timeIt(func() {
		it, err := run.Open(nil, true)
		if err != nil {
			keep(err)
			return
		}
		for {
			b, err := it.Next()
			if err != nil || b == nil {
				keep(err)
				return
			}
			rowsBack += b.Len()
		}
	})
	if fe.err != nil {
		return fmt.Errorf("spill probe: %w", fe.err)
	}
	mbs := func(bytes int64, d time.Duration) float64 { return float64(bytes) / (1 << 20) / d.Seconds() }
	r.add("spill.write_mb_s", "MB/s", mbs(m.BytesWritten(), write), len(batches), write)
	r.add("spill.read_mb_s", "MB/s", mbs(m.BytesRead(), read), len(batches), read)
	return nil
}

// probeView times a materialized view's delta refresh after each
// appendBatch-row append to its base table.
func probeView(in probeInputs, rows []sqltypes.Row, r *layerReport) error {
	sess := indexeddf.NewSession(engineConfig())
	defer sess.Close()
	t, err := sess.CreateIndexedTable("probe_t", in.schema, in.keyCol)
	if err != nil {
		return err
	}
	half := len(rows) / 2
	if _, err := t.AppendRowsSlice(rows[:half]); err != nil {
		return err
	}
	key := in.schema.Field(in.keyCol).Name
	if _, err := sess.CreateMaterializedView("probe_v", fmt.Sprintf("SELECT %s, COUNT(*) AS c FROM probe_t GROUP BY %s", key, key)); err != nil {
		return err
	}
	n := (len(rows) - half) / appendBatch
	if n > 100 {
		n = 100
	}
	ds := make([]int64, n)
	var busy time.Duration
	for i := range ds {
		lo := half + i*appendBatch
		if _, err := t.AppendRowsSlice(rows[lo : lo+appendBatch]); err != nil {
			return fmt.Errorf("view probe: %w", err)
		}
		t0 := time.Now()
		if err := sess.RefreshMaterializedView("probe_v"); err != nil {
			return fmt.Errorf("view probe: %w", err)
		}
		d := time.Since(t0)
		ds[i], busy = d.Nanoseconds(), busy+d
	}
	refresh, _ := percentile(sortedCopy(ds), 0.5)
	r.add("view.refresh_us", "us", float64(refresh)/1e3, n, busy)
	return nil
}

// probeStats times the incremental statistics hook an append pays.
func probeStats(in probeInputs, rows []sqltypes.Row, r *layerReport) {
	st := stats.NewTable(in.schema.Len())
	r.perUnit("stats.observe_ns_row", "ns", len(rows), timeIt(func() {
		for lo := 0; lo+appendBatch <= len(rows); lo += appendBatch {
			st.Observe(rows[lo : lo+appendBatch])
		}
	}))
}

// rowBytes is the user-data size of rows: their encoded payload bytes.
func rowBytes(schema *sqltypes.Schema, rows []sqltypes.Row) int64 {
	codec := sqltypes.NewRowCodec(schema)
	var n int64
	var buf []byte
	for _, r := range rows {
		b, err := codec.Encode(buf[:0], r)
		if err != nil {
			continue
		}
		n += int64(len(b))
		buf = b
	}
	return n
}
