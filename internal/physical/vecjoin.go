package physical

import (
	"errors"
	"fmt"

	"indexeddf/internal/catalog"
	"indexeddf/internal/core"
	"indexeddf/internal/expr"
	"indexeddf/internal/memory"
	"indexeddf/internal/obs"
	"indexeddf/internal/rdd"
	"indexeddf/internal/spill"
	"indexeddf/internal/sqltypes"
	"indexeddf/internal/vector"
)

// The vectorized joins cover inner equi-joins (outer joins need per-probe
// matched bookkeeping that conflicts with the batched residual post-filter,
// so they stay on the row operators). Probe keys are encoded
// batch-at-a-time into one reusable buffer, matches are appended
// column-wise into a reused output batch — no per-match joined-row
// allocation — and a residual predicate runs as a vectorized post-filter
// over the joined batch.

// appendJoined appends stream row i of b joined with the build row to out.
func appendJoined(out, b *vector.Batch, i int, build sqltypes.Row, streamIsLeft bool) error {
	if streamIsLeft {
		for c, col := range b.Cols {
			if err := out.Cols[c].Append(col.Get(i)); err != nil {
				return err
			}
		}
		off := len(b.Cols)
		for c, v := range build {
			if err := out.Cols[off+c].Append(v); err != nil {
				return err
			}
		}
	} else {
		for c, v := range build {
			if err := out.Cols[c].Append(v); err != nil {
				return err
			}
		}
		off := len(build)
		for c, col := range b.Cols {
			if err := out.Cols[off+c].Append(col.Get(i)); err != nil {
				return err
			}
		}
	}
	out.SetLen(out.Len() + 1)
	return nil
}

// appendJoinedRef appends stream row i of b joined with build-store row
// bi of bb — the columnar counterpart of appendJoined: no build row is
// ever materialized, both sides copy lane-to-lane.
func appendJoinedRef(out, b *vector.Batch, i int, bb *vector.Batch, bi int, streamIsLeft bool) error {
	if streamIsLeft {
		for c, col := range b.Cols {
			if err := out.Cols[c].Append(col.Get(i)); err != nil {
				return err
			}
		}
		off := len(b.Cols)
		for c, col := range bb.Cols {
			if err := out.Cols[off+c].Append(col.Get(bi)); err != nil {
				return err
			}
		}
	} else {
		for c, col := range bb.Cols {
			if err := out.Cols[c].Append(col.Get(bi)); err != nil {
				return err
			}
		}
		off := len(bb.Cols)
		for c, col := range b.Cols {
			if err := out.Cols[off+c].Append(col.Get(i)); err != nil {
				return err
			}
		}
	}
	out.SetLen(out.Len() + 1)
	return nil
}

// residualFilter applies a compiled residual to the joined batch, gathering
// survivors into filtered. Returns nil when nothing survives.
func residualFilter(residual *expr.VecExpr, out, filtered *vector.Batch, sel *[]int) (*vector.Batch, error) {
	if residual == nil || out.Len() == 0 {
		return out, nil
	}
	bools, err := residual.Eval(out)
	if err != nil {
		return nil, err
	}
	*sel = vector.SelectTrue(bools, (*sel)[:0])
	switch len(*sel) {
	case 0:
		return nil, nil
	case out.Len():
		return out, nil
	}
	vector.Gather(filtered, out, *sel)
	return filtered, nil
}

// compileResidual compiles an optional residual predicate.
func compileResidual(residual expr.Expr) (*expr.VecExpr, error) {
	if residual == nil {
		return nil, nil
	}
	ve, ok := expr.CompileVec(residual)
	if !ok {
		return nil, fmt.Errorf("physical: residual %s is not vectorizable", residual)
	}
	return ve, nil
}

// ---------------------------------------------------------------------------
// Batch-referencing build table

// joinRefBytes estimates one build row's table overhead beyond its batch
// bytes: the packed ref plus its share of bucket and map-entry state.
const joinRefBytes = 24

// vecJoinTable is the vectorized build-side hash table: build batches are
// retained whole in a store and buckets hold packed (batch, row) refs, so
// building never materializes a row and matches copy lane-to-lane at
// probe time. Rows with NULL keys are dropped at insert (they never join
// an inner equi-join).
type vecJoinTable struct {
	m     map[string]*refBucket
	store []*vector.Batch
}

type refBucket struct{ refs []int64 }

func newVecJoinTable() *vecJoinTable {
	return &vecJoinTable{m: make(map[string]*refBucket)}
}

// add retains b in the store and indexes its non-NULL-key rows.
func (t *vecJoinTable) add(b *vector.Batch, keys []int, buf *[]byte) {
	t.store = append(t.store, b)
	bi := int64(len(t.store)-1) << 32
	n := b.Len()
rows:
	for i := 0; i < n; i++ {
		for _, k := range keys {
			if b.Cols[k].IsNull(i) {
				continue rows // null keys never join
			}
		}
		*buf = (*buf)[:0]
		for _, k := range keys {
			*buf = AppendValueKey(*buf, b.Cols[k].Get(i))
		}
		bk := t.m[string(*buf)]
		if bk == nil {
			bk = &refBucket{}
			t.m[string(*buf)] = bk
		}
		bk.refs = append(bk.refs, bi|int64(i))
	}
}

// buildVecTableFromRows builds a referencing table from collected rows
// (the broadcast build side): rows pack into dense batches once, and the
// table indexes those.
func buildVecTableFromRows(rows []sqltypes.Row, schema *sqltypes.Schema, keys []int) (*vecJoinTable, error) {
	ht := newVecJoinTable()
	var buf []byte
	var cur *vector.Batch
	for _, r := range rows {
		if cur == nil || cur.Len() >= vector.DefaultBatchSize {
			if cur != nil {
				ht.add(cur, keys, &buf)
			}
			cur = vector.NewBatch(schema)
		}
		if err := cur.AppendRow(r); err != nil {
			return nil, err
		}
	}
	if cur != nil && cur.Len() > 0 {
		ht.add(cur, keys, &buf)
	}
	return ht, nil
}

// vecProbeIter joins stream batches against a build-side table.
type vecProbeIter struct {
	in            vector.BatchIter
	ht            *vecJoinTable
	keys          []int
	streamIsLeft  bool
	residual      *expr.VecExpr
	out, filtered *vector.Batch
	keyBuf        []byte
	sel           []int
	// st, when set, receives per-batch probe-side input counts (matches are
	// counted by the obs.Batches wrapper around this iterator). Grace-join
	// partition probes pass nil: their input was already counted when the
	// probe side was scattered.
	st *obs.OpStats
}

// Next implements vector.BatchIter.
func (it *vecProbeIter) Next() (*vector.Batch, error) {
	for {
		b, err := it.in.Next()
		if err != nil || b == nil {
			return nil, err
		}
		it.st.AddRowsIn(int64(b.Len()))
		it.out.Reset()
		n := b.Len()
	rows:
		for i := 0; i < n; i++ {
			for _, k := range it.keys {
				if b.Cols[k].IsNull(i) {
					continue rows // null keys never join
				}
			}
			it.keyBuf = it.keyBuf[:0]
			for _, k := range it.keys {
				it.keyBuf = AppendValueKey(it.keyBuf, b.Cols[k].Get(i))
			}
			if bk := it.ht.m[string(it.keyBuf)]; bk != nil {
				for _, ref := range bk.refs {
					bb := it.ht.store[ref>>32]
					if err := appendJoinedRef(it.out, b, i, bb, int(ref&0xffffffff), it.streamIsLeft); err != nil {
						return nil, err
					}
				}
			}
		}
		res, err := residualFilter(it.residual, it.out, it.filtered, &it.sel)
		if err != nil {
			return nil, err
		}
		if res != nil && res.Len() > 0 {
			return res, nil
		}
	}
}

// ---------------------------------------------------------------------------
// VecBroadcastHashJoin

// VecBroadcastHashJoinExec is the vectorized inner BroadcastHashJoinExec.
type VecBroadcastHashJoinExec struct {
	Stream, Build         Exec
	StreamKeys, BuildKeys []int
	BuildIsRight          bool
	Residual              expr.Expr
}

// NewVecBroadcastHashJoin builds a vectorized broadcast hash join (inner).
func NewVecBroadcastHashJoin(stream, build Exec, streamKeys, buildKeys []int,
	buildIsRight bool, residual expr.Expr) *VecBroadcastHashJoinExec {
	return &VecBroadcastHashJoinExec{Stream: stream, Build: build, StreamKeys: streamKeys,
		BuildKeys: buildKeys, BuildIsRight: buildIsRight, Residual: residual}
}

// Schema implements Exec.
func (j *VecBroadcastHashJoinExec) Schema() *sqltypes.Schema {
	if j.BuildIsRight {
		return j.Stream.Schema().Concat(j.Build.Schema())
	}
	return j.Build.Schema().Concat(j.Stream.Schema())
}

// Children implements Exec.
func (j *VecBroadcastHashJoinExec) Children() []Exec { return []Exec{j.Stream, j.Build} }

func (j *VecBroadcastHashJoinExec) String() string {
	return fmt.Sprintf("VecBroadcastHashJoin Inner skeys=%v bkeys=%v", j.StreamKeys, j.BuildKeys)
}

// Execute implements Exec.
func (j *VecBroadcastHashJoinExec) Execute(ec *ExecContext) (rdd.RDD, error) {
	buildRDD, err := j.Build.Execute(ec)
	if err != nil {
		return nil, err
	}
	buildRows, err := ec.RDD.CollectCtx(ec.Ctx, buildRDD)
	if err != nil {
		return nil, err
	}
	ht, err := buildVecTableFromRows(buildRows, j.Build.Schema(), j.BuildKeys)
	if err != nil {
		return nil, err
	}
	stream, err := j.Stream.Execute(ec)
	if err != nil {
		return nil, err
	}
	streamSchema := j.Stream.Schema()
	outSchema := j.Schema()
	sKeys, streamIsLeft := j.StreamKeys, j.BuildIsRight
	residual, err := ec.Bind(j.Residual)
	if err != nil {
		return nil, err
	}
	st := ec.Stats(j)
	return ec.RDD.NewBatchIterRDD(stream, 0, streamSchema, func(_ *rdd.TaskContext, _ int, in vector.BatchIter) (vector.BatchIter, error) {
		res, err := compileResidual(residual)
		if err != nil {
			return nil, err
		}
		return obs.Batches(st, &vecProbeIter{in: in, ht: ht, keys: sKeys, streamIsLeft: streamIsLeft,
			residual: res, out: vector.NewBatch(outSchema), filtered: vector.NewBatch(outSchema), st: st}), nil
	}), nil
}

// ---------------------------------------------------------------------------
// VecShuffleHashJoin

// VecShuffleHashJoinExec is the vectorized inner ShuffleHashJoinExec: both
// sides hash-partitioned, the right co-partition built into a table, the
// left probed through it batch-at-a-time. The build side's batches are
// cloned straight into the referencing table (no row conversion) and
// charged to the query budget; a build that outgrows it goes grace — see
// graceJoin.
type VecShuffleHashJoinExec struct {
	Left, Right         Exec
	LeftKeys, RightKeys []int
	Residual            expr.Expr
	NumPartitions       int
}

// NewVecShuffleHashJoin builds a vectorized shuffle hash join (inner).
func NewVecShuffleHashJoin(left, right Exec, leftKeys, rightKeys []int,
	residual expr.Expr, numPartitions int) *VecShuffleHashJoinExec {
	return &VecShuffleHashJoinExec{Left: left, Right: right, LeftKeys: leftKeys,
		RightKeys: rightKeys, Residual: residual, NumPartitions: numPartitions}
}

// Schema implements Exec.
func (j *VecShuffleHashJoinExec) Schema() *sqltypes.Schema {
	return j.Left.Schema().Concat(j.Right.Schema())
}

// Children implements Exec.
func (j *VecShuffleHashJoinExec) Children() []Exec { return []Exec{j.Left, j.Right} }

func (j *VecShuffleHashJoinExec) String() string {
	return fmt.Sprintf("VecShuffleHashJoin Inner lkeys=%v rkeys=%v", j.LeftKeys, j.RightKeys)
}

// Execute implements Exec. Both sides cross the columnar exchange: the
// probe side's batches splice straight through to the vectorized probe,
// and the build side's batches clone into the referencing hash table.
func (j *VecShuffleHashJoinExec) Execute(ec *ExecContext) (rdd.RDD, error) {
	left, err := j.Left.Execute(ec)
	if err != nil {
		return nil, err
	}
	right, err := j.Right.Execute(ec)
	if err != nil {
		return nil, err
	}
	ls := ec.RDD.NewBatchShuffledRDD(left, j.Left.Schema(), j.LeftKeys, j.NumPartitions)
	rs := ec.RDD.NewBatchShuffledRDD(right, j.Right.Schema(), j.RightKeys, j.NumPartitions)
	leftSchema := j.Left.Schema()
	rightSchema := j.Right.Schema()
	outSchema := j.Schema()
	lKeys, rKeys := j.LeftKeys, j.RightKeys
	residual, err := ec.Bind(j.Residual)
	if err != nil {
		return nil, err
	}
	st := ec.Stats(j)
	return ec.RDD.NewZipRDD(ls, rs, func(tc *rdd.TaskContext, _ int, lit, rit sqltypes.RowIter) (sqltypes.RowIter, error) {
		res, err := compileResidual(residual)
		if err != nil {
			return nil, err
		}
		gj := &graceJoin{
			tc: tc, st: st, outSchema: outSchema,
			buildKeys: rKeys, probeKeys: lKeys,
			streamIsLeft: true, residual: res,
		}
		gj.drv = fanDriver{tc: tc, st: st, op: "VecHashJoin",
			sides: []fanSide{{rightSchema, rKeys}, {leftSchema, lKeys}}, process: gj.joinPair}
		out, err := gj.run(
			vector.AsBatchIter(rit, rightSchema, vector.DefaultBatchSize),
			vector.AsBatchIter(lit, leftSchema, vector.DefaultBatchSize))
		if err != nil {
			return nil, err
		}
		// Wrap at the batch level so a downstream vectorized consumer's
		// AsBatchIter splices back to the instrumented iterator.
		return vector.NewRowIter(obs.Batches(st, out)), nil
	})
}

// ---------------------------------------------------------------------------
// Grace hash join

// graceJoin runs one co-partition of the shuffle hash join out-of-core
// when its build side outgrows the budget. The in-memory path clones
// build batches into the referencing table, charging each; when a
// reservation is refused (and a spill manager exists), both sides fan
// out (see fanDriver): the table's retained batches plus the rest of the
// build input scatter by build key into spilled runs, the entire probe
// input scatters by probe key with the same salt into matching runs, and
// the partition pairs then join one at a time — each pair's build fits
// or recurses at the next level. At maxSpillDepth a pair stops recursing
// and falls back to chunked probing: build what fits, re-read the pair's
// probe run per chunk.
type graceJoin struct {
	tc        *rdd.TaskContext
	st        *obs.OpStats
	outSchema *sqltypes.Schema
	buildKeys []int
	probeKeys []int
	// streamIsLeft is the output column order: probe columns first.
	streamIsLeft bool
	residual     *expr.VecExpr
	drv          fanDriver // sides: build, then probe
}

// run builds from bin and returns the join output over pin.
func (gj *graceJoin) run(bin, pin vector.BatchIter) (vector.BatchIter, error) {
	ht, charged, pending, err := gj.buildTable(nil, bin, true)
	if err != nil {
		return nil, err
	}
	if pending == nil {
		// The whole build side fits: probe straight through, returning the
		// table's charge when the output drains.
		return releaseOnDrain(gj.probeIter(pin, ht, gj.st), gj.tc.Mem(), charged), nil
	}
	fans, err := gj.drv.open(1)
	if err != nil {
		return nil, err
	}
	if err := gj.fanOut(fans, 1, ht, charged, pending, bin, pin, true); err != nil {
		return nil, err
	}
	return &gj.drv, nil
}

// fanOut moves an overflowed build into fans[0] — the table's retained
// batches, the refused clone, then the rest of bin — returning the
// table's charge, scatters the whole probe input into fans[1], and pushes
// the level's pairs. countIn counts input rows (level 1 only: deeper
// levels re-read runs whose rows were counted on the way in).
func (gj *graceJoin) fanOut(fans []*runFan, level int, ht *vecJoinTable, charged int64,
	pending *vector.Batch, bin, pin vector.BatchIter, countIn bool) error {
	for _, b := range ht.store {
		if err := fans[0].add(b); err != nil {
			return err
		}
	}
	if err := fans[0].add(pending); err != nil {
		return err
	}
	gj.tc.Mem().Release(charged)
	for i, in := range []vector.BatchIter{bin, pin} {
		for {
			if err := gj.tc.Err(); err != nil {
				return err
			}
			b, err := in.Next()
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			if countIn {
				gj.st.AddRowsIn(int64(b.Len()))
			}
			if err := fans[i].add(b); err != nil {
				return err
			}
		}
	}
	return gj.drv.push(fans, level)
}

// buildTable clones build batches into a referencing table, charging
// each retained clone (plus ref overhead). seed, when non-nil, is an
// already-cloned batch inserted first — charged if the budget allows,
// retained uncharged otherwise (the chunked fallback's progress
// guarantee: every chunk holds at least one batch). On a refused
// reservation with spilling available the current clone is returned as
// pending (uninserted) and in is left unconsumed; without spilling the
// error surfaces — a too-big build fails fast instead of OOMing.
func (gj *graceJoin) buildTable(seed *vector.Batch, in vector.BatchIter, countIn bool) (ht *vecJoinTable, charged int64, pending *vector.Batch, err error) {
	tc := gj.tc
	mem := tc.Mem()
	external := tc.Ctx.SpillManager().Enabled() && mem != nil
	ht = newVecJoinTable()
	var buf []byte
	if seed != nil {
		need := seed.MemBytes() + int64(seed.Len())*joinRefBytes
		if err := mem.Reserve("VecHashJoin", need); err == nil {
			charged += need
			gj.st.AddMem(need)
		} else if !errors.Is(err, memory.ErrMemoryExceeded) {
			return nil, charged, nil, err
		}
		ht.add(seed, gj.buildKeys, &buf)
	}
	for {
		if err := tc.Err(); err != nil {
			return nil, charged, nil, err
		}
		b, err := in.Next()
		if err != nil {
			return nil, charged, nil, err
		}
		if b == nil {
			return ht, charged, nil, nil
		}
		if countIn {
			gj.st.AddRowsIn(int64(b.Len()))
		}
		clone := b.Clone()
		need := clone.MemBytes() + int64(clone.Len())*joinRefBytes
		if rerr := mem.Reserve("VecHashJoin", need); rerr != nil {
			if !external || !errors.Is(rerr, memory.ErrMemoryExceeded) {
				return nil, charged, nil, rerr
			}
			return ht, charged, clone, nil
		}
		charged += need
		gj.st.AddMem(need)
		ht.add(clone, gj.buildKeys, &buf)
	}
}

// probeIter wires a probe input to a built table.
func (gj *graceJoin) probeIter(in vector.BatchIter, ht *vecJoinTable, st *obs.OpStats) vector.BatchIter {
	return &vecProbeIter{in: in, ht: ht, keys: gj.probeKeys, streamIsLeft: gj.streamIsLeft,
		residual: gj.residual, out: vector.NewBatch(gj.outSchema), filtered: vector.NewBatch(gj.outSchema), st: st}
}

// joinPair joins one partition pair: build its build run into a table,
// stream its probe run through. Resident state is bounded by one pair's
// build table. Returns (nil, nil) when the pair's build overflowed and
// its sub-pairs were pushed instead.
func (gj *graceJoin) joinPair(pair spillPart) (vector.BatchIter, error) {
	tc := gj.tc
	build, probe := pair.runs[0], pair.runs[1]
	bin, err := build.Open(tc.Err, true)
	if err != nil {
		return nil, err
	}
	ht, charged, pending, err := gj.buildTable(nil, bin, false)
	if err != nil {
		return nil, err
	}
	if pending == nil {
		pit, err := probe.Open(tc.Err, true)
		if err != nil {
			return nil, err
		}
		return releaseOnDrain(gj.probeIter(pit, ht, nil), tc.Mem(), charged), nil
	}
	fans, err := gj.drv.open(pair.level + 1)
	if errors.Is(err, errSpillDepth) {
		// Can't subdivide further: join in chunks against the re-readable
		// probe run.
		return newChunkedJoin(gj, ht, charged, pending, bin, probe), nil
	}
	if err != nil {
		return nil, err
	}
	pit, err := probe.Open(tc.Err, true)
	if err != nil {
		return nil, err
	}
	return nil, gj.fanOut(fans, pair.level+1, ht, charged, pending, bin, pit, false)
}

// chunkedJoinIter is the depth-cap fallback: the build run is consumed
// in what-fits chunks, and the whole probe run is re-read per chunk.
// Each build row lands in exactly one chunk, so the union of chunk
// outputs is exactly the pair's inner join; the cost is probe re-reads
// proportional to the overflow factor — paid only when maxSpillDepth
// salted levels couldn't isolate a budget-sized build, in practice a hot
// build key whose duplicates no salt splits.
type chunkedJoinIter struct {
	gj      *graceJoin
	ht      *vecJoinTable
	charged int64
	pending *vector.Batch
	bin     vector.BatchIter // remaining build input (nil once exhausted)
	probe   *spill.Run
	cur     vector.BatchIter // probe pass over the current chunk
	done    bool
}

func newChunkedJoin(gj *graceJoin, ht *vecJoinTable, charged int64, pending *vector.Batch, bin vector.BatchIter, probe *spill.Run) *chunkedJoinIter {
	return &chunkedJoinIter{gj: gj, ht: ht, charged: charged, pending: pending, bin: bin, probe: probe}
}

// Next implements vector.BatchIter.
func (it *chunkedJoinIter) Next() (*vector.Batch, error) {
	gj := it.gj
	for {
		if it.done {
			return nil, nil
		}
		if it.cur == nil {
			if it.ht == nil {
				// Build the next chunk, seeded by the batch that overflowed
				// the previous one.
				ht, charged, pending, err := gj.buildTable(it.pending, it.bin, false)
				if err != nil {
					return nil, err
				}
				it.ht, it.charged, it.pending = ht, charged, pending
				if pending == nil {
					it.bin = nil // build input exhausted; this is the last pass
				}
			}
			// Re-readable probe pass: no autoRelease — the run must survive
			// until the last chunk.
			pit, err := it.probe.Open(gj.tc.Err, false)
			if err != nil {
				return nil, err
			}
			it.cur = gj.probeIter(pit, it.ht, nil)
		}
		b, err := it.cur.Next()
		if b != nil || err != nil {
			return b, err
		}
		// Chunk finished: return its charge and move on.
		it.cur = nil
		it.ht = nil
		gj.tc.Mem().Release(it.charged)
		it.charged = 0
		if it.bin == nil && it.pending == nil {
			it.probe.Release()
			it.done = true
			return nil, nil
		}
	}
}

// ---------------------------------------------------------------------------
// VecIndexedJoin

// VecIndexedJoinExec is the vectorized inner IndexedJoinExec: probe rows
// stream through in batches, each key answered by a Ctrie lookup plus a
// backward-chain walk whose decoded rows are appended column-wise into the
// output batch (the row operator allocates one joined row per match).
type VecIndexedJoinExec struct {
	Indexed       *catalog.IndexedTable
	Probe         Exec
	ProbeKey      int
	IndexedIsLeft bool
	Broadcast     bool
	Residual      expr.Expr
	schema        *sqltypes.Schema
}

// NewVecIndexedJoin builds a vectorized indexed join (inner).
func NewVecIndexedJoin(indexed *catalog.IndexedTable, probe Exec, probeKey int,
	indexedIsLeft, broadcast bool, residual expr.Expr, outSchema *sqltypes.Schema) *VecIndexedJoinExec {
	return &VecIndexedJoinExec{Indexed: indexed, Probe: probe, ProbeKey: probeKey,
		IndexedIsLeft: indexedIsLeft, Broadcast: broadcast, Residual: residual, schema: outSchema}
}

// Schema implements Exec.
func (j *VecIndexedJoinExec) Schema() *sqltypes.Schema { return j.schema }

// Children implements Exec.
func (j *VecIndexedJoinExec) Children() []Exec { return []Exec{j.Probe} }

func (j *VecIndexedJoinExec) String() string {
	mode := "shuffle"
	if j.Broadcast {
		mode = "broadcast"
	}
	return fmt.Sprintf("VecIndexedJoin Inner %s build=%s probeKey=%d", mode, j.Indexed.Name(), j.ProbeKey)
}

// Execute implements Exec.
func (j *VecIndexedJoinExec) Execute(ec *ExecContext) (rdd.RDD, error) {
	snap := ec.SnapshotOf(j.Indexed.Core())
	probeRDD, err := j.Probe.Execute(ec)
	if err != nil {
		return nil, err
	}
	n := snap.NumPartitions()
	probeSchema := j.Probe.Schema()
	outSchema := j.schema
	residual, err := ec.Bind(j.Residual)
	if err != nil {
		return nil, err
	}
	st := ec.Stats(j)
	mkIter := func(in vector.BatchIter, p int) (vector.BatchIter, error) {
		res, err := compileResidual(residual)
		if err != nil {
			return nil, err
		}
		return obs.Batches(st, &vecIndexedJoinIter{in: in, snap: snap, part: p, probeKey: j.ProbeKey,
			indexedIsLeft: j.IndexedIsLeft, residual: res,
			decodeRow: make(sqltypes.Row, j.Indexed.Schema().Len()),
			out:       vector.NewBatch(outSchema), filtered: vector.NewBatch(outSchema), st: st}), nil
	}
	if j.Broadcast {
		probeRows, err := ec.RDD.CollectCtx(ec.Ctx, probeRDD)
		if err != nil {
			return nil, err
		}
		// Route each probe row to its key's home partition on the driver.
		routed := make([][]sqltypes.Row, n)
		for _, r := range probeRows {
			key := r[j.ProbeKey]
			if key.IsNull() {
				continue
			}
			p := snap.PartitionFor(key)
			routed[p] = append(routed[p], r)
		}
		return ec.RDD.NewBatchIterRDD(nil, n, nil, func(_ *rdd.TaskContext, p int, _ vector.BatchIter) (vector.BatchIter, error) {
			return mkIter(batchRows(routed[p], nil, probeSchema), p)
		}), nil
	}
	// Shuffle mode: the probe side crosses the columnar exchange keyed on
	// the probe column — the batch hash kernel routes exactly like the
	// index partitioning (snapshot.PartitionFor), so each reduce task
	// probes its co-partitioned Ctrie with spliced-through batches.
	shuffled := ec.RDD.NewBatchShuffledRDD(probeRDD, probeSchema, []int{j.ProbeKey}, n)
	return ec.RDD.NewBatchIterRDD(shuffled, 0, probeSchema, func(_ *rdd.TaskContext, p int, in vector.BatchIter) (vector.BatchIter, error) {
		return mkIter(in, p)
	}), nil
}

type vecIndexedJoinIter struct {
	in            vector.BatchIter
	snap          *core.Snapshot
	part          int
	probeKey      int
	indexedIsLeft bool
	residual      *expr.VecExpr
	decodeRow     sqltypes.Row
	out, filtered *vector.Batch
	sel           []int
	st            *obs.OpStats
}

// Next implements vector.BatchIter.
func (it *vecIndexedJoinIter) Next() (*vector.Batch, error) {
	for {
		b, err := it.in.Next()
		if err != nil || b == nil {
			return nil, err
		}
		it.st.AddRowsIn(int64(b.Len()))
		it.out.Reset()
		n := b.Len()
		keyCol := b.Cols[it.probeKey]
		for i := 0; i < n; i++ {
			if keyCol.IsNull(i) {
				continue
			}
			ptr, ok, err := it.snap.LookupPtr(it.part, keyCol.Get(i))
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			var appendErr error
			err = it.snap.ChainEachInto(it.part, ptr, it.decodeRow, func(indexedRow sqltypes.Row) bool {
				appendErr = appendJoined(it.out, b, i, indexedRow, !it.indexedIsLeft)
				return appendErr == nil
			})
			if err != nil {
				return nil, err
			}
			if appendErr != nil {
				return nil, appendErr
			}
		}
		res, err := residualFilter(it.residual, it.out, it.filtered, &it.sel)
		if err != nil {
			return nil, err
		}
		if res != nil && res.Len() > 0 {
			return res, nil
		}
	}
}
