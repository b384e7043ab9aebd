package physical

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"indexeddf/internal/columnar"
	"indexeddf/internal/expr"
	"indexeddf/internal/memory"
	"indexeddf/internal/obs"
	"indexeddf/internal/rdd"
	"indexeddf/internal/spill"
	"indexeddf/internal/sqltypes"
	"indexeddf/internal/vector"
)

// ---------------------------------------------------------------------------
// VecSort

// VecSortExec is the vectorized SortExec: each partition extracts its sort
// keys column-wise into typed lanes, sorts an index permutation without
// boxing a value, and gathers a sorted run; the runs then cross the
// columnar exchange and a k-way galloping merge streams the globally
// sorted result. Where SortExec drains every partition into one []Row and
// sorts row-at-a-time, this path keeps the data columnar end to end and
// its merge produces the first sorted row without materializing the rest.
// Ordering (NULL first ascending, ties in partition-then-arrival order)
// matches SortExec exactly.
type VecSortExec struct {
	Child  Exec
	Orders []SortOrder

	// Parallel is the number of range partitions the final merge stage
	// runs with (the planner sets ShufflePartitions, or 1 under the
	// SingleMerge ablation).
	// With Parallel <= 1, or without a spill manager, the final stage is
	// the single k-way merge task; above 1 the per-partition sorted runs
	// are published to a shared coordinator and P reduce tasks each merge
	// one splitter-delimited key range, so their outputs concatenate in
	// sorted order. Inputs under minParallelSortRows collapse back to one
	// merge at run time regardless.
	Parallel int
}

// NewVecSort builds a vectorized global sort. Every order expression must
// be vectorizable (the planner checks expr.CanVectorize).
func NewVecSort(child Exec, orders []SortOrder) *VecSortExec {
	return &VecSortExec{Child: child, Orders: orders}
}

// Schema implements Exec.
func (s *VecSortExec) Schema() *sqltypes.Schema { return s.Child.Schema() }

// Children implements Exec.
func (s *VecSortExec) Children() []Exec { return []Exec{s.Child} }

func (s *VecSortExec) String() string {
	return "VecSort [" + orderStrings(s.Orders) + "]"
}

func orderStrings(orders []SortOrder) string {
	parts := make([]string, len(orders))
	for i, o := range orders {
		dir := "ASC"
		if o.Desc {
			dir = "DESC"
		}
		parts[i] = o.Expr.String() + " " + dir
	}
	return strings.Join(parts, ", ")
}

// Execute implements Exec.
func (s *VecSortExec) Execute(ec *ExecContext) (rdd.RDD, error) {
	child, err := s.Child.Execute(ec)
	if err != nil {
		return nil, err
	}
	schema := s.Child.Schema()
	orders, err := bindEach(ec, s.Orders, orderSlot)
	if err != nil {
		return nil, err
	}
	st := ec.Stats(s)
	single := child.NumPartitions() <= 1
	if !single && s.Parallel > 1 && ec.RDD.SpillManager().Enabled() {
		return s.executeRange(ec, child, schema, orders, st)
	}
	runs := ec.RDD.NewBatchIterRDD(child, 0, schema, func(tc *rdd.TaskContext, _ int, in vector.BatchIter) (vector.BatchIter, error) {
		out, err := sortPartition(tc, in, schema, orders, st, nil, 0)
		if err != nil || !single {
			return out, err
		}
		return obs.Batches(st, out), nil
	})
	if single {
		return runs, nil
	}
	return ec.RDD.NewBatchMergeRDD(runs, schema, func(tc *rdd.TaskContext, ins []vector.BatchIter) (vector.BatchIter, error) {
		out, err := newRunMerge(tc, schema, orders, ins, -1)
		if err != nil {
			return nil, err
		}
		return obs.Batches(st, out), nil
	}), nil
}

// executeRange lowers the final sort stage to a range-partitioned merge.
// Map tasks sort their partition into chunk runs as usual but publish the
// runs — with the boxed first key and row count of every sealed batch —
// on a shared coordinator instead of sending rows through the exchange;
// the exchange stays in the lineage purely as the map→reduce barrier.
// Each of the P reduce tasks then derives splitters (once, from the
// published batch metadata), seeks every overlapping run directly to its
// first in-range batch, and k-way merges just its key range. Partition
// outputs concatenate in splitter order, so the result streams globally
// sorted. Inputs under minParallelSortRows yield zero splitters and the
// whole merge lands on partition 0 — the lazy single-merge path.
func (s *VecSortExec) executeRange(ec *ExecContext, child rdd.RDD, schema *sqltypes.Schema,
	orders []SortOrder, st *obs.OpStats) (rdd.RDD, error) {
	coord := &rangeSortCoord{}
	nParts := s.Parallel
	runs := ec.RDD.NewBatchIterRDD(child, 0, schema, func(tc *rdd.TaskContext, p int, in vector.BatchIter) (vector.BatchIter, error) {
		return sortPartition(tc, in, schema, orders, st, coord, p)
	})
	merged := ec.RDD.NewBatchRangeMergeRDD(runs, schema, nParts, func(tc *rdd.TaskContext, p int) (vector.BatchIter, error) {
		out, err := rangeMergePartition(tc, schema, orders, coord, nParts, p)
		if err != nil {
			return nil, err
		}
		// The streaming executor materializes and charges every result
		// partition beyond the one it is currently serving, so P merged
		// ranges returned as task output would re-buy the memory the sort
		// just spilled to avoid. Each reduce task instead streams its range
		// into a spilled output run (zero resident charge) and returns
		// nothing; the single-partition concat stage below replays the runs
		// in splitter order through the executor's lazy cursor path.
		sp := tc.Ctx.SpillManager()
		var run *spill.Run
		for {
			b, err := out.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			if run == nil {
				run = sp.NewRun("VecSort", schema, tc.Mem(), st, obs.FromContext(tc.Cancellation()))
				if err := run.SpillNow(); err != nil {
					return nil, err
				}
			}
			if err := run.Append(b); err != nil {
				return nil, err
			}
		}
		if run != nil {
			if err := run.Seal(); err != nil {
				return nil, err
			}
		}
		coord.publishOut(p, nParts, run)
		st.NotePartitions(int64(nParts))
		return vector.NewSliceIter(nil), nil
	})
	return ec.RDD.NewBatchRangeMergeRDD(merged, schema, 1, func(tc *rdd.TaskContext, _ int) (vector.BatchIter, error) {
		return obs.Batches(st, &rangeConcatIter{tc: tc, runs: coord.takeOut()}), nil
	}), nil
}

// minParallelSortRows is the input size below which the range-partitioned
// merge collapses to a single merge partition: splitter overhead (P-1
// extra task startups, P run-open fans) beats the merge cost only once
// there is real work to divide.
const minParallelSortRows = 32768

// rangeSortCoord carries the map side's published sorted runs to the
// range-merge reduce tasks: chunk runs plus per-batch first keys and row
// counts (the splitter sample and the seek index), and the lazily
// computed splitters themselves.
type rangeSortCoord struct {
	mu    sync.Mutex
	metas []sortRunMeta

	once      sync.Once
	splitters [][]sqltypes.Value

	// outRuns[p] is reduce partition p's merged output run (nil when the
	// range was empty), replayed in order by the final concat stage.
	outRuns []*spill.Run
}

// sortRunMeta describes one published sorted chunk run.
type sortRunMeta struct {
	run       *spill.Run
	firstKeys [][]sqltypes.Value // boxed first key row of each sealed batch
	rows      []int              // row count of each sealed batch
	mapPart   int
	chunk     int
}

func (c *rangeSortCoord) publish(m sortRunMeta) {
	c.mu.Lock()
	c.metas = append(c.metas, m)
	c.mu.Unlock()
}

func (c *rangeSortCoord) publishOut(p, nParts int, run *spill.Run) {
	c.mu.Lock()
	if c.outRuns == nil {
		c.outRuns = make([]*spill.Run, nParts)
	}
	c.outRuns[p] = run
	c.mu.Unlock()
}

func (c *rangeSortCoord) takeOut() []*spill.Run {
	c.mu.Lock()
	runs := c.outRuns
	c.outRuns = nil
	c.mu.Unlock()
	return runs
}

// ordered returns the published runs sorted by (map partition, chunk) —
// the tie order the nested single-merge path produces, so equal keys
// leave the range merge in partition-then-arrival order too.
func (c *rangeSortCoord) ordered() []sortRunMeta {
	c.mu.Lock()
	metas := append([]sortRunMeta(nil), c.metas...)
	c.mu.Unlock()
	sort.Slice(metas, func(i, j int) bool {
		if metas[i].mapPart != metas[j].mapPart {
			return metas[i].mapPart < metas[j].mapPart
		}
		return metas[i].chunk < metas[j].chunk
	})
	return metas
}

// computeSplitters derives the range boundaries once, shared by all
// reduce tasks: every published batch contributes its first key weighted
// by its row count, and the weighted quantiles at i/nParts become the
// splitters. Duplicates collapse (a splitter list is strictly
// increasing), so heavy key skew yields fewer, wider partitions rather
// than empty ranges with dangling equal keys — equal keys always land
// wholly in one partition. Inputs under minParallelSortRows yield no
// splitters at all.
func (c *rangeSortCoord) computeSplitters(nParts int, desc []bool) [][]sqltypes.Value {
	c.once.Do(func() {
		type sample struct {
			key  []sqltypes.Value
			rows int64
		}
		var samples []sample
		var total int64
		c.mu.Lock()
		for _, m := range c.metas {
			for j, fk := range m.firstKeys {
				samples = append(samples, sample{fk, int64(m.rows[j])})
				total += int64(m.rows[j])
			}
		}
		c.mu.Unlock()
		if nParts <= 1 || total < minParallelSortRows {
			return
		}
		sort.SliceStable(samples, func(i, j int) bool {
			return vector.CompareKeyRows(samples[i].key, samples[j].key, desc) < 0
		})
		var splits [][]sqltypes.Value
		var acc int64
		next := 1
		for _, s := range samples {
			acc += s.rows
			for next < nParts && acc >= total*int64(next)/int64(nParts) {
				if len(splits) == 0 || vector.CompareKeyRows(splits[len(splits)-1], s.key, desc) < 0 {
					splits = append(splits, s.key)
				}
				next++
			}
		}
		c.splitters = splits
	})
	return c.splitters
}

// rangeMergePartition merges reduce partition p's key range
// (splitters[p-1], splitters[p]] from the published runs. Each run is
// opened directly at its first batch that can overlap the range (the
// per-batch first keys bound every batch's contents from both sides) and
// trimmed row-exactly by rangeTrimIter, so a P-way split decodes each
// run's batches once across all partitions, plus at most one straddling
// batch per boundary.
func rangeMergePartition(tc *rdd.TaskContext, schema *sqltypes.Schema, orders []SortOrder,
	coord *rangeSortCoord, nParts, p int) (vector.BatchIter, error) {
	_, _, desc, err := sortKeys(orders)
	if err != nil {
		return nil, err
	}
	splits := coord.computeSplitters(nParts, desc)
	if p > len(splits) {
		return vector.NewSliceIter(nil), nil // dedup shrank the split count
	}
	var lower, upper []sqltypes.Value
	if p > 0 {
		lower = splits[p-1]
	}
	if p < len(splits) {
		upper = splits[p]
	}
	var ins []vector.BatchIter
	for _, m := range coord.ordered() {
		if len(m.firstKeys) == 0 {
			continue
		}
		start := 0
		if lower != nil {
			c := sort.Search(len(m.firstKeys), func(j int) bool {
				return vector.CompareKeyRows(m.firstKeys[j], lower, desc) > 0
			})
			// Batches before c-1 are bounded above by their successor's
			// first key (≤ lower), so only batch c-1 can straddle the
			// boundary.
			start = c - 1
			if start < 0 {
				start = 0
			}
		}
		if upper != nil && vector.CompareKeyRows(m.firstKeys[start], upper, desc) > 0 {
			continue // the run's remainder sorts entirely above this range
		}
		it, err := m.run.OpenFrom(start, tc.Err, false)
		if err != nil {
			return nil, err
		}
		trim, err := newRangeTrim(tc, it, schema, orders, lower, upper)
		if err != nil {
			return nil, err
		}
		ins = append(ins, trim)
	}
	return newRunMerge(tc, schema, orders, ins, -1)
}

// rangeConcatIter lazily replays the reduce tasks' merged output runs in
// splitter order: run p holds exactly the rows of key range p, already
// sorted, so back-to-back replay is the globally sorted result. Runs open
// one at a time with autoRelease, so an abandoned cursor leaves later
// runs untouched for the query tracker's closers to reap.
type rangeConcatIter struct {
	tc   *rdd.TaskContext
	runs []*spill.Run
	pos  int
	cur  vector.BatchIter
}

// Next implements vector.BatchIter.
func (it *rangeConcatIter) Next() (*vector.Batch, error) {
	for {
		if it.cur == nil {
			if it.pos >= len(it.runs) {
				return nil, nil
			}
			run := it.runs[it.pos]
			it.pos++
			if run == nil {
				continue
			}
			cur, err := run.Open(it.tc.Err, true)
			if err != nil {
				return nil, err
			}
			it.cur = cur
		}
		b, err := it.cur.Next()
		if err != nil || b != nil {
			return b, err
		}
		it.cur = nil
	}
}

// rangeTrimIter restricts a sorted run to the key range (lower, upper]:
// rows ≤ lower belong to an earlier partition and are skipped, and the
// stream ends at the first row above upper. The run is sorted, so both
// bounds are per-batch binary searches; batches fully inside the range
// pass through untouched, and once past lower with no upper the iterator
// stops evaluating keys entirely.
type rangeTrimIter struct {
	tc       *rdd.TaskContext
	in       vector.BatchIter
	keyExprs []*expr.VecExpr
	desc     []bool
	lower    []sqltypes.Value
	upper    []sqltypes.Value
	seeking  bool // still positioned at or below lower
	out      *vector.Batch
	sel      []int
	done     bool
}

func newRangeTrim(tc *rdd.TaskContext, in vector.BatchIter, schema *sqltypes.Schema,
	orders []SortOrder, lower, upper []sqltypes.Value) (*rangeTrimIter, error) {
	keyExprs, _, desc, err := sortKeys(orders)
	if err != nil {
		return nil, err
	}
	return &rangeTrimIter{tc: tc, in: in, keyExprs: keyExprs, desc: desc,
		lower: lower, upper: upper, seeking: lower != nil, out: vector.NewBatch(schema)}, nil
}

// Next implements vector.BatchIter.
func (it *rangeTrimIter) Next() (*vector.Batch, error) {
	if it.done {
		return nil, nil
	}
	for {
		b, err := it.in.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			it.done = true
			return nil, nil
		}
		if !it.seeking && it.upper == nil {
			return b, nil
		}
		keys, err := evalKeys(it.keyExprs, b)
		if err != nil {
			return nil, err
		}
		n := b.Len()
		lo := 0
		if it.seeking {
			lo = sort.Search(n, func(i int) bool {
				return vector.CompareVecsKeyRow(keys, i, it.lower, it.desc) > 0
			})
			if lo < n {
				it.seeking = false
			}
		}
		hi := n
		if it.upper != nil {
			hi = sort.Search(n, func(i int) bool {
				return vector.CompareVecsKeyRow(keys, i, it.upper, it.desc) > 0
			})
			if hi < n {
				it.done = true
				it.closeInput()
			}
		}
		if hi <= lo {
			if it.done {
				return nil, nil
			}
			continue
		}
		if lo == 0 && hi == n {
			return b, nil
		}
		it.sel = it.sel[:0]
		for i := lo; i < hi; i++ {
			it.sel = append(it.sel, i)
		}
		vector.Gather(it.out, b, it.sel)
		return it.out, nil
	}
}

// closeInput releases the underlying reader's file handle when the trim
// stops mid-run (the rest of the run belongs to later partitions and is
// read through their own offset-seeked readers).
func (it *rangeTrimIter) closeInput() {
	if c, ok := it.in.(interface{ Close() }); ok {
		c.Close()
	}
}

// sortKeys compiles the order expressions to kernels and splits out the
// key types and directions. Compiled kernels own scratch state: callers
// compile one set per partition task or per merge run.
func sortKeys(orders []SortOrder) (exprs []*expr.VecExpr, types []sqltypes.Type, desc []bool, err error) {
	exprs = make([]*expr.VecExpr, len(orders))
	types = make([]sqltypes.Type, len(orders))
	desc = make([]bool, len(orders))
	for i, o := range orders {
		ve, ok := expr.CompileVec(o.Expr)
		if !ok {
			return nil, nil, nil, fmt.Errorf("physical: sort key %s is not vectorizable", o.Expr)
		}
		exprs[i] = ve
		types[i] = ve.Type()
		desc[i] = o.Desc
	}
	return exprs, types, desc, nil
}

// evalKeys evaluates every compiled key over b.
func evalKeys(exprs []*expr.VecExpr, b *vector.Batch) ([]*columnar.Vector, error) {
	out := make([]*columnar.Vector, len(exprs))
	for i, ve := range exprs {
		v, err := ve.Eval(b)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// sortPartition buffers one partition's batches (the producer reuses
// them), extracting sort keys into typed lanes as they stream past, then
// sorts the index permutation and serves the run as lazily gathered
// output batches.
//
// With out-of-core execution available and a budget in force, the buffer
// becomes a sequence of chunks: when the tracker refuses the next batch,
// the current chunk is sorted and streamed to a spill run file, its memory
// freed, and accumulation restarts. The output is then a k-way merge of
// the spilled sorted runs plus the final resident chunk — exactly the
// single-chunk path when nothing spilled.
//
// In range mode (coord non-nil) the task merges nothing itself: every
// chunk — including the resident tail, re-gathered into fresh batches
// and handed to a (resident-until-evicted) run — is published on the
// coordinator with its per-batch first keys, and the task's own output is
// empty; the range-merge reduce tasks consume the runs directly.
func sortPartition(tc *rdd.TaskContext, in vector.BatchIter, schema *sqltypes.Schema,
	orders []SortOrder, st *obs.OpStats, coord *rangeSortCoord, mapPart int) (vector.BatchIter, error) {
	keyExprs, keyTypes, desc, err := sortKeys(orders)
	if err != nil {
		return nil, err
	}
	mem := tc.Mem()
	sp := tc.Ctx.SpillManager()
	external := sp.Enabled() && mem != nil
	qs := obs.FromContext(tc.Cancellation())
	lanes := vector.NewKeyLanes(keyTypes)
	buf := vector.NewBatchBuilder(schema, vector.DefaultBatchSize)
	var laneCharged, chunkCharged int64
	var spilled []*spill.Run
	nchunks := 0

	// finishChunk sorts the buffered chunk, streams it to a sealed spill
	// run, and frees the chunk's memory. The permutation's bytes were
	// pre-charged per row (external mode charges 8 B/row alongside each
	// batch), so sorting needs no new budget here.
	finishChunk := func() error {
		sealed := buf.Seal()
		if lanes.Len() == 0 {
			return nil
		}
		idx, err := vector.SortIndicesInterruptible(lanes, desc, tc.Err)
		if err != nil {
			return err
		}
		run := sp.NewRun("VecSort", schema, mem, st, qs)
		if err := run.SpillNow(); err != nil {
			return err
		}
		var meta sortRunMeta
		if coord != nil {
			fks, rowsPer := batchMeta(lanes, idx)
			meta = sortRunMeta{run: run, firstKeys: fks, rows: rowsPer, mapPart: mapPart, chunk: nchunks}
		}
		it := &sortedRunIter{tc: tc, src: sealed, idx: idx, out: vector.NewBatch(schema)}
		for {
			b, err := it.Next()
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			if err := run.Append(b); err != nil {
				return err
			}
		}
		if err := run.Seal(); err != nil {
			return err
		}
		if coord != nil {
			coord.publish(meta)
		} else {
			spilled = append(spilled, run)
		}
		nchunks++
		mem.Release(chunkCharged)
		chunkCharged, laneCharged = 0, 0
		lanes = vector.NewKeyLanes(keyTypes)
		return nil
	}

	for {
		if err := tc.Err(); err != nil {
			return nil, err
		}
		b, err := in.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		st.AddRowsIn(int64(b.Len()))
		keys, err := evalKeys(keyExprs, b)
		if err != nil {
			return nil, err
		}
		lanes.AppendCols(keys)
		buf.Append(b)
		// Charge the run buffer as it grows: the buffered copy of the
		// producer-reused batch plus the key-lane delta (plus, out-of-core,
		// the permutation's 8 B/row so the chunk sort is pre-funded).
		need := b.MemBytes()
		if cur := lanes.MemBytes(); cur > laneCharged {
			need += cur - laneCharged
			laneCharged = cur
		}
		if external {
			need += int64(b.Len()) * 8
		}
		if rerr := mem.Reserve("VecSort", need); rerr != nil {
			if !external || !errors.Is(rerr, memory.ErrMemoryExceeded) {
				return nil, rerr
			}
			// Budget refused: the chunk (including this batch, whose bytes
			// were never charged) goes to disk and accumulation restarts.
			if err := finishChunk(); err != nil {
				return nil, err
			}
			continue
		}
		chunkCharged += need
		st.AddMem(need)
	}
	sealed := buf.Seal()
	if coord != nil {
		// Range mode: publish the resident tail as one more run (fresh
		// single-copy batches, resident until the LRU evicts them) and
		// produce nothing — the reduce tasks read the published runs.
		if lanes.Len() > 0 {
			idx, err := vector.SortIndicesInterruptible(lanes, desc, tc.Err)
			if err != nil {
				return nil, err
			}
			fks, rowsPer := batchMeta(lanes, idx)
			run := sp.NewRun("VecSort", schema, mem, st, qs)
			for pos := 0; pos < len(idx); pos += vector.DefaultBatchSize {
				n := len(idx) - pos
				if n > vector.DefaultBatchSize {
					n = vector.DefaultBatchSize
				}
				out := vector.NewBatch(schema)
				vector.GatherInto(out, sealed, vector.DefaultBatchSize, idx[pos:pos+n])
				if err := run.Append(out); err != nil {
					return nil, err
				}
			}
			if err := run.Seal(); err != nil {
				return nil, err
			}
			coord.publish(sortRunMeta{run: run, firstKeys: fks, rows: rowsPer, mapPart: mapPart, chunk: nchunks})
		}
		mem.Release(chunkCharged)
		return vector.NewSliceIter(nil), nil
	}
	if len(spilled) == 0 && !external {
		if err := mem.Reserve("VecSort", int64(lanes.Len())*8); err != nil {
			return nil, err
		}
		st.AddMem(int64(lanes.Len()) * 8)
	}
	if len(spilled) == 0 {
		idx, err := vector.SortIndicesInterruptible(lanes, desc, tc.Err)
		if err != nil {
			return nil, err
		}
		return &sortedRunIter{tc: tc, src: sealed, idx: idx, out: vector.NewBatch(schema)}, nil
	}
	// External merge: spilled sorted runs stream back from disk (each
	// deleting its file once exhausted), the final chunk stays resident.
	ins := make([]vector.BatchIter, 0, len(spilled)+1)
	for _, run := range spilled {
		it, err := run.Open(tc.Err, true)
		if err != nil {
			return nil, err
		}
		ins = append(ins, it)
	}
	if lanes.Len() > 0 {
		idx, err := vector.SortIndicesInterruptible(lanes, desc, tc.Err)
		if err != nil {
			return nil, err
		}
		ins = append(ins, &sortedRunIter{tc: tc, src: sealed, idx: idx, out: vector.NewBatch(schema)})
	}
	return newRunMerge(tc, schema, orders, ins, -1)
}

// batchMeta boxes the first key row of every DefaultBatchSize-aligned
// output batch of the sorted permutation, plus per-batch row counts —
// the splitter sample and seek index the range merge consumes. Batch j's
// rows all sort in [firstKeys[j], firstKeys[j+1]], which is what lets a
// reducer skip or seek whole batches without decoding them.
func batchMeta(lanes *vector.KeyLanes, idx []int) (fks [][]sqltypes.Value, rows []int) {
	for pos := 0; pos < len(idx); pos += vector.DefaultBatchSize {
		n := len(idx) - pos
		if n > vector.DefaultBatchSize {
			n = vector.DefaultBatchSize
		}
		fks = append(fks, lanes.KeyRowAt(idx[pos]))
		rows = append(rows, n)
	}
	return fks, rows
}

// sortedRunIter gathers the sorted permutation one output batch at a time
// (reusing the output batch), so a consumer that stops early — a top-n
// merge, a cancelled cursor — never pays for gathering the tail.
type sortedRunIter struct {
	tc  *rdd.TaskContext
	src []*vector.Batch
	idx []int
	pos int
	out *vector.Batch
}

// Next implements vector.BatchIter.
func (it *sortedRunIter) Next() (*vector.Batch, error) {
	if it.pos >= len(it.idx) {
		return nil, nil
	}
	if err := it.tc.Err(); err != nil {
		return nil, err
	}
	n := vector.DefaultBatchSize
	if n > len(it.idx)-it.pos {
		n = len(it.idx) - it.pos
	}
	vector.GatherInto(it.out, it.src, vector.DefaultBatchSize, it.idx[it.pos:it.pos+n])
	it.pos += n
	return it.out, nil
}

// newRunMerge builds the k-way merge of sorted runs, compiling a fresh
// key-extraction kernel per run (kernels own scratch vectors; one per run
// keeps each run's current keys stable while others advance). The merge
// polls tc for cancellation between segments.
func newRunMerge(tc *rdd.TaskContext, schema *sqltypes.Schema, orders []SortOrder,
	ins []vector.BatchIter, limit int64) (vector.BatchIter, error) {
	_, _, desc, err := sortKeys(orders)
	if err != nil {
		return nil, err
	}
	extracts := make([]vector.KeyExtract, len(ins))
	for i := range ins {
		keyExprs, _, _, err := sortKeys(orders)
		if err != nil {
			return nil, err
		}
		extracts[i] = func(b *vector.Batch) ([]*columnar.Vector, error) {
			return evalKeys(keyExprs, b)
		}
	}
	m := vector.NewMergeSorted(schema, ins, extracts, desc, limit)
	m.SetInterrupt(tc.Err)
	return m, nil
}

// ---------------------------------------------------------------------------
// VecTopN

// VecTopNExec fuses Limit n over Sort into a bounded top-n: each
// partition keeps only its n best rows in a heap over a compacting
// columnar store (a 1M-row partition under ORDER BY ... LIMIT 100 holds
// ~100 candidate rows, never the input), emits them as a sorted run, and
// the final merge reads at most n·partitions rows before truncating at n.
// The full global sort the row engine would run never happens.
type VecTopNExec struct {
	Child  Exec
	Orders []SortOrder
	N      int64
}

// NewVecTopN builds a vectorized top-n.
func NewVecTopN(child Exec, orders []SortOrder, n int64) *VecTopNExec {
	return &VecTopNExec{Child: child, Orders: orders, N: n}
}

// Schema implements Exec.
func (t *VecTopNExec) Schema() *sqltypes.Schema { return t.Child.Schema() }

// Children implements Exec.
func (t *VecTopNExec) Children() []Exec { return []Exec{t.Child} }

func (t *VecTopNExec) String() string {
	return fmt.Sprintf("VecTopN %d [%s]", t.N, orderStrings(t.Orders))
}

// Execute implements Exec.
func (t *VecTopNExec) Execute(ec *ExecContext) (rdd.RDD, error) {
	child, err := t.Child.Execute(ec)
	if err != nil {
		return nil, err
	}
	schema := t.Child.Schema()
	orders, err := bindEach(ec, t.Orders, orderSlot)
	if err != nil {
		return nil, err
	}
	n := t.N
	st := ec.Stats(t)
	single := child.NumPartitions() <= 1
	runs := ec.RDD.NewBatchIterRDD(child, 0, schema, func(tc *rdd.TaskContext, _ int, in vector.BatchIter) (vector.BatchIter, error) {
		out, err := topNPartition(tc, in, schema, orders, n, st)
		if err != nil || !single {
			return out, err
		}
		return obs.Batches(st, out), nil
	})
	if single {
		return runs, nil // the collector already emits at most n sorted rows
	}
	return ec.RDD.NewBatchMergeRDD(runs, schema, func(tc *rdd.TaskContext, ins []vector.BatchIter) (vector.BatchIter, error) {
		out, err := newRunMerge(tc, schema, orders, ins, n)
		if err != nil {
			return nil, err
		}
		return obs.Batches(st, out), nil
	}), nil
}

// topNPartition scans one partition through the bounded collector and
// emits its top n as a sorted run.
func topNPartition(tc *rdd.TaskContext, in vector.BatchIter, schema *sqltypes.Schema,
	orders []SortOrder, n int64, st *obs.OpStats) (vector.BatchIter, error) {
	keyExprs, keyTypes, desc, err := sortKeys(orders)
	if err != nil {
		return nil, err
	}
	mem := tc.Mem()
	top := vector.NewTopN(schema, keyTypes, desc, int(n))
	var charged int64
	for {
		if err := tc.Err(); err != nil {
			return nil, err
		}
		b, err := in.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		st.AddRowsIn(int64(b.Len()))
		keys, err := evalKeys(keyExprs, b)
		if err != nil {
			return nil, err
		}
		top.Push(b, keys)
		// The heap store is bounded but not small (compaction allows ~4n
		// candidates plus string payloads); charge its high-water mark.
		// Unlike the sort/agg/join buffers, this state is deliberately
		// never spilled: its footprint is bounded by the query shape
		// (≤ ~4n rows per partition, n·partitions across the operator —
		// independent of input size), and the Reserve below goes through
		// the tracker's eviction valve, so a Top-N under pressure pushes
		// colder *spillable* state to disk instead of growing past the
		// budget. TestSpillTopNBounded pins this exemption.
		if cur := top.MemBytes(); cur > charged {
			if err := mem.Reserve("VecTopN", cur-charged); err != nil {
				return nil, err
			}
			st.AddMem(cur - charged)
			charged = cur
		}
	}
	return vector.NewSliceIter(top.Emit()), nil
}
