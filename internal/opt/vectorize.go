package opt

import (
	"indexeddf/internal/expr"
	"indexeddf/internal/physical"
)

// vectorize rewrites a physical plan top-down, swapping each row operator
// for its vectorized counterpart whenever the operator qualifies AND the
// swap pays for itself:
//
//   - filter / project / partial-and-complete aggregate vectorize whenever
//     their expressions compile to kernels (expr.CompileVec) — their
//     per-row savings dominate regardless of who consumes the output;
//   - the columnar scan always vectorizes (its batches are zero-copy
//     slices of the cache, so the batch form costs nothing);
//   - the indexed (row-store) scan and the inner hash / indexed joins
//     vectorize only when batchSink says the parent ingests batches:
//     their columnar output costs real work to build, which is wasted if
//     the very next step materializes rows again (a collect or a sort).
//     Wide join output re-materialized row-by-row is slower than the row
//     join — measured, not hypothetical;
//   - an exchange feeding a batch consumer becomes the columnar exchange
//     (batches scatter column-wise through the shuffle service and stream
//     back out sealed), so the final aggregate phase now vectorizes too:
//     it merges accumulator batches straight off the exchange. A shuffle
//     GROUP BY is columnar from scan through final merge;
//   - outer joins always stay row-based.
//
// Mixed plans need no glue: every vectorized operator accepts row parents
// through the batch adapters and presents a row iterator to row parents,
// so the fallback boundary is simply wherever the rewrite stops.
func (pl *Planner) vectorize(e physical.Exec, batchSink bool) physical.Exec {
	if rowBound(e) {
		// Every leaf of this subtree is a point lookup (or literal rows):
		// the data volume is a handful of rows, where per-query kernel
		// compilation and batch construction cost more than they save.
		// The paper's own Figure 3 queries live here — sub-millisecond
		// index-assisted reads must not pay vectorization overhead.
		return e
	}
	switch t := e.(type) {
	case *physical.ColumnarScanExec:
		return physical.NewVecColumnarScan(t.Table, t.Projection, t.Schema())
	case *physical.IndexedScanExec:
		if batchSink {
			return physical.NewVecIndexedScan(t.Table, t.Projection, t.Schema())
		}
		return t
	case *physical.ViewScanExec:
		// View state is already aggregated (small); batch it only when the
		// parent actually consumes batches (a HAVING filter, projection or
		// join over the view-answered aggregate).
		if batchSink {
			return physical.NewVecViewScan(t.View, t.Cols, t.Schema())
		}
		return t
	case *physical.FilterExec:
		if expr.CanVectorize(t.Cond) {
			f := physical.NewVecFilter(pl.vectorize(t.Child, true), t.Cond)
			f.Adaptive = !pl.cfg.Ablate.Has(StaticFilter)
			return f
		}
		return physical.NewFilter(pl.vectorize(t.Child, false), t.Cond)
	case *physical.ProjectExec:
		if allVectorizable(t.Exprs) {
			return physical.NewVecProject(pl.vectorize(t.Child, true), t.Exprs, t.Schema())
		}
		return physical.NewProject(pl.vectorize(t.Child, false), t.Exprs, t.Schema())
	case *physical.HashAggExec:
		if t.Mode == physical.AggFinal {
			// The final merge is positional (leading group columns,
			// accumulator columns after) — no expression compilation, so
			// it vectorizes regardless of what the aggregates compute, and
			// its child exchange sees a batch sink.
			return physical.NewVecHashAgg(pl.vectorize(t.Child, true), t.Groups, t.Aggs, t.Mode, t.Schema())
		}
		if allVectorizable(t.Groups) && aggsVectorizable(t.Aggs) {
			return physical.NewVecHashAgg(pl.vectorize(t.Child, true), t.Groups, t.Aggs, t.Mode, t.Schema())
		}
		return physical.NewHashAgg(pl.vectorize(t.Child, false), t.Groups, t.Aggs, t.Mode, t.Schema())
	case *physical.BroadcastHashJoinExec:
		// The build side is collected to rows either way; only the stream
		// side flows as batches through the vectorized probe.
		if batchSink && t.Type == physical.InnerJoin && residualVectorizable(t.Residual) {
			return physical.NewVecBroadcastHashJoin(pl.vectorize(t.Stream, true), pl.vectorize(t.Build, false),
				t.StreamKeys, t.BuildKeys, t.BuildIsRight, t.Residual)
		}
		return physical.NewBroadcastHashJoin(pl.vectorize(t.Stream, false), pl.vectorize(t.Build, false),
			t.StreamKeys, t.BuildKeys, t.BuildIsRight, t.Type, t.Residual)
	case *physical.ShuffleHashJoinExec:
		// Both sides cross a shuffle (row boundary) regardless.
		if batchSink && t.Type == physical.InnerJoin && residualVectorizable(t.Residual) {
			return physical.NewVecShuffleHashJoin(pl.vectorize(t.Left, false), pl.vectorize(t.Right, false),
				t.LeftKeys, t.RightKeys, t.Residual, t.NumPartitions)
		}
		return physical.NewShuffleHashJoin(pl.vectorize(t.Left, false), pl.vectorize(t.Right, false),
			t.LeftKeys, t.RightKeys, t.Type, t.Residual, t.NumPartitions)
	case *physical.IndexedJoinExec:
		// The probe side is either collected (broadcast) or shuffled —
		// a row boundary in both modes.
		if batchSink && t.Type == physical.InnerJoin && residualVectorizable(t.Residual) {
			return physical.NewVecIndexedJoin(t.Indexed, pl.vectorize(t.Probe, false), t.ProbeKey,
				t.IndexedIsLeft, t.Broadcast, t.Residual, t.Schema())
		}
		return physical.NewIndexedJoin(t.Indexed, pl.vectorize(t.Probe, false), t.ProbeKey,
			t.IndexedIsLeft, t.Broadcast, t.Type, t.Residual, t.Schema())
	case *physical.NestedLoopJoinExec:
		return physical.NewNestedLoopJoin(pl.vectorize(t.Left, false), pl.vectorize(t.Right, false), t.Type, t.Cond)
	case *physical.SortExec:
		// The batch sort ingests batches (typed-lane key extraction, index
		// sort, gather into sorted runs, k-way merge), so its child sees a
		// batch sink — the gather exchange under the old row sort is gone.
		if ordersVectorizable(t.Orders) {
			return pl.vecSort(t.Child, t.Orders)
		}
		return physical.NewSort(pl.vectorize(t.Child, false), t.Orders)
	case *physical.LimitExec:
		// LIMIT n directly over a sort is a top-n: bounded per-partition
		// heaps and an n-row merge replace the full global sort, as long as
		// n keeps the heaps small (past the threshold the batch sort's
		// run-merge with a limit is the better plan).
		if s, ok := t.Child.(*physical.SortExec); ok && ordersVectorizable(s.Orders) {
			if t.N >= 0 && t.N <= maxVecTopN {
				return physical.NewVecTopN(pl.vectorize(s.Child, true), s.Orders, t.N)
			}
			return physical.NewLimit(pl.vecSort(s.Child, s.Orders), t.N)
		}
		return physical.NewLimit(pl.vectorize(t.Child, false), t.N)
	case *physical.ExchangeExec:
		if batchSink {
			// The consumer ingests batches, so keep the stage boundary
			// columnar: the child feeds the scatter kernel batch-at-a-time
			// and the consumer splices the reduce-side batch stream.
			return physical.NewVecExchange(pl.vectorize(t.Child, true), t.Keys, t.NumPartitions)
		}
		return physical.NewExchange(pl.vectorize(t.Child, false), t.Keys, t.NumPartitions)
	case *physical.UnionExec:
		ins := make([]physical.Exec, len(t.Inputs))
		for i, in := range t.Inputs {
			// Union concatenates partitions without touching rows; the
			// real consumer is the union's own parent.
			ins[i] = pl.vectorize(in, batchSink)
		}
		return physical.NewUnion(ins...)
	default:
		// Leaves (Values, IndexLookup) and anything unknown stay row-based.
		return e
	}
}

// vecSort builds the batch sort over child, with a spilled sort's final
// merge range-partitioned ShufflePartitions ways unless ablated.
func (pl *Planner) vecSort(child physical.Exec, orders []physical.SortOrder) *physical.VecSortExec {
	s := physical.NewVecSort(pl.vectorize(child, true), orders)
	s.Parallel = pl.cfg.ShufflePartitions
	if pl.cfg.Ablate.Has(SingleMerge) {
		s.Parallel = 1
	}
	return s
}

// rowBound reports whether every leaf of the subtree is an index point
// lookup or literal rows — cardinality bounded by a key's chain length,
// not by table size. The indexed join counts as row-bound when its probe
// side is (its output is probe rows times the matching chains).
func rowBound(e physical.Exec) bool {
	switch t := e.(type) {
	case *physical.IndexLookupExec, *physical.ValuesExec:
		return true
	case *physical.ColumnarScanExec:
		// Real row counts refine the structural guess: batch formation
		// over a handful of rows costs more than it saves.
		return t.Table.RowCount() <= vecMinTableRows
	case *physical.IndexedScanExec:
		return t.Table.RowCount() <= vecMinTableRows
	}
	children := e.Children()
	if len(children) == 0 {
		return false
	}
	for _, c := range children {
		if !rowBound(c) {
			return false
		}
	}
	return true
}

// maxVecTopN bounds the per-partition heap size of the fused top-n; a
// LIMIT beyond it sorts with VecSort and truncates instead.
const maxVecTopN = 1 << 16

// vecMinTableRows is the scan size below which vectorization is not
// worth the batch formation overhead; such subtrees stay on the row
// engine. Deliberately tiny — the break-even is low and plans are
// cached, so a growing table must not get stuck with a row plan.
const vecMinTableRows = 16

func ordersVectorizable(orders []physical.SortOrder) bool {
	for _, o := range orders {
		if !expr.CanVectorize(o.Expr) {
			return false
		}
	}
	return true
}

func allVectorizable(exprs []expr.Expr) bool {
	for _, e := range exprs {
		if !expr.CanVectorize(e) {
			return false
		}
	}
	return true
}

func aggsVectorizable(aggs []expr.Agg) bool {
	for _, a := range aggs {
		if a.Func == expr.CountStarAgg {
			continue
		}
		if !expr.CanVectorize(a.Arg) {
			return false
		}
	}
	return true
}

func residualVectorizable(residual expr.Expr) bool {
	return residual == nil || expr.CanVectorize(residual)
}
