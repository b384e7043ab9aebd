package physical

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"indexeddf/internal/expr"
	"indexeddf/internal/obs"
	"indexeddf/internal/vector"
)

// The adaptive filter evaluates a multi-conjunct predicate as a cascade
// — each conjunct's kernel runs only over the survivors of the previous
// ones, compacting between stages — and periodically re-ranks the
// cascade by observed cost and selectivity. Evaluation order cannot
// change results: a row passes iff every conjunct is TRUE (rows where a
// conjunct is FALSE or NULL drop at that stage, exactly as the fused
// AND kernel's three-valued logic drops them at the end), and predicate
// kernels are pure (divide-by-zero yields NULL, not an error). The
// output is therefore bit-identical to the fused kernel in any order.

// rerankWarm/rerankEvery pace re-ranking: after every one of the first
// few batches — one mis-ordered batch is all the warmup a cascade needs,
// and the next re-ranks smooth out first-batch timing noise — then
// periodically to track drift. A rerank is a stable sort of a handful of
// indices, three orders of magnitude cheaper than evaluating a batch.
const (
	rerankWarm  = 4
	rerankEvery = 32
)

// adaptConj is one conjunct of an adaptive cascade plus its observed
// per-task totals.
type adaptConj struct {
	pred     *expr.VecExpr
	idx      int // position in the planned predicate order
	rowsIn   int64
	rowsKept int64
	// nsPerRow is the lowest per-row cost any one batch showed. A batch
	// preempted or stalled by GC only ever reads high, so the minimum
	// tracks the kernel's own cost where a running mean would let one
	// stall set the order for the rest of the task.
	nsPerRow float64
}

// rank scores a conjunct for ordering: expected cost per input row
// divided by the fraction of rows it drops, so cheap highly-selective
// conjuncts sort first. Unobserved conjuncts (starved by an earlier
// stage dropping everything) rank last.
func (c *adaptConj) rank() float64 {
	if c.rowsIn == 0 {
		return 1e18
	}
	drop := 1 - float64(c.rowsKept)/float64(c.rowsIn)
	if drop < 1e-6 {
		drop = 1e-6
	}
	return c.nsPerRow / drop
}

type vecAdaptiveFilterIter struct {
	in      vector.BatchIter
	conjs   []adaptConj
	order   []int // evaluation order: indices into conjs
	scratch [2]*vector.Batch
	sel     []int
	st      *obs.OpStats

	batches int64
	initial string // plan-order label, rendered once
}

// newVecAdaptiveFilterIter builds the cascade; preds are in planned
// predicate order, mk allocates compaction scratch batches.
func newVecAdaptiveFilterIter(in vector.BatchIter, preds []*expr.VecExpr, mk func() *vector.Batch, st *obs.OpStats) *vecAdaptiveFilterIter {
	it := &vecAdaptiveFilterIter{in: in, st: st}
	it.conjs = make([]adaptConj, len(preds))
	it.order = make([]int, len(preds))
	for i, p := range preds {
		it.conjs[i] = adaptConj{pred: p, idx: i}
		it.order[i] = i
	}
	it.scratch[0], it.scratch[1] = mk(), mk()
	it.initial = it.orderLabel()
	return it
}

// orderLabel renders the current evaluation order as "c1,c0,...", where
// ci is the i-th conjunct of the planned predicate.
func (it *vecAdaptiveFilterIter) orderLabel() string {
	var sb strings.Builder
	for i, k := range it.order {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteByte('c')
		sb.WriteString(strconv.Itoa(it.conjs[k].idx))
	}
	return sb.String()
}

// rerank reorders the cascade by observed rank (stable on the current
// order so ties don't oscillate) and publishes any change.
func (it *vecAdaptiveFilterIter) rerank() {
	ranks := make([]float64, len(it.conjs))
	for i := range it.conjs {
		ranks[i] = it.conjs[i].rank()
	}
	before := it.orderLabel()
	sort.SliceStable(it.order, func(a, b int) bool {
		return ranks[it.order[a]] < ranks[it.order[b]]
	})
	after := it.orderLabel()
	if after != before || it.st.Reorder() != "" {
		it.st.NoteReorder(it.initial + "→" + after)
	}
}

// Next implements vector.BatchIter.
func (it *vecAdaptiveFilterIter) Next() (*vector.Batch, error) {
	for {
		b, err := it.in.Next()
		if err != nil || b == nil {
			return nil, err
		}
		it.st.AddRowsIn(int64(b.Len()))
		it.batches++
		if it.batches <= rerankWarm || it.batches%rerankEvery == 0 {
			it.rerank()
		}
		cur := b
		alive := true
		for _, k := range it.order {
			c := &it.conjs[k]
			start := time.Now()
			bools, err := c.pred.Eval(cur)
			if err != nil {
				return nil, err
			}
			it.sel = vector.SelectTrue(bools, it.sel[:0])
			if n := cur.Len(); n > 0 {
				ns := float64(time.Since(start).Nanoseconds()) / float64(n)
				if c.rowsIn == 0 || ns < c.nsPerRow {
					c.nsPerRow = ns
				}
			}
			c.rowsIn += int64(cur.Len())
			c.rowsKept += int64(len(it.sel))
			if len(it.sel) == 0 {
				alive = false
				break
			}
			if len(it.sel) == cur.Len() {
				continue // everything survived: no compaction needed
			}
			// Compact survivors into the scratch batch the current input
			// doesn't occupy (Gather requires dst != src).
			dst := it.scratch[0]
			if cur == dst {
				dst = it.scratch[1]
			}
			vector.Gather(dst, cur, it.sel)
			cur = dst
		}
		if !alive {
			continue
		}
		return cur, nil
	}
}
