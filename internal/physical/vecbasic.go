package physical

import (
	"fmt"
	"strings"

	"indexeddf/internal/expr"
	"indexeddf/internal/obs"
	"indexeddf/internal/rdd"
	"indexeddf/internal/sqltypes"
	"indexeddf/internal/vector"
)

// ---------------------------------------------------------------------------
// VecFilter

// VecFilterExec is the vectorized FilterExec: the predicate is compiled to
// a kernel evaluated over whole batches, survivors are gathered through a
// selection vector into a reused output batch. The predicate must be
// vectorizable (the planner checks expr.CanVectorize before choosing this
// operator).
type VecFilterExec struct {
	Child Exec
	Cond  expr.Expr
	// Adaptive enables runtime conjunct re-ranking: a multi-conjunct
	// predicate compiles to one kernel per conjunct evaluated as a
	// cascade (each conjunct only sees survivors of the previous ones),
	// and observed per-conjunct selectivity and cost periodically
	// re-rank the cascade cheapest-most-selective-first. The planner sets
	// it unless the StaticFilter ablation is on.
	Adaptive bool
}

// NewVecFilter builds a vectorized filter.
func NewVecFilter(child Exec, cond expr.Expr) *VecFilterExec {
	return &VecFilterExec{Child: child, Cond: cond}
}

// Schema implements Exec.
func (f *VecFilterExec) Schema() *sqltypes.Schema { return f.Child.Schema() }

// Children implements Exec.
func (f *VecFilterExec) Children() []Exec { return []Exec{f.Child} }

func (f *VecFilterExec) String() string { return fmt.Sprintf("VecFilter %s", f.Cond) }

// Execute implements Exec.
func (f *VecFilterExec) Execute(ec *ExecContext) (rdd.RDD, error) {
	child, err := f.Child.Execute(ec)
	if err != nil {
		return nil, err
	}
	schema := f.Child.Schema()
	cond, err := ec.Bind(f.Cond)
	if err != nil {
		return nil, err
	}
	st := ec.Stats(f)
	conjs := expr.SplitConjunction(cond)
	adaptive := f.Adaptive && len(conjs) > 1
	return ec.RDD.NewBatchIterRDD(child, 0, schema, func(_ *rdd.TaskContext, _ int, in vector.BatchIter) (vector.BatchIter, error) {
		// Compiled per partition task: kernels own scratch vectors and are
		// not safe to share across concurrently computed partitions.
		if adaptive {
			preds := make([]*expr.VecExpr, len(conjs))
			ok := true
			for i, c := range conjs {
				if preds[i], ok = expr.CompileVec(c); !ok {
					break
				}
			}
			if ok {
				mk := func() *vector.Batch { return vector.NewBatch(schema) }
				return obs.Batches(st, newVecAdaptiveFilterIter(in, preds, mk, st)), nil
			}
			// An individual conjunct wouldn't compile (the conjunction as a
			// whole still might); fall through to the fused kernel.
		}
		pred, ok := expr.CompileVec(cond)
		if !ok {
			return nil, fmt.Errorf("physical: predicate %s is not vectorizable", cond)
		}
		return obs.Batches(st, &vecFilterIter{in: in, pred: pred, out: vector.NewBatch(schema), st: st}), nil
	}), nil
}

type vecFilterIter struct {
	in   vector.BatchIter
	pred *expr.VecExpr
	out  *vector.Batch
	sel  []int
	// st, when set, receives per-batch input-row counts — the numerator of
	// the operator's observed predicate selectivity (outputs are counted by
	// the obs.Batches wrapper).
	st *obs.OpStats
}

// Next implements vector.BatchIter.
func (it *vecFilterIter) Next() (*vector.Batch, error) {
	for {
		b, err := it.in.Next()
		if err != nil || b == nil {
			return nil, err
		}
		it.st.AddRowsIn(int64(b.Len()))
		bools, err := it.pred.Eval(b)
		if err != nil {
			return nil, err
		}
		it.sel = vector.SelectTrue(bools, it.sel[:0])
		switch len(it.sel) {
		case 0:
			continue
		case b.Len():
			return b, nil // everything survived: forward untouched
		}
		vector.Gather(it.out, b, it.sel)
		return it.out, nil
	}
}

// ---------------------------------------------------------------------------
// VecProject

// VecProjectExec is the vectorized ProjectExec: every projection expression
// is compiled to a kernel, and the output batch simply references the
// kernels' result vectors (a bare column reference passes the input vector
// through untouched).
type VecProjectExec struct {
	Child  Exec
	Exprs  []expr.Expr
	schema *sqltypes.Schema
}

// NewVecProject builds a vectorized projection.
func NewVecProject(child Exec, exprs []expr.Expr, outSchema *sqltypes.Schema) *VecProjectExec {
	return &VecProjectExec{Child: child, Exprs: exprs, schema: outSchema}
}

// Schema implements Exec.
func (p *VecProjectExec) Schema() *sqltypes.Schema { return p.schema }

// Children implements Exec.
func (p *VecProjectExec) Children() []Exec { return []Exec{p.Child} }

func (p *VecProjectExec) String() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return "VecProject [" + strings.Join(parts, ", ") + "]"
}

// Execute implements Exec.
func (p *VecProjectExec) Execute(ec *ExecContext) (rdd.RDD, error) {
	child, err := p.Child.Execute(ec)
	if err != nil {
		return nil, err
	}
	inSchema := p.Child.Schema()
	outSchema := p.schema
	exprs, err := bindEach(ec, p.Exprs, exprSlot)
	if err != nil {
		return nil, err
	}
	st := ec.Stats(p)
	return ec.RDD.NewBatchIterRDD(child, 0, inSchema, func(_ *rdd.TaskContext, _ int, in vector.BatchIter) (vector.BatchIter, error) {
		compiled := make([]*expr.VecExpr, len(exprs))
		for i, e := range exprs {
			ve, ok := expr.CompileVec(e)
			if !ok {
				return nil, fmt.Errorf("physical: projection %s is not vectorizable", e)
			}
			compiled[i] = ve
		}
		return obs.Batches(st, &vecProjectIter{in: in, exprs: compiled, out: vector.NewBatch(outSchema)}), nil
	}), nil
}

type vecProjectIter struct {
	in    vector.BatchIter
	exprs []*expr.VecExpr
	out   *vector.Batch
}

// Next implements vector.BatchIter.
func (it *vecProjectIter) Next() (*vector.Batch, error) {
	b, err := it.in.Next()
	if err != nil || b == nil {
		return nil, err
	}
	for i, ve := range it.exprs {
		v, err := ve.Eval(b)
		if err != nil {
			return nil, err
		}
		it.out.Cols[i] = v
	}
	it.out.SetLen(b.Len())
	return it.out, nil
}
