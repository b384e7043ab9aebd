package opt

import (
	"fmt"

	"indexeddf/internal/catalog"
	"indexeddf/internal/expr"
	"indexeddf/internal/physical"
	"indexeddf/internal/plan"
	"indexeddf/internal/sqltypes"
)

// Ablation switches engine strategies off, one bit each, so the
// equivalence suites and BenchmarkAblation can compare a strategy against
// the reference path it replaces. The zero value is the full engine.
type Ablation uint8

const (
	// RowEngine skips the vectorize pass: row-at-a-time execution
	// everywhere.
	RowEngine Ablation = 1 << iota
	// NoViewRewrite never answers an aggregation from a materialized
	// view; views are still maintained and queryable by name.
	NoViewRewrite
	// NoStats turns off statistics: the session collects none on the
	// tables it creates, the plan-time conjunct reorder rule is skipped
	// and cost estimates fall back to the structural defaults.
	NoStats
	// StaticFilter evaluates a multi-conjunct vectorized filter as one
	// fused kernel in plan order instead of the self-reordering cascade.
	StaticFilter
	// SingleMerge runs a spilled vectorized sort's final merge as one
	// k-way merge task instead of the range-partitioned parallel merge.
	SingleMerge
	// NoInline runs point plans (physical.IsPointPlan) on the task pool
	// like every other plan instead of on the caller's goroutine.
	NoInline
)

// Has reports whether any bit of b is set in a.
func (a Ablation) Has(b Ablation) bool { return a&b != 0 }

// PlannerConfig tunes the physical planning heuristics.
type PlannerConfig struct {
	// ShufflePartitions is the reduce-side partition count for exchanges
	// and for a spilled vectorized sort's range-partitioned merge.
	ShufflePartitions int
	// BroadcastThreshold is the estimated row count under which a join
	// side is broadcast instead of shuffled.
	BroadcastThreshold int64
	// Views is the session's materialized-view registry; aggregations
	// matching a registered view plan as a scan of its maintained state.
	// nil disables the rewrite.
	Views *catalog.ViewRegistry
	// Ablate switches strategies off (tests and ablation benchmarks).
	Ablate Ablation
}

// Planner lowers optimized logical plans to physical plans.
type Planner struct {
	cfg   PlannerConfig
	rules []Rule // the batch Optimize runs, fixed by cfg.Ablate
}

// NewPlanner builds a planner. The caller supplies ShufflePartitions and
// BroadcastThreshold (the session's Config defaults them). The logical
// batch is the package-level rules plus, when statistics are enabled, the
// conjunct reorder rule (cheapest-most-selective-first filters).
func NewPlanner(cfg PlannerConfig) *Planner {
	rules := DefaultRules()
	if !cfg.Ablate.Has(NoStats) {
		rules = append(rules, Rule{Name: "ReorderFilterConjuncts", Apply: reorderFilterConjuncts})
	}
	return &Planner{cfg: cfg, rules: rules}
}

// Optimize runs the planner's logical rule batch to its fixpoint.
func (pl *Planner) Optimize(n plan.Node) (plan.Node, error) {
	return optimizeWith(n, pl.rules)
}

// Plan lowers an analyzed, optimized logical plan and — unless ablated —
// vectorizes every subtree whose operators are batch-capable, leaving row
// operators (bridged by batch/row adapters) at the boundaries.
func (pl *Planner) Plan(n plan.Node) (physical.Exec, error) {
	e, err := pl.plan(n)
	if err != nil {
		return nil, err
	}
	if !pl.cfg.Ablate.Has(RowEngine) {
		e = pl.vectorize(e, false) // the root feeds the driver's row collect
	}
	return e, nil
}

// plan is the recursive strategy dispatch (row operators only; the
// vectorize pass rewrites the finished tree).
func (pl *Planner) plan(n plan.Node) (physical.Exec, error) {
	switch t := n.(type) {
	case *plan.Relation:
		return pl.planScan(t, nil, t.Schema())
	case *plan.Values:
		return physical.NewValues(t.Rows, t.Schema()), nil
	case *plan.Filter:
		return pl.planFilter(t)
	case *plan.Project:
		return pl.planProject(t)
	case *plan.Join:
		return pl.planJoin(t)
	case *plan.Aggregate:
		return pl.planAggregate(t)
	case *plan.Sort:
		child, err := pl.plan(t.Child)
		if err != nil {
			return nil, err
		}
		return physical.NewSort(child, physOrders(t.Orders)), nil
	case *plan.TopN:
		// Lower to the row pattern (global sort + limit); the vectorize
		// pass fuses it into VecTopN when the keys compile to kernels, and
		// the row engine executes it as written.
		child, err := pl.plan(t.Child)
		if err != nil {
			return nil, err
		}
		return physical.NewLimit(physical.NewSort(child, physOrders(t.Orders)), t.N), nil
	case *plan.Limit:
		child, err := pl.plan(t.Child)
		if err != nil {
			return nil, err
		}
		return physical.NewLimit(child, t.N), nil
	case *plan.Union:
		ins := make([]physical.Exec, len(t.Inputs))
		for i, in := range t.Inputs {
			e, err := pl.plan(in)
			if err != nil {
				return nil, err
			}
			ins[i] = e
		}
		return physical.NewUnion(ins...), nil
	default:
		return nil, fmt.Errorf("opt: no physical strategy for %T", n)
	}
}

// physOrders converts logical sort orders to physical ones.
func physOrders(orders []plan.SortOrder) []physical.SortOrder {
	out := make([]physical.SortOrder, len(orders))
	for i, o := range orders {
		out[i] = physical.SortOrder{Expr: o.Expr, Desc: o.Desc}
	}
	return out
}

// planScan lowers a relation, optionally with a pushed-down projection.
func (pl *Planner) planScan(r *plan.Relation, projection []int, outSchema *sqltypes.Schema) (physical.Exec, error) {
	switch t := r.Table.(type) {
	case *catalog.ColumnTable:
		return physical.NewColumnarScan(t, projection, outSchema), nil
	case *catalog.IndexedTable:
		return physical.NewIndexedScan(t, projection, outSchema), nil
	case catalog.MaterializedView:
		// Querying a view by name: compose the view's visible-column
		// mapping with any pushed-down projection.
		out := t.OutCols()
		cols := out
		if projection != nil {
			cols = make([]int, len(projection))
			for i, c := range projection {
				cols[i] = out[c]
			}
		}
		return physical.NewViewScan(t, cols, outSchema), nil
	default:
		return nil, fmt.Errorf("opt: unknown table type %T", r.Table)
	}
}

// planFilter applies the paper's index-aware rule: an equality conjunct on
// the indexed column of an indexed relation becomes an IndexLookup, with
// the remaining conjuncts as a residual predicate. Everything else falls
// back to a scan + filter.
func (pl *Planner) planFilter(f *plan.Filter) (physical.Exec, error) {
	if rel, ok := f.Child.(*plan.Relation); ok {
		if it, ok := rel.Table.(*catalog.IndexedTable); ok {
			conjuncts := expr.SplitConjunction(f.Cond)
			for i, c := range conjuncts {
				// The key may be a literal or a prepared-statement
				// placeholder; placeholders are substituted at bind time.
				col, key, ok := expr.EqualityWithKeyConst(c)
				if !ok || col.Ordinal != it.KeyColumn() {
					continue
				}
				rest := make([]expr.Expr, 0, len(conjuncts)-1)
				rest = append(rest, conjuncts[:i]...)
				rest = append(rest, conjuncts[i+1:]...)
				return physical.NewIndexLookup(it, key, expr.JoinConjuncts(rest), rel.Schema()), nil
			}
		}
	}
	child, err := pl.plan(f.Child)
	if err != nil {
		return nil, err
	}
	return physical.NewFilter(child, f.Cond), nil
}

// planProject pushes pure column selections into scans (columnar pruning /
// row-store column decode); everything else is a ProjectExec.
func (pl *Planner) planProject(p *plan.Project) (physical.Exec, error) {
	if rel, ok := p.Child.(*plan.Relation); ok {
		cols := make([]int, len(p.Exprs))
		simple := true
		for i, e := range p.Exprs {
			b := unwrapBound(e)
			if b == nil {
				simple = false
				break
			}
			cols[i] = b.Ordinal
		}
		if simple {
			return pl.planScan(rel, cols, p.Schema())
		}
	}
	child, err := pl.plan(p.Child)
	if err != nil {
		return nil, err
	}
	return physical.NewProject(child, p.Exprs, p.Schema()), nil
}

// equiPair is one `left.col = right.col` conjunct of a join condition.
type equiPair struct {
	left, right int // ordinals within each side
}

// splitJoinCondition classifies a bound join condition into equi pairs and
// residual conjuncts (residuals stay bound against the concatenated row).
func splitJoinCondition(cond expr.Expr, leftLen int) (pairs []equiPair, residual []expr.Expr) {
	if cond == nil {
		return nil, nil
	}
	for _, c := range expr.SplitConjunction(cond) {
		if l, r, ok := expr.ColumnEquality(c); ok {
			switch {
			case l.Ordinal < leftLen && r.Ordinal >= leftLen:
				pairs = append(pairs, equiPair{left: l.Ordinal, right: r.Ordinal - leftLen})
				continue
			case r.Ordinal < leftLen && l.Ordinal >= leftLen:
				pairs = append(pairs, equiPair{left: r.Ordinal, right: l.Ordinal - leftLen})
				continue
			}
		}
		residual = append(residual, c)
	}
	return pairs, residual
}

// planJoin implements the join strategies, trying the paper's indexed join
// first: if either side is an indexed relation whose index column is a join
// key, the indexed side becomes the build side and the other side probes —
// shuffled to the index partitioning, or broadcast when small.
func (pl *Planner) planJoin(j *plan.Join) (physical.Exec, error) {
	leftLen := j.Left.Schema().Len()
	pairs, residualList := splitJoinCondition(j.Cond, leftLen)
	residual := expr.JoinConjuncts(residualList)
	outSchema := j.Schema()

	if len(pairs) > 0 {
		// Index-aware strategy.
		if exec, ok, err := pl.tryIndexedJoin(j, pairs, residual, outSchema); err != nil {
			return nil, err
		} else if ok {
			return exec, nil
		}
		// Vanilla equi-join strategies.
		left, err := pl.plan(j.Left)
		if err != nil {
			return nil, err
		}
		right, err := pl.plan(j.Right)
		if err != nil {
			return nil, err
		}
		leftKeys := make([]int, len(pairs))
		rightKeys := make([]int, len(pairs))
		for i, p := range pairs {
			leftKeys[i] = p.left
			rightKeys[i] = p.right
		}
		jt := physical.InnerJoin
		if j.Type == plan.LeftOuterJoin {
			jt = physical.LeftOuterJoin
		}
		rightRows := j.Right.Stats().Rows
		leftRows := j.Left.Stats().Rows
		if rightRows <= pl.cfg.BroadcastThreshold {
			return physical.NewBroadcastHashJoin(left, right, leftKeys, rightKeys, true, jt, residual), nil
		}
		if leftRows <= pl.cfg.BroadcastThreshold && j.Type == plan.InnerJoin {
			return physical.NewBroadcastHashJoin(right, left, rightKeys, leftKeys, false, jt, residual), nil
		}
		return physical.NewShuffleHashJoin(left, right, leftKeys, rightKeys, jt, residual, pl.cfg.ShufflePartitions), nil
	}

	// Non-equi join: nested loop with the full condition.
	left, err := pl.plan(j.Left)
	if err != nil {
		return nil, err
	}
	right, err := pl.plan(j.Right)
	if err != nil {
		return nil, err
	}
	jt := physical.InnerJoin
	if j.Type == plan.LeftOuterJoin {
		jt = physical.LeftOuterJoin
	}
	return physical.NewNestedLoopJoin(left, right, jt, j.Cond), nil
}

// tryIndexedJoin returns an IndexedJoinExec when one join side is an
// indexed relation keyed on a join column.
func (pl *Planner) tryIndexedJoin(j *plan.Join, pairs []equiPair, residual expr.Expr,
	outSchema *sqltypes.Schema) (physical.Exec, bool, error) {
	leftLen := j.Left.Schema().Len()

	asIndexed := func(n plan.Node) *catalog.IndexedTable {
		rel, ok := n.(*plan.Relation)
		if !ok {
			return nil
		}
		it, _ := rel.Table.(*catalog.IndexedTable)
		return it
	}

	build := func(indexed *catalog.IndexedTable, probeSide plan.Node, probeKey int,
		indexedIsLeft bool, extraResidual []expr.Expr) (physical.Exec, bool, error) {
		probe, err := pl.plan(probeSide)
		if err != nil {
			return nil, false, err
		}
		res := residual
		if len(extraResidual) > 0 {
			all := append([]expr.Expr{}, extraResidual...)
			if res != nil {
				all = append(all, res)
			}
			res = expr.JoinConjuncts(all)
		}
		jt := physical.InnerJoin
		if j.Type == plan.LeftOuterJoin {
			jt = physical.LeftOuterJoin
		}
		broadcast := probeSide.Stats().Rows <= pl.cfg.BroadcastThreshold
		return physical.NewIndexedJoin(indexed, probe, probeKey, indexedIsLeft, broadcast, jt, res, outSchema), true, nil
	}

	// extraEqui converts unused equi pairs back into residual predicates
	// bound against the concatenated row.
	extraEqui := func(skip int) []expr.Expr {
		var out []expr.Expr
		ls, rs := j.Left.Schema(), j.Right.Schema()
		for i, p := range pairs {
			if i == skip {
				continue
			}
			lf, rf := ls.Field(p.left), rs.Field(p.right)
			out = append(out, expr.NewCmp(expr.Eq,
				expr.B(p.left, lf.Type, lf.Name),
				expr.B(leftLen+p.right, rf.Type, rf.Name)))
		}
		return out
	}

	// Left side indexed: valid for inner joins (the probe side is right;
	// a left outer join must preserve the probe side, which would be the
	// indexed side here, so fall back).
	if it := asIndexed(j.Left); it != nil && j.Type == plan.InnerJoin {
		for i, p := range pairs {
			if p.left == it.KeyColumn() {
				return build(it, j.Right, p.right, true, extraEqui(i))
			}
		}
	}
	// Right side indexed: valid for inner and left outer joins (probe =
	// left, preserved).
	if it := asIndexed(j.Right); it != nil {
		for i, p := range pairs {
			if p.right == it.KeyColumn() {
				return build(it, j.Left, p.left, false, extraEqui(i))
			}
		}
	}
	return nil, false, nil
}

// planAggregate lowers an aggregation to partial/exchange/final — unless a
// registered materialized view already maintains exactly this aggregation,
// in which case it plans as a scan of the view's state (see viewrewrite.go).
func (pl *Planner) planAggregate(a *plan.Aggregate) (physical.Exec, error) {
	if exec, ok := pl.tryViewScan(a); ok {
		return exec, nil
	}
	child, err := pl.plan(a.Child)
	if err != nil {
		return nil, err
	}
	partialSchema := physical.PartialSchema(a.Groups, a.Aggs)
	partial := physical.NewHashAgg(child, a.Groups, a.Aggs, physical.AggPartial, partialSchema)
	var exch physical.Exec
	if len(a.Groups) == 0 {
		exch = physical.NewExchange(partial, nil, 1)
	} else {
		keys := make([]int, len(a.Groups))
		for i := range keys {
			keys[i] = i
		}
		exch = physical.NewExchange(partial, keys, pl.cfg.ShufflePartitions)
	}
	return physical.NewHashAgg(exch, a.Groups, a.Aggs, physical.AggFinal, a.Schema()), nil
}
