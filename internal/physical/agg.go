package physical

import (
	"fmt"
	"strings"

	"indexeddf/internal/expr"
	"indexeddf/internal/obs"
	"indexeddf/internal/rdd"
	"indexeddf/internal/sqltypes"
)

// AggMode selects the hash aggregate's phase.
type AggMode uint8

// Aggregation phases: Partial runs per input partition and emits
// accumulator rows; Final merges accumulator rows (after an exchange on the
// group key); Complete does both in one operator (single-partition input).
const (
	AggPartial AggMode = iota
	AggFinal
	AggComplete
)

func (m AggMode) String() string { return [...]string{"partial", "final", "complete"}[m] }

// HashAggExec is the hash aggregation operator.
type HashAggExec struct {
	Child  Exec
	Groups []expr.Expr // bound against the pre-aggregation schema
	Aggs   []expr.Agg
	Mode   AggMode
	schema *sqltypes.Schema
}

// NewHashAgg builds a hash aggregate producing outSchema (the final schema
// for Final/Complete, the accumulator schema for Partial).
func NewHashAgg(child Exec, groups []expr.Expr, aggs []expr.Agg, mode AggMode, outSchema *sqltypes.Schema) *HashAggExec {
	return &HashAggExec{Child: child, Groups: groups, Aggs: aggs, Mode: mode, schema: outSchema}
}

// PartialSchema computes the accumulator-row schema for groups+aggs.
func PartialSchema(groups []expr.Expr, aggs []expr.Agg) *sqltypes.Schema {
	fields := make([]sqltypes.Field, 0, len(groups)+2*len(aggs))
	for i, g := range groups {
		fields = append(fields, sqltypes.Field{Name: fmt.Sprintf("g%d", i), Type: g.Type(), Nullable: true})
	}
	for i, a := range aggs {
		switch a.Func {
		case expr.AvgAgg:
			fields = append(fields,
				sqltypes.Field{Name: fmt.Sprintf("a%d_sum", i), Type: sqltypes.Float64, Nullable: true},
				sqltypes.Field{Name: fmt.Sprintf("a%d_cnt", i), Type: sqltypes.Int64},
			)
		case expr.CountAgg, expr.CountStarAgg:
			fields = append(fields, sqltypes.Field{Name: fmt.Sprintf("a%d_cnt", i), Type: sqltypes.Int64})
		default:
			fields = append(fields, sqltypes.Field{Name: fmt.Sprintf("a%d", i), Type: a.ResultType(), Nullable: true})
		}
	}
	return sqltypes.NewSchema(fields...)
}

// Schema implements Exec.
func (h *HashAggExec) Schema() *sqltypes.Schema { return h.schema }

// Children implements Exec.
func (h *HashAggExec) Children() []Exec { return []Exec{h.Child} }

func (h *HashAggExec) String() string {
	gs := make([]string, len(h.Groups))
	for i, g := range h.Groups {
		gs[i] = g.String()
	}
	as := make([]string, len(h.Aggs))
	for i, a := range h.Aggs {
		as[i] = a.String()
	}
	return fmt.Sprintf("HashAggregate(%s) group=[%s] aggs=[%s]",
		h.Mode, strings.Join(gs, ", "), strings.Join(as, ", "))
}

// acc is one aggregate's accumulator.
type acc struct {
	count int64
	sumI  int64
	sumF  float64
	min   sqltypes.Value
	max   sqltypes.Value
}

type aggGroup struct {
	keys sqltypes.Row
	accs []acc
}

// groupAlloc hands out aggGroups and their accumulator slices from chunked
// slabs, collapsing the per-group allocation cost of hash aggregation
// (group struct + accumulator slice per distinct key) into one allocation
// per chunk. Chunks grow geometrically so low-cardinality aggregations do
// not pay for slabs they never fill. Both the row and vectorized
// aggregates draw from it.
type groupAlloc struct {
	nAggs  int
	chunk  int
	groups []aggGroup
	accs   []acc
}

func (ga *groupAlloc) new(keys sqltypes.Row) *aggGroup {
	if len(ga.groups) == 0 {
		ga.chunk *= 2
		if ga.chunk < 16 {
			ga.chunk = 16
		} else if ga.chunk > 4096 {
			ga.chunk = 4096
		}
		ga.groups = make([]aggGroup, ga.chunk)
		ga.accs = make([]acc, ga.chunk*ga.nAggs)
	}
	g := &ga.groups[0]
	ga.groups = ga.groups[1:]
	g.keys = keys
	g.accs = ga.accs[:ga.nAggs:ga.nAggs]
	ga.accs = ga.accs[ga.nAggs:]
	return g
}

// update folds a raw input row into the group's accumulators; aggs are
// the execution's bound aggregates.
func update(aggs []expr.Agg, g *aggGroup, row sqltypes.Row) error {
	for i, a := range aggs {
		if a.Func == expr.CountStarAgg {
			g.accs[i].count++
			continue
		}
		v, err := a.Arg.Eval(row)
		if err != nil {
			return err
		}
		updateAcc(&g.accs[i], a, v)
	}
	return nil
}

// updateAcc folds one evaluated argument value into an accumulator; shared
// by the row and vectorized aggregate operators (COUNT(*) is handled by the
// callers, which never evaluate an argument for it).
func updateAcc(ac *acc, a expr.Agg, v sqltypes.Value) {
	if v.IsNull() {
		return
	}
	switch a.Func {
	case expr.CountAgg:
		ac.count++
	case expr.SumAgg:
		ac.count++
		if a.ResultType() == sqltypes.Float64 {
			ac.sumF += v.Float64Val()
		} else {
			ac.sumI += v.Int64Val()
		}
	case expr.MinAgg:
		if ac.min.IsNull() || sqltypes.Compare(v, ac.min) < 0 {
			ac.min = v
		}
	case expr.MaxAgg:
		if ac.max.IsNull() || sqltypes.Compare(v, ac.max) > 0 {
			ac.max = v
		}
	case expr.AvgAgg:
		ac.count++
		ac.sumF += v.Float64Val()
	}
}

// mergeAccs folds a partial accumulator row (groups first) into a group's
// accumulators.
func mergeAccs(aggs []expr.Agg, groupLen int, g *aggGroup, row sqltypes.Row) {
	pos := groupLen
	for i, a := range aggs {
		ac := &g.accs[i]
		switch a.Func {
		case expr.CountAgg, expr.CountStarAgg:
			ac.count += row[pos].Int64Val()
			pos++
		case expr.SumAgg:
			v := row[pos]
			pos++
			if !v.IsNull() {
				ac.count++
				if a.ResultType() == sqltypes.Float64 {
					ac.sumF += v.Float64Val()
				} else {
					ac.sumI += v.Int64Val()
				}
			}
		case expr.MinAgg:
			v := row[pos]
			pos++
			if !v.IsNull() && (ac.min.IsNull() || sqltypes.Compare(v, ac.min) < 0) {
				ac.min = v
			}
		case expr.MaxAgg:
			v := row[pos]
			pos++
			if !v.IsNull() && (ac.max.IsNull() || sqltypes.Compare(v, ac.max) > 0) {
				ac.max = v
			}
		case expr.AvgAgg:
			ac.sumF += row[pos].Float64Val()
			ac.count += row[pos+1].Int64Val()
			pos += 2
		}
	}
}

// emitRow renders a group's accumulators as a result row or, when
// partial, as a partial row (an AVG as its running sum and count).
func emitRow(aggs []expr.Agg, g *aggGroup, partial bool) sqltypes.Row {
	width := len(g.keys) + len(aggs)
	if partial {
		width += len(aggs)
	}
	out := append(make(sqltypes.Row, 0, width), g.keys...)
	for i, a := range aggs {
		ac := g.accs[i]
		switch a.Func {
		case expr.CountAgg, expr.CountStarAgg:
			out = append(out, sqltypes.NewInt64(ac.count))
		case expr.SumAgg:
			out = append(out, sumValue(a, ac))
		case expr.MinAgg:
			out = append(out, ac.min)
		case expr.MaxAgg:
			out = append(out, ac.max)
		case expr.AvgAgg:
			switch {
			case partial:
				out = append(out, sqltypes.NewFloat64(ac.sumF), sqltypes.NewInt64(ac.count))
			case ac.count == 0:
				out = append(out, sqltypes.Null)
			default:
				out = append(out, sqltypes.NewFloat64(ac.sumF/float64(ac.count)))
			}
		}
	}
	return out
}

func sumValue(a expr.Agg, ac acc) sqltypes.Value {
	if ac.count == 0 {
		return sqltypes.Null
	}
	if a.ResultType() == sqltypes.Float64 {
		return sqltypes.NewFloat64(ac.sumF)
	}
	return sqltypes.NewInt64(ac.sumI)
}

// Execute implements Exec.
func (h *HashAggExec) Execute(ec *ExecContext) (rdd.RDD, error) {
	child, err := h.Child.Execute(ec)
	if err != nil {
		return nil, err
	}
	groupExprs, err := bindEach(ec, h.Groups, exprSlot)
	if err != nil {
		return nil, err
	}
	// Update, merge and emit all read the bound aggregates: a SUM's
	// accumulator lane follows its argument's type, which an untyped `?`
	// only gets from its argument.
	aggs, err := bindEach(ec, h.Aggs, aggArgSlot)
	if err != nil {
		return nil, err
	}
	st := ec.Stats(h)
	return ec.RDD.NewIterRDD(child, 0, func(_ *rdd.TaskContext, _ int, in sqltypes.RowIter) (sqltypes.RowIter, error) {
		in = obs.CountInto(st, in)
		groups := map[string]*aggGroup{}
		var order []*aggGroup // deterministic output order (first seen)
		ga := groupAlloc{nAggs: len(h.Aggs)}
		keyScratch := make(sqltypes.Row, len(h.Groups))
		var keyBuf []byte
		for {
			row, err := in.Next()
			if err != nil {
				return nil, err
			}
			if row == nil {
				break
			}
			// Encode the group key into the reused buffer; the map probe
			// below does not allocate — only a first-seen group clones its
			// key values and materializes the key string.
			var keyVals sqltypes.Row
			if h.Mode == AggFinal {
				keyVals = row[:len(h.Groups)]
			} else {
				for i, ge := range groupExprs {
					v, err := ge.Eval(row)
					if err != nil {
						return nil, err
					}
					keyScratch[i] = v
				}
				keyVals = keyScratch
			}
			keyBuf = appendValuesKey(keyBuf[:0], keyVals)
			g, ok := groups[string(keyBuf)]
			if !ok {
				g = ga.new(keyVals.Clone())
				groups[string(keyBuf)] = g
				order = append(order, g)
			}
			if h.Mode == AggFinal {
				mergeAccs(aggs, len(h.Groups), g, row)
			} else {
				if err := update(aggs, g, row); err != nil {
					return nil, err
				}
			}
		}
		// Global aggregates emit a row even with no input (in Final and
		// Complete modes only, and only on the single output partition).
		if len(groups) == 0 && len(h.Groups) == 0 && h.Mode != AggPartial {
			g := &aggGroup{accs: make([]acc, len(h.Aggs))}
			return obs.Rows(st, sqltypes.NewSliceIter([]sqltypes.Row{emitRow(aggs, g, false)})), nil
		}
		out := make([]sqltypes.Row, 0, len(groups))
		for _, g := range order {
			out = append(out, emitRow(aggs, g, h.Mode == AggPartial))
		}
		return obs.Rows(st, sqltypes.NewSliceIter(out)), nil
	}), nil
}
