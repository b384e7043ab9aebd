package physical

import (
	"fmt"

	"indexeddf/internal/catalog"
	"indexeddf/internal/core"
	"indexeddf/internal/expr"
	"indexeddf/internal/obs"
	"indexeddf/internal/rdd"
	"indexeddf/internal/sqltypes"
)

// IndexedJoinExec is the paper's index-powered equi-join. The indexed
// relation is always the build side — its index is pre-built — and the
// probe (non-indexed) side is either shuffled to the index's hash
// partitioning or, when small enough, broadcast to every indexed partition
// where probes run locally against the Ctrie.
type IndexedJoinExec struct {
	Indexed *catalog.IndexedTable
	Probe   Exec
	// ProbeKey is the join key's ordinal in the probe output.
	ProbeKey int
	// IndexedIsLeft records the indexed relation's logical side, fixing
	// output column order.
	IndexedIsLeft bool
	// Broadcast selects the broadcast-probe strategy over the shuffle.
	Broadcast bool
	Type      JoinType // Inner, or LeftOuter when the probe is the left side
	// Residual is evaluated against the joined row (logical column order).
	Residual expr.Expr
	schema   *sqltypes.Schema
}

// NewIndexedJoin builds an indexed join producing outSchema (the logical
// left-concat-right schema).
func NewIndexedJoin(indexed *catalog.IndexedTable, probe Exec, probeKey int,
	indexedIsLeft, broadcast bool, t JoinType, residual expr.Expr,
	outSchema *sqltypes.Schema) *IndexedJoinExec {
	return &IndexedJoinExec{Indexed: indexed, Probe: probe, ProbeKey: probeKey,
		IndexedIsLeft: indexedIsLeft, Broadcast: broadcast, Type: t,
		Residual: residual, schema: outSchema}
}

// Schema implements Exec.
func (j *IndexedJoinExec) Schema() *sqltypes.Schema { return j.schema }

// Children implements Exec.
func (j *IndexedJoinExec) Children() []Exec { return []Exec{j.Probe} }

func (j *IndexedJoinExec) String() string {
	mode := "shuffle"
	if j.Broadcast {
		mode = "broadcast"
	}
	return fmt.Sprintf("IndexedJoin %s %s build=%s probeKey=%d",
		j.Type, mode, j.Indexed.Name(), j.ProbeKey)
}

// joinProbeRow probes one row against partition p of the snapshot and
// appends matches to out. The chain decodes into buf, one buffer per task;
// each joined row is built in out's next slab row and taken only when the
// residual keeps it. Returns whether any match was emitted.
func (j *IndexedJoinExec) joinProbeRow(snap *core.Snapshot, p int, probeRow sqltypes.Row,
	residual expr.Expr, buf sqltypes.Row, out *sliceBuilder) (bool, error) {
	key := probeRow[j.ProbeKey]
	if key.IsNull() {
		return false, nil
	}
	ptr, ok, err := snap.LookupPtr(p, key)
	if !ok {
		return false, err
	}
	matched := false
	var evalErr error
	iw, w := len(buf), len(buf)+len(probeRow)
	err = snap.ChainEachInto(p, ptr, buf, func(indexedRow sqltypes.Row) bool {
		joined := out.slab.next(w)
		if j.IndexedIsLeft {
			copy(joined, indexedRow)
			copy(joined[iw:], probeRow)
		} else {
			copy(joined, probeRow)
			copy(joined[len(probeRow):], indexedRow)
		}
		if residual != nil {
			keep, err := expr.EvalPredicate(residual, joined)
			if err != nil {
				evalErr = err
				return false
			}
			if !keep {
				return true
			}
		}
		matched = true
		out.take(w)
		return true
	})
	if err != nil {
		return matched, err
	}
	return matched, evalErr
}

// padRow appends probeRow followed by indexedWidth NULLs to out (the left
// outer join's unmatched probe row).
func padRow(out *sliceBuilder, probeRow sqltypes.Row, indexedWidth int) {
	r := out.take(len(probeRow) + indexedWidth)
	copy(r, probeRow)
	for i := len(probeRow); i < len(r); i++ {
		r[i] = sqltypes.Null
	}
}

// Execute implements Exec.
func (j *IndexedJoinExec) Execute(ec *ExecContext) (rdd.RDD, error) {
	snap := ec.SnapshotOf(j.Indexed.Core())
	probeRDD, err := j.Probe.Execute(ec)
	if err != nil {
		return nil, err
	}
	n := snap.NumPartitions()
	indexedWidth := j.Indexed.Schema().Len()
	residual, err := ec.Bind(j.Residual)
	if err != nil {
		return nil, err
	}
	st := ec.Stats(j)
	if j.Broadcast {
		probeRows, err := ec.RDD.CollectCtx(ec.Ctx, probeRDD)
		if err != nil {
			return nil, err
		}
		// Route each probe row to its key's home partition on the driver;
		// every indexed partition then probes only its own keys.
		routed := make([][]sqltypes.Row, n)
		for _, r := range probeRows {
			key := r[j.ProbeKey]
			if key.IsNull() {
				if j.Type == LeftOuterJoin && !j.IndexedIsLeft {
					routed[0] = append(routed[0], r) // keep for null padding
				}
				continue
			}
			p := snap.PartitionFor(key)
			routed[p] = append(routed[p], r)
		}
		return ec.RDD.NewIterRDD(nil, n, func(tc *rdd.TaskContext, p int, _ sqltypes.RowIter) (sqltypes.RowIter, error) {
			var b sliceBuilder
			if len(routed[p]) == 0 {
				return b.iter(), nil // no probe row routes here
			}
			buf := make(sqltypes.Row, indexedWidth)
			st.AddRowsIn(int64(len(routed[p])))
			for i, probeRow := range routed[p] {
				if i%1024 == 0 {
					if err := tc.Err(); err != nil {
						return nil, err
					}
				}
				matched, err := j.joinProbeRow(snap, p, probeRow, residual, buf, &b)
				if err != nil {
					return nil, err
				}
				if !matched && j.Type == LeftOuterJoin && !j.IndexedIsLeft {
					padRow(&b, probeRow, indexedWidth)
				}
			}
			return obs.Rows(st, b.iter()), nil
		}), nil
	}
	// Shuffle mode: hash the probe side with the index's partitioning.
	probeKey := j.ProbeKey
	part := &rdd.HashPartitioner{N: n, Key: func(r sqltypes.Row) sqltypes.Value {
		return keyOf(r, probeKey)
	}}
	shuffled := ec.RDD.NewShuffledRDD(probeRDD, part)
	return ec.RDD.NewIterRDD(shuffled, 0, func(tc *rdd.TaskContext, p int, in sqltypes.RowIter) (sqltypes.RowIter, error) {
		var b sliceBuilder
		buf := make(sqltypes.Row, indexedWidth)
		in = obs.CountInto(st, in)
		for n := 0; ; n++ {
			if n%1024 == 0 {
				if err := tc.Err(); err != nil {
					return nil, err
				}
			}
			probeRow, err := in.Next()
			if err != nil {
				return nil, err
			}
			if probeRow == nil {
				break
			}
			matched, err := j.joinProbeRow(snap, p, probeRow, residual, buf, &b)
			if err != nil {
				return nil, err
			}
			if !matched && j.Type == LeftOuterJoin && !j.IndexedIsLeft {
				padRow(&b, probeRow, indexedWidth)
			}
		}
		return obs.Rows(st, b.iter()), nil
	}), nil
}
