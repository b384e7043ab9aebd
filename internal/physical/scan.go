package physical

import (
	"fmt"

	"indexeddf/internal/catalog"
	"indexeddf/internal/expr"
	"indexeddf/internal/obs"
	"indexeddf/internal/rdd"
	"indexeddf/internal/sqltypes"
)

// ---------------------------------------------------------------------------
// ColumnarScan — vanilla cached table scan (+ columnar projection pushdown)

// ColumnarScanExec scans a ColumnTable. When the table is cached, rows come
// from the columnar batches; a pushed-down projection touches only the
// referenced column vectors — the baseline's projection fast path.
type ColumnarScanExec struct {
	Table      *catalog.ColumnTable
	Projection []int // nil = all columns
	schema     *sqltypes.Schema
}

// NewColumnarScan builds a scan of table producing outSchema (the qualified
// relation schema, already projected when projection is non-nil).
func NewColumnarScan(table *catalog.ColumnTable, projection []int, outSchema *sqltypes.Schema) *ColumnarScanExec {
	return &ColumnarScanExec{Table: table, Projection: projection, schema: outSchema}
}

// Schema implements Exec.
func (s *ColumnarScanExec) Schema() *sqltypes.Schema { return s.schema }

// Children implements Exec.
func (s *ColumnarScanExec) Children() []Exec { return nil }

func (s *ColumnarScanExec) String() string {
	if s.Projection != nil {
		return fmt.Sprintf("ColumnarScan %s cols=%v", s.Table.Name(), s.Projection)
	}
	return fmt.Sprintf("ColumnarScan %s", s.Table.Name())
}

// Execute implements Exec.
func (s *ColumnarScanExec) Execute(ec *ExecContext) (rdd.RDD, error) {
	table := s.Table
	proj := s.Projection
	n := table.NumPartitions()
	st := ec.Stats(s)
	return ec.RDD.NewIterRDD(nil, n, func(_ *rdd.TaskContext, p int, _ sqltypes.RowIter) (sqltypes.RowIter, error) {
		if !table.IsCached() {
			// Uncached: walk the row partition.
			rows := table.RowPartition(p)
			if proj == nil {
				return obs.Rows(st, sqltypes.NewSliceIter(rows)), nil
			}
			out := make([]sqltypes.Row, len(rows))
			for i, r := range rows {
				pr := make(sqltypes.Row, len(proj))
				for j, c := range proj {
					pr[j] = r[c]
				}
				out[i] = pr
			}
			return obs.Rows(st, sqltypes.NewSliceIter(out)), nil
		}
		batch, err := table.ColumnarPartition(p)
		if err != nil {
			return nil, err
		}
		nr := batch.NumRows()
		out := make([]sqltypes.Row, nr)
		if proj == nil {
			for i := 0; i < nr; i++ {
				out[i] = batch.Row(i)
			}
		} else {
			for i := 0; i < nr; i++ {
				out[i] = batch.ProjectRow(i, proj, nil)
			}
		}
		return obs.Rows(st, sqltypes.NewSliceIter(out)), nil
	}), nil
}

// ---------------------------------------------------------------------------
// IndexedScan — full scan of the Indexed DataFrame's row batches

// IndexedScanExec scans an IndexedTable snapshot partition by partition.
// It is a row-store scan: even with a projection it walks every record and
// decodes the requested columns, which is why the paper's Figure 2 shows
// projections slower than the columnar cache.
type IndexedScanExec struct {
	Table      *catalog.IndexedTable
	Projection []int
	schema     *sqltypes.Schema
}

// NewIndexedScan builds a snapshot scan.
func NewIndexedScan(table *catalog.IndexedTable, projection []int, outSchema *sqltypes.Schema) *IndexedScanExec {
	return &IndexedScanExec{Table: table, Projection: projection, schema: outSchema}
}

// Schema implements Exec.
func (s *IndexedScanExec) Schema() *sqltypes.Schema { return s.schema }

// Children implements Exec.
func (s *IndexedScanExec) Children() []Exec { return nil }

func (s *IndexedScanExec) String() string {
	if s.Projection != nil {
		return fmt.Sprintf("IndexedScan %s cols=%v", s.Table.Name(), s.Projection)
	}
	return fmt.Sprintf("IndexedScan %s", s.Table.Name())
}

// Execute implements Exec.
func (s *IndexedScanExec) Execute(ec *ExecContext) (rdd.RDD, error) {
	snap := ec.SnapshotOf(s.Table.Core())
	proj := s.Projection
	st := ec.Stats(s)
	width := s.schema.Len()
	return ec.RDD.NewIterRDD(nil, snap.NumPartitions(), func(tc *rdd.TaskContext, p int, _ sqltypes.RowIter) (sqltypes.RowIter, error) {
		// A header-only pass counts the visible rows, so the output and its
		// slabs are sized exactly; every row decodes straight into place.
		nRows, err := snap.PartitionRowCount(p)
		if err != nil {
			return nil, err
		}
		var b sliceBuilder
		b.size(nRows)
		err = snap.ScanPartitionInto(p, proj, func() sqltypes.Row {
			if len(b.rows)%1024 == 0 && tc.Err() != nil {
				return nil // cancelled mid-scan; surfaced below
			}
			return b.take(width)
		})
		if err != nil {
			return nil, err
		}
		if cerr := tc.Err(); cerr != nil {
			return nil, cerr
		}
		return obs.Rows(st, b.iter()), nil
	}), nil
}

// ---------------------------------------------------------------------------
// IndexLookup — the paper's point lookup (`getRows(key)`)

// IndexLookupExec answers an equality filter on the indexed column with one
// Ctrie lookup plus a backward-chain walk, instead of a scan. A residual
// predicate (the rest of the WHERE clause) filters the chain rows. The key
// is a constant expression — a literal, or a prepared-statement parameter
// that each execution binds to its argument.
type IndexLookupExec struct {
	Table    *catalog.IndexedTable
	Key      expr.Expr // *expr.Literal or *expr.Param
	Residual expr.Expr // bound against the table schema; may be nil
	schema   *sqltypes.Schema
}

// NewIndexLookup builds an index lookup whose key is a constant expression
// (literal or parameter placeholder).
func NewIndexLookup(table *catalog.IndexedTable, key, residual expr.Expr, outSchema *sqltypes.Schema) *IndexLookupExec {
	return &IndexLookupExec{Table: table, Key: key, Residual: residual, schema: outSchema}
}

// Schema implements Exec.
func (s *IndexLookupExec) Schema() *sqltypes.Schema { return s.schema }

// Children implements Exec.
func (s *IndexLookupExec) Children() []Exec { return nil }

func (s *IndexLookupExec) String() string {
	if s.Residual != nil {
		return fmt.Sprintf("IndexLookup %s key=%s residual=%s", s.Table.Name(), s.Key, s.Residual)
	}
	return fmt.Sprintf("IndexLookup %s key=%s", s.Table.Name(), s.Key)
}

// Execute implements Exec.
func (s *IndexLookupExec) Execute(ec *ExecContext) (rdd.RDD, error) {
	snap := ec.SnapshotOf(s.Table.Core())
	keyExpr, err := ec.Bind(s.Key)
	if err != nil {
		return nil, err
	}
	// An unbound parameter fails here: the statement ran ad hoc.
	key, err := keyExpr.Eval(nil)
	if err != nil {
		return nil, err
	}
	residual, err := ec.Bind(s.Residual)
	if err != nil {
		return nil, err
	}
	st := ec.Stats(s)
	// A single partition computes the lookup: the key's home partition.
	return ec.RDD.NewIterRDD(nil, 1, func(_ *rdd.TaskContext, _ int, _ sqltypes.RowIter) (sqltypes.RowIter, error) {
		var b sliceBuilder
		var evalErr error
		err := snap.LookupEach(key, func(row sqltypes.Row) bool {
			if residual != nil {
				keep, err := expr.EvalPredicate(residual, row)
				if err != nil {
					evalErr = err
					return false
				}
				if !keep {
					return true
				}
			}
			copy(b.take(len(row)), row)
			return true
		})
		if err != nil {
			return nil, err
		}
		if evalErr != nil {
			return nil, evalErr
		}
		return obs.Rows(st, b.iter()), nil
	}), nil
}

// ---------------------------------------------------------------------------
// Values — literal rows

// ValuesExec emits literal rows in a single partition.
type ValuesExec struct {
	Rows   []sqltypes.Row
	schema *sqltypes.Schema
}

// NewValues builds a literal-rows operator.
func NewValues(rows []sqltypes.Row, schema *sqltypes.Schema) *ValuesExec {
	return &ValuesExec{Rows: rows, schema: schema}
}

// Schema implements Exec.
func (v *ValuesExec) Schema() *sqltypes.Schema { return v.schema }

// Children implements Exec.
func (v *ValuesExec) Children() []Exec { return nil }

func (v *ValuesExec) String() string { return fmt.Sprintf("Values (%d rows)", len(v.Rows)) }

// Execute implements Exec.
func (v *ValuesExec) Execute(ec *ExecContext) (rdd.RDD, error) {
	return ec.RDD.NewSliceRDD([][]sqltypes.Row{v.Rows}), nil
}
