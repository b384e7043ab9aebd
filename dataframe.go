package indexeddf

import (
	"context"
	"fmt"
	"strings"

	"indexeddf/internal/catalog"
	"indexeddf/internal/core"
	"indexeddf/internal/expr"
	"indexeddf/internal/opt"
	"indexeddf/internal/physical"
	"indexeddf/internal/plan"
	"indexeddf/internal/sqltypes"
)

// DataFrame is a lazily evaluated, immutable query description (a logical
// plan) bound to a Session. Actions (Collect, Count, Show) trigger
// analysis, optimization, physical planning and execution.
type DataFrame struct {
	sess *Session
	node plan.Node
}

// Plan exposes the DataFrame's logical plan.
func (df *DataFrame) Plan() plan.Node { return df.node }

// Schema compiles the plan (through the plan cache) and returns its
// output schema.
func (df *DataFrame) Schema() (*sqltypes.Schema, error) {
	ent, _, _, err := df.sess.prepare(df.node, nil)
	if err != nil {
		return nil, err
	}
	return ent.schema, nil
}

// ---------------------------------------------------------------------------
// Listing 1: the paper's Indexed DataFrame API

// CreateIndex materializes the DataFrame and builds an Indexed DataFrame
// over it, hash partitioned and indexed on column colNo — the paper's
// `regularDF.createIndex(colNo)`. The build routes every row to its hash
// partition (the paper's shuffle) and bulk-inserts into the per-partition
// Ctrie and row batches.
func (df *DataFrame) CreateIndex(colNo int) (*DataFrame, error) {
	schema, err := df.Schema()
	if err != nil {
		return nil, err
	}
	if colNo < 0 || colNo >= schema.Len() {
		return nil, fmt.Errorf("indexeddf: index column %d out of range for %s", colNo, schema)
	}
	rows, err := df.Collect()
	if err != nil {
		return nil, err
	}
	name := df.sess.anonName(relationName(df.node) + "_idx")
	idf, err := df.sess.CreateIndexedTable(name, schema, colNo)
	if err != nil {
		return nil, err
	}
	if err := idf.indexedTable().Core().Append(rows); err != nil {
		return nil, err
	}
	return idf, nil
}

// CreateIndexOn is CreateIndex addressing the column by name.
func (df *DataFrame) CreateIndexOn(column string) (*DataFrame, error) {
	schema, err := df.Schema()
	if err != nil {
		return nil, err
	}
	i := schema.IndexOf(column)
	if i < 0 {
		return nil, fmt.Errorf("indexeddf: column %q not found in %s", column, schema)
	}
	return df.CreateIndex(i)
}

// Cache pins the DataFrame in executor memory — the paper's
// `indexedDF.cache()`. Indexed relations are memory-resident by
// construction, so caching them is a no-op returning the same frame;
// vanilla relations materialize their columnar cache; derived plans
// materialize into a new cached table.
func (df *DataFrame) Cache() (*DataFrame, error) {
	switch t := tableOf(df.node).(type) {
	case *catalog.IndexedTable:
		return df, nil
	case *catalog.ColumnTable:
		if err := t.SetCached(true); err != nil {
			return nil, err
		}
		return df, nil
	}
	// Derived plan: materialize into an anonymous cached table.
	schema, err := df.Schema()
	if err != nil {
		return nil, err
	}
	rows, err := df.Collect()
	if err != nil {
		return nil, err
	}
	name := df.sess.anonName("cached")
	cached, err := df.sess.CreateTable(name, schema, rows)
	if err != nil {
		return nil, err
	}
	if _, err := cached.Cache(); err != nil {
		return nil, err
	}
	return cached, nil
}

// GetRows returns a DataFrame of all rows whose indexed key equals key —
// the paper's `indexedDF.getRows(lookupKey)`. The planner lowers it to an
// IndexLookup (Ctrie probe + backward-chain walk).
func (df *DataFrame) GetRows(key any) (*DataFrame, error) {
	it := df.indexedTable()
	if it == nil {
		return nil, fmt.Errorf("indexeddf: GetRows requires an Indexed DataFrame")
	}
	schema := df.node.Schema()
	keyName := schema.Field(it.KeyColumn()).Name
	return df.Filter(Eq(Col(keyName), Lit(key))), nil
}

// AppendRows appends another DataFrame's rows — the paper's
// `indexedDF.appendRows(aRegularDF)`. On an Indexed DataFrame the rows are
// routed to their hash partitions and appended under multi-version
// concurrency (running queries keep their snapshots). On a vanilla cached
// table the appends invalidate the columnar cache (Spark's behaviour the
// paper improves on). Organizing few rows per call gives fine-grained
// low-latency updates; large DataFrames amortize as batches.
func (df *DataFrame) AppendRows(other *DataFrame) (*DataFrame, error) {
	rows, err := other.Collect()
	if err != nil {
		return nil, err
	}
	return df.AppendRowsSlice(rows)
}

// AppendRowsSlice appends literal rows (no query execution on the input).
func (df *DataFrame) AppendRowsSlice(rows []sqltypes.Row) (*DataFrame, error) {
	switch t := tableOf(df.node).(type) {
	case *catalog.IndexedTable:
		if err := t.Core().Append(rows); err != nil {
			return nil, err
		}
		return df, nil
	case *catalog.ColumnTable:
		t.Append(rows)
		return df, nil
	}
	return nil, fmt.Errorf("indexeddf: AppendRows requires a base table DataFrame")
}

// Join joins with another DataFrame on cond — the paper's
// `indexedDF.join(regularDF, indexedDF.col("c1") === regularDF.col("c2"))`.
// When either side is indexed on its join column the planner triggers the
// indexed join (indexed side = build side, probe side shuffled to the
// index partitioning or broadcast when small).
func (df *DataFrame) Join(other *DataFrame, cond expr.Expr) *DataFrame {
	return df.sess.frame(plan.NewJoin(plan.InnerJoin, df.node, other.node, cond))
}

// LeftJoin is a left outer join.
func (df *DataFrame) LeftJoin(other *DataFrame, cond expr.Expr) *DataFrame {
	return df.sess.frame(plan.NewJoin(plan.LeftOuterJoin, df.node, other.node, cond))
}

// JoinOn equi-joins on named columns.
func (df *DataFrame) JoinOn(other *DataFrame, leftCol, rightCol string) *DataFrame {
	return df.Join(other, Eq(Col(leftCol), Col(rightCol)))
}

// ---------------------------------------------------------------------------
// Relational operators

// Filter keeps rows satisfying cond.
func (df *DataFrame) Filter(cond expr.Expr) *DataFrame {
	return df.sess.frame(plan.NewFilter(cond, df.node))
}

// Where is Filter.
func (df *DataFrame) Where(cond expr.Expr) *DataFrame { return df.Filter(cond) }

// Select projects expressions.
func (df *DataFrame) Select(exprs ...expr.Expr) *DataFrame {
	return df.sess.frame(plan.NewProject(exprs, df.node))
}

// SelectCols projects columns by name.
func (df *DataFrame) SelectCols(names ...string) *DataFrame {
	exprs := make([]expr.Expr, len(names))
	for i, n := range names {
		exprs[i] = Col(n)
	}
	return df.Select(exprs...)
}

// GroupBy starts a grouped aggregation.
func (df *DataFrame) GroupBy(cols ...string) *GroupedData {
	groups := make([]expr.Expr, len(cols))
	for i, c := range cols {
		groups[i] = Col(c)
	}
	return &GroupedData{df: df, groups: groups}
}

// Agg computes global aggregates (no grouping).
func (df *DataFrame) Agg(aggs ...expr.Agg) *DataFrame {
	return df.sess.frame(plan.NewAggregate(nil, aggs, df.node))
}

// OrderBy sorts by columns; prefix a name with '-' for descending
// (e.g. OrderBy("-creationDate", "id")).
func (df *DataFrame) OrderBy(cols ...string) *DataFrame {
	orders := make([]plan.SortOrder, len(cols))
	for i, c := range cols {
		desc := false
		if strings.HasPrefix(c, "-") {
			desc = true
			c = c[1:]
		}
		orders[i] = plan.SortOrder{Expr: Col(c), Desc: desc}
	}
	return df.sess.frame(plan.NewSort(orders, df.node))
}

// Limit truncates to n rows.
func (df *DataFrame) Limit(n int64) *DataFrame {
	return df.sess.frame(plan.NewLimit(n, df.node))
}

// Union concatenates with another DataFrame (UNION ALL).
func (df *DataFrame) Union(other *DataFrame) *DataFrame {
	return df.sess.frame(plan.NewUnion(df.node, other.node))
}

// Distinct removes duplicate rows (GROUP BY all columns).
func (df *DataFrame) Distinct() (*DataFrame, error) {
	schema, err := df.Schema()
	if err != nil {
		return nil, err
	}
	groups := make([]expr.Expr, schema.Len())
	for i, f := range schema.Fields {
		groups[i] = Col(f.Name)
	}
	return df.sess.frame(plan.NewAggregate(groups, nil, df.node)), nil
}

// As re-aliases a base relation (for self-joins).
func (df *DataFrame) As(alias string) (*DataFrame, error) {
	rel, ok := df.node.(*plan.Relation)
	if !ok {
		return nil, fmt.Errorf("indexeddf: As requires a base table DataFrame")
	}
	return df.sess.frame(plan.NewRelation(rel.Table, alias)), nil
}

// ---------------------------------------------------------------------------
// Actions
//
// Query is the primitive: a streaming cursor under a caller context. The
// batch actions (Collect, Count, First, Show) are compatibility shims that
// run the cursor to completion under context.Background().

// Query executes the plan as a streaming cursor: rows are pulled
// partition-at-a-time (batch-at-a-time inside vectorized subtrees) while
// remaining partition tasks run on the task pool, so first-row latency is
// decoupled from result size; a point plan runs inline, on the caller's
// goroutine (see Rows). Cancelling ctx — or exceeding its deadline,
// or the session's Config.QueryTimeout — stops the remaining partition
// tasks, shuffle stages and index scans promptly; the reason surfaces from
// Rows.Err().
func (df *DataFrame) Query(ctx context.Context) (*Rows, error) {
	return df.sess.run(ctx, df.node, nil, queryMeta{})
}

// Collect executes the plan and returns all rows — Query under
// context.Background() drained to a slice.
func (df *DataFrame) Collect() ([]sqltypes.Row, error) {
	return df.CollectContext(context.Background())
}

// CollectContext is Collect under a cancellation context.
func (df *DataFrame) CollectContext(ctx context.Context) ([]sqltypes.Row, error) {
	rows, err := df.Query(ctx)
	if err != nil {
		return nil, err
	}
	return drainRows(rows)
}

// Count executes the plan and returns the row count, streaming the cursor
// without materializing the result.
func (df *DataFrame) Count() (int64, error) {
	return df.CountContext(context.Background())
}

// CountContext is Count under a cancellation context.
func (df *DataFrame) CountContext(ctx context.Context) (int64, error) {
	rows, err := df.Query(ctx)
	if err != nil {
		return 0, err
	}
	defer rows.Close()
	var n int64
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		return 0, err
	}
	return n, nil
}

// First returns the first row, or nil when empty. The cursor stops the
// scan as soon as the row arrives.
func (df *DataFrame) First() (sqltypes.Row, error) {
	rows, err := df.Limit(1).Query(context.Background())
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	if rows.Next() {
		return rows.Row(), nil
	}
	return nil, rows.Err()
}

// Show renders up to n rows as an aligned text table.
func (df *DataFrame) Show(n int) (string, error) {
	schema, err := df.Schema()
	if err != nil {
		return "", err
	}
	rows, err := df.Limit(int64(n)).Collect()
	if err != nil {
		return "", err
	}
	return renderTable(schema, rows), nil
}

// Explain returns the logical, optimized and physical plans. They are the
// plans the query runs, from the plan cache; a literal prints as its
// value, and a `?` as ?N.
func (df *DataFrame) Explain() (string, error) {
	ent, args, _, err := df.sess.prepare(df.node, nil)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("== Analyzed Logical Plan ==\n")
	sb.WriteString(plan.TreeString(ent.analyzed))
	sb.WriteString("== Optimized Logical Plan ==\n")
	sb.WriteString(plan.TreeString(ent.optimized))
	if ent.inline {
		sb.WriteString("== Physical Plan (inline) ==\n")
	} else {
		sb.WriteString("== Physical Plan ==\n")
	}
	sb.WriteString(physical.TreeString(ent.exec))
	if views := opt.AnsweredFromView(ent.exec); len(views) > 0 {
		sb.WriteString("== Materialized Views ==\n")
		for _, v := range views {
			fmt.Fprintf(&sb, "answered from materialized view %q (base %s, version %d, delta-maintained)\n",
				v.Name(), v.BaseName(), v.RefreshedVersion())
		}
	}
	return expr.FormatArgs(sb.String(), args), nil
}

// ExplainAnalyze executes the plan to completion under ctx and returns the
// physical plan annotated with the actuals recorded during that execution
// — rows, batches, predicate selectivity, wall time and memory per
// operator, plus a query-level summary (tasks, shuffle bytes, peak
// memory). The result rows are drained and discarded.
func (df *DataFrame) ExplainAnalyze(ctx context.Context) (string, error) {
	rows, err := df.sess.run(ctx, df.node, nil, queryMeta{fullLimit: true})
	if err != nil {
		return "", err
	}
	defer rows.Close()
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		return "", err
	}
	rows.Close() // settle totals before rendering
	return rows.AnalyzeString(), nil
}

// IndexedCore returns the underlying indexed storage when the DataFrame is
// a base Indexed DataFrame (nil otherwise); benchmarks and the demo use it
// for direct snapshot access.
func (df *DataFrame) IndexedCore() *core.IndexedTable {
	if it := df.indexedTable(); it != nil {
		return it.Core()
	}
	return nil
}

func (df *DataFrame) indexedTable() *catalog.IndexedTable {
	it, _ := tableOf(df.node).(*catalog.IndexedTable)
	return it
}

// tableOf unwraps a base relation's table, or nil for derived plans.
func tableOf(n plan.Node) catalog.Table {
	if rel, ok := n.(*plan.Relation); ok {
		return rel.Table
	}
	return nil
}

func relationName(n plan.Node) string {
	if rel, ok := n.(*plan.Relation); ok {
		return rel.Table.Name()
	}
	return "df"
}

// ---------------------------------------------------------------------------
// GroupedData

// GroupedData is a pending GROUP BY.
type GroupedData struct {
	df     *DataFrame
	groups []expr.Expr
}

// Agg finishes the aggregation with explicit aggregate descriptors.
func (g *GroupedData) Agg(aggs ...expr.Agg) *DataFrame {
	return g.df.sess.frame(plan.NewAggregate(g.groups, aggs, g.df.node))
}

// Count is GROUP BY ... COUNT(*).
func (g *GroupedData) Count() *DataFrame {
	return g.Agg(expr.Agg{Func: expr.CountStarAgg, Name: "count"})
}

// renderTable formats rows with padded columns.
func renderTable(schema *sqltypes.Schema, rows []sqltypes.Row) string {
	names := schema.ShortNames()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	cells := make([][]string, len(rows))
	for r, row := range rows {
		cells[r] = make([]string, len(row))
		for c, v := range row {
			s := v.String()
			cells[r][c] = s
			if c < len(widths) && len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(vals []string) {
		sb.WriteByte('|')
		for c, v := range vals {
			fmt.Fprintf(&sb, " %-*s |", widths[c], v)
		}
		sb.WriteByte('\n')
	}
	sep := func() {
		sb.WriteByte('+')
		for _, w := range widths {
			sb.WriteString(strings.Repeat("-", w+2))
			sb.WriteByte('+')
		}
		sb.WriteByte('\n')
	}
	sep()
	writeRow(names)
	sep()
	for _, r := range cells {
		writeRow(r)
	}
	sep()
	return sb.String()
}
