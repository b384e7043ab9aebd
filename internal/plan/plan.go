// Package plan defines the logical query plan — the abstract representation
// Catalyst-style optimization works on. Plans are built unresolved (column
// names as strings), then the analyzer in internal/opt binds expressions to
// ordinals and computes schemas.
package plan

import (
	"fmt"
	"strings"

	"indexeddf/internal/catalog"
	"indexeddf/internal/expr"
	"indexeddf/internal/sqltypes"
	"indexeddf/internal/stats"
)

// Stats carries the cardinality estimate used by planning heuristics
// (broadcast thresholds, build-side selection) and, when the source
// tables collect statistics, per-output-column detail (min/max, null
// fraction, distinct counts) for selectivity estimation. Cols is nil
// when no statistics are available; entries may individually be nil
// for computed columns.
type Stats struct {
	Rows int64
	Cols []*stats.ColumnStats
}

// Col returns the statistics for output column i, or nil.
func (s Stats) Col(i int) *stats.ColumnStats {
	if i < 0 || i >= len(s.Cols) {
		return nil
	}
	return s.Cols[i]
}

// Node is a logical plan operator.
type Node interface {
	// Schema returns the node's output schema; nil until the plan is
	// analyzed (expression-bearing nodes need binding to know types).
	// Nodes build their schema once and share it: callers must treat it
	// as read-only.
	Schema() *sqltypes.Schema
	// Children returns input plans. Nodes are immutable, and the slice
	// may be the node's own: callers must not modify it.
	Children() []Node
	// WithChildren rebuilds the node with new children (same arity).
	WithChildren(children []Node) (Node, error)
	// Stats estimates output cardinality.
	Stats() Stats
	fmt.Stringer
}

// ---------------------------------------------------------------------------
// Relation

// Relation scans a catalog table. Alias qualifies the output columns
// (defaulting to the table name) so joins can disambiguate.
type Relation struct {
	Table  catalog.Table
	Alias  string
	schema *sqltypes.Schema
}

// NewRelation builds a relation node, qualifying the table's columns by
// the alias once.
func NewRelation(t catalog.Table, alias string) *Relation {
	if alias == "" {
		alias = t.Name()
	}
	return &Relation{Table: t, Alias: alias, schema: t.Schema().Qualify(alias)}
}

// Schema implements Node; columns are qualified by the alias.
func (r *Relation) Schema() *sqltypes.Schema { return r.schema }

// Children implements Node.
func (r *Relation) Children() []Node { return nil }

// WithChildren implements Node.
func (r *Relation) WithChildren(c []Node) (Node, error) {
	if len(c) != 0 {
		return nil, fmt.Errorf("plan: relation takes no children")
	}
	return r, nil
}

// Stats implements Node; when the catalog table maintains statistics
// (stats.Provider) the per-column detail rides along.
func (r *Relation) Stats() Stats {
	s := Stats{Rows: r.Table.RowCount()}
	if p, ok := r.Table.(stats.Provider); ok {
		s.Cols = p.ColumnStats()
	}
	return s
}

func (r *Relation) String() string {
	kind := "Relation"
	if _, ok := r.Table.(*catalog.IndexedTable); ok {
		kind = "IndexedRelation"
	}
	return fmt.Sprintf("%s %s as %s", kind, r.Table.Name(), r.Alias)
}

// ---------------------------------------------------------------------------
// Project

// Project computes expressions over its child.
type Project struct {
	Exprs  []expr.Expr
	Child  Node
	schema *sqltypes.Schema
	kids   [1]Node // Child, for Children
}

// NewProject builds a projection.
func NewProject(exprs []expr.Expr, child Node) *Project {
	p := &Project{Exprs: exprs, Child: child, kids: [1]Node{child}}
	p.computeSchema()
	return p
}

func (p *Project) computeSchema() {
	for _, e := range p.Exprs {
		if !e.Resolved() {
			p.schema = nil
			return
		}
	}
	fields := make([]sqltypes.Field, len(p.Exprs))
	for i, e := range p.Exprs {
		fields[i] = sqltypes.Field{Name: OutputName(e, i), Type: e.Type(), Nullable: true}
	}
	p.schema = sqltypes.NewSchema(fields...)
}

// OutputName derives the column name an expression produces.
func OutputName(e expr.Expr, i int) string {
	switch t := e.(type) {
	case *expr.Alias:
		return t.Name
	case *expr.Bound:
		return t.Name
	case *expr.Col:
		return t.Name
	default:
		return fmt.Sprintf("col%d", i)
	}
}

// Schema implements Node.
func (p *Project) Schema() *sqltypes.Schema { return p.schema }

// Children implements Node.
func (p *Project) Children() []Node { return p.kids[:] }

// WithChildren implements Node.
func (p *Project) WithChildren(c []Node) (Node, error) {
	if len(c) != 1 {
		return nil, fmt.Errorf("plan: project takes 1 child")
	}
	return NewProject(p.Exprs, c[0]), nil
}

// Stats implements Node; column detail is remapped through pass-through
// projections (bare or aliased column references).
func (p *Project) Stats() Stats {
	child := p.Child.Stats()
	out := Stats{Rows: child.Rows}
	if child.Cols != nil {
		out.Cols = make([]*stats.ColumnStats, len(p.Exprs))
		for i, e := range p.Exprs {
			if b, ok := unwrapBoundExpr(e); ok {
				out.Cols[i] = child.Col(b.Ordinal)
			}
		}
	}
	return out
}

// unwrapBoundExpr unwraps a bare or aliased bound column reference.
func unwrapBoundExpr(e expr.Expr) (*expr.Bound, bool) {
	if a, ok := e.(*expr.Alias); ok {
		e = a.E
	}
	b, ok := e.(*expr.Bound)
	return b, ok
}

func (p *Project) String() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return "Project [" + strings.Join(parts, ", ") + "]"
}

// ---------------------------------------------------------------------------
// Filter

// Filter keeps rows satisfying Cond.
type Filter struct {
	Cond  expr.Expr
	Child Node
	kids  [1]Node // Child, for Children
}

// NewFilter builds a filter.
func NewFilter(cond expr.Expr, child Node) *Filter {
	return &Filter{Cond: cond, Child: child, kids: [1]Node{child}}
}

// Schema implements Node.
func (f *Filter) Schema() *sqltypes.Schema { return f.Child.Schema() }

// Children implements Node.
func (f *Filter) Children() []Node { return f.kids[:] }

// WithChildren implements Node.
func (f *Filter) WithChildren(c []Node) (Node, error) {
	if len(c) != 1 {
		return nil, fmt.Errorf("plan: filter takes 1 child")
	}
	return NewFilter(f.Cond, c[0]), nil
}

// Stats implements Node; selectivity comes from column statistics when
// the child carries them, falling back to structural defaults.
func (f *Filter) Stats() Stats {
	child := f.Child.Stats()
	sel := EstimateSelectivity(f.Cond, child)
	rows := int64(float64(child.Rows) * sel)
	if rows < 1 {
		rows = 1
	}
	// Column detail passes through: a filter narrows ranges in ways we
	// don't model, but min/max/NDV stay valid as upper bounds.
	return Stats{Rows: rows, Cols: child.Cols}
}

func (f *Filter) String() string { return fmt.Sprintf("Filter %s", f.Cond) }

// ---------------------------------------------------------------------------
// Join

// JoinType enumerates supported join types.
type JoinType uint8

// Join types.
const (
	InnerJoin JoinType = iota
	LeftOuterJoin
)

func (t JoinType) String() string {
	return [...]string{"Inner", "LeftOuter"}[t]
}

// Join combines two inputs on a condition (bound against the concatenated
// schema: left ordinals first).
type Join struct {
	Type        JoinType
	Left, Right Node
	Cond        expr.Expr // nil = cross join
	schema      *sqltypes.Schema
	kids        [2]Node // Left and Right, for Children
}

// NewJoin builds a join node.
func NewJoin(t JoinType, left, right Node, cond expr.Expr) *Join {
	j := &Join{Type: t, Left: left, Right: right, Cond: cond, kids: [2]Node{left, right}}
	j.computeSchema()
	return j
}

// computeSchema concatenates the children's schemas; nil until both are
// resolved. Schemas are shared read-only, so the outer join's nullable
// marks go on the fresh Concat copy, never on the right child's fields.
func (j *Join) computeSchema() {
	l, r := j.Left.Schema(), j.Right.Schema()
	if l == nil || r == nil {
		return
	}
	out := l.Concat(r)
	if j.Type == LeftOuterJoin {
		for i := l.Len(); i < out.Len(); i++ {
			out.Fields[i].Nullable = true
		}
	}
	j.schema = out
}

// Schema implements Node.
func (j *Join) Schema() *sqltypes.Schema { return j.schema }

// Children implements Node.
func (j *Join) Children() []Node { return j.kids[:] }

// WithChildren implements Node.
func (j *Join) WithChildren(c []Node) (Node, error) {
	if len(c) != 2 {
		return nil, fmt.Errorf("plan: join takes 2 children")
	}
	return NewJoin(j.Type, c[0], c[1], j.Cond), nil
}

// Stats implements Node; column detail concatenates left-then-right to
// match the join output schema.
func (j *Join) Stats() Stats {
	ls, rs := j.Left.Stats(), j.Right.Stats()
	out := Stats{Rows: ls.Rows}
	if rs.Rows > out.Rows {
		out.Rows = rs.Rows
	}
	if ls.Cols != nil || rs.Cols != nil {
		lw, rw := 0, 0
		if s := j.Left.Schema(); s != nil {
			lw = s.Len()
		}
		if s := j.Right.Schema(); s != nil {
			rw = s.Len()
		}
		if lw+rw > 0 {
			out.Cols = make([]*stats.ColumnStats, lw+rw)
			for i := 0; i < lw; i++ {
				out.Cols[i] = ls.Col(i)
			}
			for i := 0; i < rw; i++ {
				out.Cols[lw+i] = rs.Col(i)
			}
		}
	}
	return out
}

func (j *Join) String() string {
	if j.Cond == nil {
		return fmt.Sprintf("Join %s (cross)", j.Type)
	}
	return fmt.Sprintf("Join %s on %s", j.Type, j.Cond)
}

// ---------------------------------------------------------------------------
// Aggregate

// Aggregate groups by Groups and computes Aggs.
type Aggregate struct {
	Groups []expr.Expr
	Aggs   []expr.Agg
	Child  Node
	schema *sqltypes.Schema
}

// NewAggregate builds an aggregation.
func NewAggregate(groups []expr.Expr, aggs []expr.Agg, child Node) *Aggregate {
	a := &Aggregate{Groups: groups, Aggs: aggs, Child: child}
	a.computeSchema()
	return a
}

func (a *Aggregate) computeSchema() {
	for _, g := range a.Groups {
		if !g.Resolved() {
			return
		}
	}
	for _, ag := range a.Aggs {
		if ag.Arg != nil && !ag.Arg.Resolved() {
			return
		}
	}
	fields := make([]sqltypes.Field, 0, len(a.Groups)+len(a.Aggs))
	for i, g := range a.Groups {
		fields = append(fields, sqltypes.Field{Name: OutputName(g, i), Type: g.Type(), Nullable: true})
	}
	for _, ag := range a.Aggs {
		name := ag.Name
		if name == "" {
			name = strings.ToLower(ag.String())
		}
		fields = append(fields, sqltypes.Field{Name: name, Type: ag.ResultType(), Nullable: true})
	}
	a.schema = sqltypes.NewSchema(fields...)
}

// Schema implements Node.
func (a *Aggregate) Schema() *sqltypes.Schema { return a.schema }

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Child} }

// WithChildren implements Node.
func (a *Aggregate) WithChildren(c []Node) (Node, error) {
	if len(c) != 1 {
		return nil, fmt.Errorf("plan: aggregate takes 1 child")
	}
	return NewAggregate(a.Groups, a.Aggs, c[0]), nil
}

// Stats implements Node; with column statistics the group count is the
// product of the grouping columns' distinct counts (capped at the
// child cardinality), otherwise the structural child/10 guess.
func (a *Aggregate) Stats() Stats {
	if len(a.Groups) == 0 {
		return Stats{Rows: 1}
	}
	child := a.Child.Stats()
	groups := int64(1)
	known := child.Cols != nil
	for _, g := range a.Groups {
		b, ok := unwrapBoundExpr(g)
		if !ok {
			known = false
			break
		}
		cs := child.Col(b.Ordinal)
		if cs == nil || cs.NDV <= 0 {
			known = false
			break
		}
		if groups > child.Rows/cs.NDV {
			// Product would overshoot the child cardinality; cap below.
			groups = child.Rows
			break
		}
		groups *= cs.NDV
	}
	rows := child.Rows / 10
	if known {
		rows = groups
	}
	if rows > child.Rows {
		rows = child.Rows
	}
	if rows < 1 {
		rows = 1
	}
	return Stats{Rows: rows}
}

func (a *Aggregate) String() string {
	gs := make([]string, len(a.Groups))
	for i, g := range a.Groups {
		gs[i] = g.String()
	}
	as := make([]string, len(a.Aggs))
	for i, ag := range a.Aggs {
		as[i] = ag.String()
	}
	return fmt.Sprintf("Aggregate group=[%s] aggs=[%s]",
		strings.Join(gs, ", "), strings.Join(as, ", "))
}

// ---------------------------------------------------------------------------
// Sort

// SortOrder is one ORDER BY term.
type SortOrder struct {
	Expr expr.Expr
	Desc bool
}

func (o SortOrder) String() string {
	if o.Desc {
		return o.Expr.String() + " DESC"
	}
	return o.Expr.String() + " ASC"
}

// Sort orders its child's rows.
type Sort struct {
	Orders []SortOrder
	Child  Node
}

// NewSort builds a sort node.
func NewSort(orders []SortOrder, child Node) *Sort { return &Sort{Orders: orders, Child: child} }

// Schema implements Node.
func (s *Sort) Schema() *sqltypes.Schema { return s.Child.Schema() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Child} }

// WithChildren implements Node.
func (s *Sort) WithChildren(c []Node) (Node, error) {
	if len(c) != 1 {
		return nil, fmt.Errorf("plan: sort takes 1 child")
	}
	return NewSort(s.Orders, c[0]), nil
}

// Stats implements Node.
func (s *Sort) Stats() Stats { return s.Child.Stats() }

func (s *Sort) String() string {
	parts := make([]string, len(s.Orders))
	for i, o := range s.Orders {
		parts[i] = o.String()
	}
	return "Sort [" + strings.Join(parts, ", ") + "]"
}

// ---------------------------------------------------------------------------
// TopN

// TopN is the fused form of Limit(Sort(x)): the first N rows of the child
// under the sort orders. The optimizer recognizes ORDER BY ... LIMIT n
// plans and rewrites them to this node so the physical layer can run a
// bounded top-n (per-partition heaps plus an n-row merge) instead of a
// full global sort; the row engine lowers it back to Sort + Limit.
type TopN struct {
	Orders []SortOrder
	N      int64
	Child  Node
}

// NewTopN builds a top-n node.
func NewTopN(orders []SortOrder, n int64, child Node) *TopN {
	return &TopN{Orders: orders, N: n, Child: child}
}

// Schema implements Node.
func (t *TopN) Schema() *sqltypes.Schema { return t.Child.Schema() }

// Children implements Node.
func (t *TopN) Children() []Node { return []Node{t.Child} }

// WithChildren implements Node.
func (t *TopN) WithChildren(c []Node) (Node, error) {
	if len(c) != 1 {
		return nil, fmt.Errorf("plan: top-n takes 1 child")
	}
	return NewTopN(t.Orders, t.N, c[0]), nil
}

// Stats implements Node.
func (t *TopN) Stats() Stats {
	rows := t.Child.Stats().Rows
	if t.N < rows {
		rows = t.N
	}
	return Stats{Rows: rows}
}

func (t *TopN) String() string {
	parts := make([]string, len(t.Orders))
	for i, o := range t.Orders {
		parts[i] = o.String()
	}
	return fmt.Sprintf("TopN %d [%s]", t.N, strings.Join(parts, ", "))
}

// ---------------------------------------------------------------------------
// Limit

// Limit truncates its child to N rows.
type Limit struct {
	N     int64
	Child Node
}

// NewLimit builds a limit node.
func NewLimit(n int64, child Node) *Limit { return &Limit{N: n, Child: child} }

// Schema implements Node.
func (l *Limit) Schema() *sqltypes.Schema { return l.Child.Schema() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Child} }

// WithChildren implements Node.
func (l *Limit) WithChildren(c []Node) (Node, error) {
	if len(c) != 1 {
		return nil, fmt.Errorf("plan: limit takes 1 child")
	}
	return NewLimit(l.N, c[0]), nil
}

// Stats implements Node.
func (l *Limit) Stats() Stats {
	rows := l.Child.Stats().Rows
	if l.N < rows {
		rows = l.N
	}
	return Stats{Rows: rows}
}

func (l *Limit) String() string { return fmt.Sprintf("Limit %d", l.N) }

// ---------------------------------------------------------------------------
// Union

// Union concatenates inputs with identical schemas (UNION ALL).
type Union struct {
	Inputs []Node
}

// NewUnion builds a union node.
func NewUnion(inputs ...Node) *Union { return &Union{Inputs: inputs} }

// Schema implements Node.
func (u *Union) Schema() *sqltypes.Schema {
	if len(u.Inputs) == 0 {
		return nil
	}
	return u.Inputs[0].Schema()
}

// Children implements Node.
func (u *Union) Children() []Node { return u.Inputs }

// WithChildren implements Node.
func (u *Union) WithChildren(c []Node) (Node, error) {
	if len(c) != len(u.Inputs) {
		return nil, fmt.Errorf("plan: union arity mismatch")
	}
	return NewUnion(c...), nil
}

// Stats implements Node.
func (u *Union) Stats() Stats {
	var rows int64
	for _, in := range u.Inputs {
		rows += in.Stats().Rows
	}
	return Stats{Rows: rows}
}

func (u *Union) String() string { return fmt.Sprintf("Union (%d inputs)", len(u.Inputs)) }

// ---------------------------------------------------------------------------
// Values

// Values is an inline row literal relation (used by appends and tests).
type Values struct {
	Rows   []sqltypes.Row
	schema *sqltypes.Schema
}

// NewValues wraps literal rows with a schema.
func NewValues(schema *sqltypes.Schema, rows []sqltypes.Row) *Values {
	return &Values{Rows: rows, schema: schema}
}

// Schema implements Node.
func (v *Values) Schema() *sqltypes.Schema { return v.schema }

// Children implements Node.
func (v *Values) Children() []Node { return nil }

// WithChildren implements Node.
func (v *Values) WithChildren(c []Node) (Node, error) {
	if len(c) != 0 {
		return nil, fmt.Errorf("plan: values takes no children")
	}
	return v, nil
}

// Stats implements Node.
func (v *Values) Stats() Stats { return Stats{Rows: int64(len(v.Rows))} }

func (v *Values) String() string { return fmt.Sprintf("Values (%d rows)", len(v.Rows)) }

// ---------------------------------------------------------------------------
// Tree utilities

// TreeString renders the plan as an indented tree.
func TreeString(n Node) string {
	var sb strings.Builder
	var rec func(Node, int)
	rec = func(node Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(node.String())
		sb.WriteByte('\n')
		for _, c := range node.Children() {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return sb.String()
}

// Transform rewrites the plan bottom-up. A node none of whose children
// changed is passed to fn as itself, so a tree fn leaves alone comes back
// as the same pointer.
func Transform(n Node, fn func(Node) (Node, error)) (Node, error) {
	children := n.Children()
	var newChildren []Node // allocated at the first changed child
	for i, c := range children {
		nc, err := Transform(c, fn)
		if err != nil {
			return nil, err
		}
		if nc != c && newChildren == nil {
			newChildren = make([]Node, len(children))
			copy(newChildren, children[:i])
		}
		if newChildren != nil {
			newChildren[i] = nc
		}
	}
	if newChildren != nil {
		var err error
		if n, err = n.WithChildren(newChildren); err != nil {
			return nil, err
		}
	}
	return fn(n)
}
