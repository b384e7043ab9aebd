package plan

import (
	"math"
	"reflect"
	"strconv"

	"indexeddf/internal/catalog"
	"indexeddf/internal/expr"
	"indexeddf/internal/sqltypes"
)

// Shape is one query's plan-cache lookup. Key walks an unanalyzed plan and
// writes its cache key: the plan's shape (operators, column names, table
// identities, operator arguments) plus the type of every argument it runs
// with. A value literal is not part of the shape: it becomes an argument
// slot after the user's `?`s, and Args collects its value. On a miss, Lift
// rebuilds the plan with those slots as expr.Params, so one compiled plan
// serves every query of that shape and those argument types. A user's `?`
// is typed by its argument; bound to NULL or not bound at all (to explain
// the plan) it is untyped, and analysis types it as it types NULL.
//
// A literal whose value compilation reads stays in the key by value:
//   - NULL: analysis types it from its partner;
//   - booleans: SimplifyFilters drops a TRUE filter, and selectivity reads
//     a boolean as 0 or 1;
//   - literals under an operator with no column or `?` below it:
//     FoldConstants evaluates the subtree;
//   - an unnamed aggregate's argument: the column is named after its text;
//   - the filter, groups and aggregates of an Aggregate over filters over
//     an indexed relation that has a materialized view (Views): the
//     planner answers it from a view whose definition matches textually.
//
// LIMIT and TOP-N bounds are node fields, keyed by value. A Shape is
// reusable: each Key starts over, and keying allocates nothing once its
// buffers have grown.
type Shape struct {
	// Views are the materialized views the planner may answer an
	// aggregate from (nil: none).
	Views *catalog.ViewRegistry

	key    []byte
	vals   []sqltypes.Value // lifted literal values, in walk order
	user   []sqltypes.Value
	nUser  int  // slots the user's `?`s take: highest index + 1
	build  bool // Lift: rebuild the plan instead of only keying it
	lifted int  // Lift: slots handed out so far
	// viewed records Key's view-shape decision per Aggregate, in walk
	// order, so Lift decides alike even if a view appeared in between.
	viewed []bool
	aggs   int
}

// Key returns n's cache key run with the user's `?` arguments user (a
// `?` past them is keyed untyped). The slice is valid until the next Key.
func (s *Shape) Key(n Node, user []sqltypes.Value) []byte {
	s.key, s.vals, s.user, s.nUser, s.build, s.viewed = s.key[:0], s.vals[:0], user, 0, false, s.viewed[:0]
	s.node(n, false)
	return s.key
}

// NumParams returns the number of slots the keyed plan's `?`s take.
func (s *Shape) NumParams() int { return s.nUser }

// Args returns a new argument list for one execution of the keyed plan:
// the user's arguments, one slot per `?` (NULL past the last given), then
// the lifted literals in slot order.
func (s *Shape) Args() []sqltypes.Value {
	if s.nUser == 0 && len(s.vals) == 0 {
		return nil
	}
	args := make([]sqltypes.Value, s.nUser+len(s.vals))
	copy(args, s.user)
	copy(args[s.nUser:], s.vals)
	return args
}

// Lift returns the plan last passed to Key, n, with each lifted literal
// replaced by its slot and each `?` typed by its argument. The key Key
// returned stays valid.
func (s *Shape) Lift(n Node) Node {
	keyLen := len(s.key) // the rebuilding walk writes its key bytes after it
	s.build, s.lifted, s.aggs = true, 0, 0
	defer func() { s.key, s.build = s.key[:keyLen], false }()
	return s.node(n, false)
}

// node keys one plan node and, under Lift, rebuilds it. keep holds a
// filter's literals by value (the view shape, see Aggregate).
func (s *Shape) node(n Node, keep bool) Node {
	switch t := n.(type) {
	case *Relation:
		s.tag('R')
		s.ptr(t.Table)
		s.str(t.Alias)
	case *Values:
		s.op('V', int64(len(t.schema.Fields)))
		for _, f := range t.schema.Fields {
			s.str(f.Name)
			s.typ(f.Type)
		}
		s.int(int64(len(t.Rows)))
		for _, row := range t.Rows {
			for _, v := range row {
				s.value(v)
			}
		}
	case *Project:
		s.op('P', int64(len(t.Exprs)))
		if exprs, child := s.exprs(t.Exprs, false), s.node(t.Child, false); s.build {
			return NewProject(exprs, child)
		}
	case *Filter:
		s.tag('F')
		if cond, child := s.expr(t.Cond, keep), s.node(t.Child, keep); s.build {
			return NewFilter(cond, child)
		}
	case *Join:
		s.op('J', int64(t.Type))
		cond := s.optExpr(t.Cond, false)
		if left, right := s.node(t.Left, false), s.node(t.Right, false); s.build {
			return NewJoin(t.Type, left, right, cond)
		}
	case *Aggregate:
		var view bool
		if s.build {
			view, s.aggs = s.viewed[s.aggs], s.aggs+1
		} else {
			view = s.viewShape(t.Child)
			s.viewed = append(s.viewed, view)
		}
		s.op('A', int64(len(t.Groups)))
		groups := s.exprs(t.Groups, view)
		s.int(int64(len(t.Aggs)))
		var aggs []expr.Agg
		for _, a := range t.Aggs {
			s.op('a', int64(a.Func))
			s.str(a.Name)
			if arg := s.optExpr(a.Arg, view || a.Name == ""); s.build {
				aggs = append(aggs, expr.Agg{Func: a.Func, Arg: arg, Name: a.Name})
			}
		}
		if child := s.node(t.Child, view); s.build {
			return NewAggregate(groups, aggs, child)
		}
	case *Sort:
		s.tag('S')
		if orders, child := s.orders(t.Orders), s.node(t.Child, false); s.build {
			return NewSort(orders, child)
		}
	case *TopN:
		s.op('T', t.N)
		if orders, child := s.orders(t.Orders), s.node(t.Child, false); s.build {
			return NewTopN(orders, t.N, child)
		}
	case *Limit:
		s.op('L', t.N)
		if child := s.node(t.Child, false); s.build {
			return NewLimit(t.N, child)
		}
	case *Union:
		s.op('U', int64(len(t.Inputs)))
		var inputs []Node
		for _, in := range t.Inputs {
			if c := s.node(in, false); s.build {
				inputs = append(inputs, c)
			}
		}
		if s.build {
			return NewUnion(inputs...)
		}
	default:
		// An unknown node kind is keyed by identity and compiled as is.
		s.tag('X')
		s.ptr(n)
	}
	return n
}

// viewShape reports whether an Aggregate over child is a shape the
// planner may answer from a materialized view: filters over an indexed
// relation that has a view.
func (s *Shape) viewShape(child Node) bool {
	for {
		switch t := child.(type) {
		case *Filter:
			child = t.Child
		case *Relation:
			it, ok := t.Table.(*catalog.IndexedTable)
			return ok && s.Views != nil && s.Views.HasBase(it.Core())
		default:
			return false
		}
	}
}

// exprs keys es and, under Lift, returns them rebuilt.
func (s *Shape) exprs(es []expr.Expr, keep bool) []expr.Expr {
	var out []expr.Expr
	for _, e := range es {
		if b := s.expr(e, keep); s.build {
			out = append(out, b)
		}
	}
	return out
}

func (s *Shape) orders(os []SortOrder) []SortOrder {
	s.int(int64(len(os)))
	var out []SortOrder
	for _, o := range os {
		if o.Desc {
			s.tag('d')
		}
		if e := s.expr(o.Expr, false); s.build {
			out = append(out, SortOrder{Expr: e, Desc: o.Desc})
		}
	}
	return out
}

// optExpr is expr for an expression that may be nil.
func (s *Shape) optExpr(e expr.Expr, keep bool) expr.Expr {
	if e == nil {
		s.tag('0')
		return nil
	}
	return s.expr(e, keep)
}

// expr keys one expression and, under Lift, rebuilds it. keep holds its
// literals by value; so does an operator with no column or `?` below it,
// for FoldConstants.
func (s *Shape) expr(e expr.Expr, keep bool) expr.Expr {
	switch t := e.(type) {
	case *expr.Literal:
		if keep || t.V.IsNull() || t.V.T == sqltypes.Bool {
			s.tag('v')
			s.typ(t.Type())
			s.value(t.V)
			return e
		}
		s.tag('$')
		s.typ(t.V.T)
		if !s.build {
			s.vals = append(s.vals, t.V)
			return e
		}
		s.lifted++
		return &expr.Param{Index: s.nUser + s.lifted - 1, T: t.V.T, Lifted: true}
	case *expr.Param:
		s.nUser = max(s.nUser, t.Index+1)
		var arg sqltypes.Value // NULL when absent: keyed and planned untyped
		if t.Index < len(s.user) {
			arg = s.user[t.Index]
		}
		s.op('?', int64(t.Index))
		s.typ(arg.T)
		if s.build {
			return &expr.Param{Index: t.Index, T: arg.T}
		}
		return e
	case *expr.Col:
		s.tag('c')
		s.str(t.Name)
		return e
	case *expr.Bound:
		s.op('b', int64(t.Ordinal))
		s.typ(t.T)
		s.str(t.Name)
		return e
	case *expr.Alias:
		s.tag('=')
		s.str(t.Name)
		if c := s.expr(t.E, keep); s.build {
			return expr.As(c, t.Name)
		}
		return e
	}
	keep = keep || !hasRef(e)
	switch t := e.(type) {
	case *expr.Cmp:
		s.op('C', int64(t.Op))
		if l, r := s.expr(t.L, keep), s.expr(t.R, keep); s.build {
			return expr.NewCmp(t.Op, l, r)
		}
	case *expr.Arith:
		s.op('+', int64(t.Op))
		if l, r := s.expr(t.L, keep), s.expr(t.R, keep); s.build {
			return expr.NewArith(t.Op, l, r)
		}
	case *expr.Logic:
		s.op('&', int64(t.Op))
		if l, r := s.expr(t.L, keep), s.expr(t.R, keep); s.build {
			return &expr.Logic{Op: t.Op, L: l, R: r}
		}
	case *expr.Not:
		s.tag('!')
		if c := s.expr(t.E, keep); s.build {
			return expr.NewNot(c)
		}
	case *expr.IsNull:
		if t.Negate {
			s.tag('M')
		} else {
			s.tag('N')
		}
		if c := s.expr(t.E, keep); s.build {
			return &expr.IsNull{E: c, Negate: t.Negate}
		}
	case *expr.Cast:
		s.tag('K')
		s.typ(t.To)
		if c := s.expr(t.E, keep); s.build {
			return &expr.Cast{E: c, To: t.To}
		}
	case *expr.Func:
		s.op('f', int64(len(t.Args)))
		s.str(t.Name)
		if args := s.exprs(t.Args, keep); s.build {
			return &expr.Func{Name: t.Name, Args: args}
		}
	default:
		// An unknown expression kind is keyed by identity and compiled as
		// is.
		s.tag('X')
		s.ptr(e)
	}
	return e
}

// hasRef reports whether e reads a column or a `?`, i.e. is no constant
// FoldConstants could evaluate. An unknown kind counts as a reference.
func hasRef(e expr.Expr) bool {
	switch t := e.(type) {
	case *expr.Literal:
		return false
	case *expr.Cmp:
		return hasRef(t.L) || hasRef(t.R)
	case *expr.Arith:
		return hasRef(t.L) || hasRef(t.R)
	case *expr.Logic:
		return hasRef(t.L) || hasRef(t.R)
	case *expr.Not:
		return hasRef(t.E)
	case *expr.IsNull:
		return hasRef(t.E)
	case *expr.Alias:
		return hasRef(t.E)
	case *expr.Cast:
		return hasRef(t.E)
	case *expr.Func:
		for _, a := range t.Args {
			if hasRef(a) {
				return true
			}
		}
		return false
	}
	return true
}

// The key is a prefix code: one-byte tags, integers ended by ',', strings
// prefixed by their length. Each tag fixes what follows it, and an
// optional tag (a sort key's 'd', a nil expression's '0') is no tag that
// may stand in its place, so two different trees never write the same
// bytes.

func (s *Shape) tag(b byte) { s.key = append(s.key, b) }

func (s *Shape) op(b byte, x int64) {
	s.tag(b)
	s.int(x)
}

func (s *Shape) int(x int64) {
	s.key = strconv.AppendInt(s.key, x, 10)
	s.key = append(s.key, ',')
}

func (s *Shape) str(x string) {
	s.int(int64(len(x)))
	s.key = append(s.key, x...)
}

func (s *Shape) typ(t sqltypes.Type) { s.key = append(s.key, byte(t)) }

func (s *Shape) value(v sqltypes.Value) {
	s.typ(v.T)
	switch v.T {
	case sqltypes.Float64:
		s.int(int64(math.Float64bits(v.F)))
	case sqltypes.String:
		s.str(v.S)
	default:
		s.int(v.I)
	}
}

// ptr keys an object by its address. A cached plan keeps every object its
// key names reachable (the session's entry holds the lifted plan), so no
// live key's address is reused by a new object: a table dropped and
// re-created under its name keys anew. Plan nodes, expressions and
// catalog tables are all pointers.
func (s *Shape) ptr(x any) {
	s.key = strconv.AppendUint(s.key, uint64(reflect.ValueOf(x).Pointer()), 16)
	s.key = append(s.key, ',')
}
