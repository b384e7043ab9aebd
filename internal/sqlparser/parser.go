package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"indexeddf/internal/catalog"
	"indexeddf/internal/expr"
	"indexeddf/internal/plan"
	"indexeddf/internal/sqltypes"
)

// Resolver maps a table name to its catalog entry.
type Resolver func(name string) (catalog.Table, error)

// Parse compiles a SQL query into an unresolved logical plan.
func Parse(query string, resolve Resolver) (plan.Node, error) {
	toks, err := lex(query)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, resolve: resolve}
	node, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.at(tkEOF, "") {
		return nil, fmt.Errorf("sqlparser: unexpected trailing input %q", p.peek())
	}
	return node, nil
}

type parser struct {
	toks    []token
	pos     int
	resolve Resolver
	// params counts `?` placeholders in lexical order; each gets the next
	// 0-based index.
	params int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	return token{}, fmt.Errorf("sqlparser: expected %q, found %q", text, p.peek())
}

// aggPlaceholder marks an aggregate call inside an expression tree; the
// plan builder extracts these into the Aggregate node.
type aggPlaceholder struct {
	fn  expr.AggFunc
	arg expr.Expr // nil for COUNT(*)
}

func (a *aggPlaceholder) String() string {
	if a.fn == expr.CountStarAgg {
		return "COUNT(*)"
	}
	return fmt.Sprintf("%s(%s)", a.fn, a.arg)
}
func (a *aggPlaceholder) Type() sqltypes.Type { return expr.Agg{Func: a.fn, Arg: a.arg}.ResultType() }
func (a *aggPlaceholder) Resolved() bool      { return false }
func (a *aggPlaceholder) Children() []expr.Expr {
	if a.arg == nil {
		return nil
	}
	return []expr.Expr{a.arg}
}
func (a *aggPlaceholder) WithChildren(c []expr.Expr) (expr.Expr, error) {
	if a.arg == nil {
		if len(c) != 0 {
			return nil, fmt.Errorf("sqlparser: COUNT(*) takes no children")
		}
		return a, nil
	}
	if len(c) != 1 {
		return nil, fmt.Errorf("sqlparser: aggregate takes one child")
	}
	return &aggPlaceholder{fn: a.fn, arg: c[0]}, nil
}
func (a *aggPlaceholder) Eval(sqltypes.Row) (sqltypes.Value, error) {
	return sqltypes.Null, fmt.Errorf("sqlparser: aggregate %s evaluated outside GROUP BY", a)
}

// selectItem is one projection entry.
type selectItem struct {
	e     expr.Expr
	alias string
	star  bool
}

// parseQuery handles UNION ALL chains.
func (p *parser) parseQuery() (plan.Node, error) {
	left, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	for p.accept(tkKeyword, "UNION") {
		if _, err := p.expect(tkKeyword, "ALL"); err != nil {
			return nil, fmt.Errorf("sqlparser: only UNION ALL is supported: %v", err)
		}
		right, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		left = plan.NewUnion(left, right)
	}
	return left, nil
}

// parseSelect parses one SELECT statement.
func (p *parser) parseSelect() (plan.Node, error) {
	if _, err := p.expect(tkKeyword, "SELECT"); err != nil {
		return nil, err
	}
	distinct := p.accept(tkKeyword, "DISTINCT")

	var items []selectItem
	for {
		if p.accept(tkSymbol, "*") {
			items = append(items, selectItem{star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			alias := ""
			if p.accept(tkKeyword, "AS") {
				t, err := p.expect(tkIdent, "")
				if err != nil {
					return nil, err
				}
				alias = t.text
			} else if p.at(tkIdent, "") {
				alias = p.next().text
			}
			items = append(items, selectItem{e: e, alias: alias})
		}
		if !p.accept(tkSymbol, ",") {
			break
		}
	}

	if _, err := p.expect(tkKeyword, "FROM"); err != nil {
		return nil, err
	}
	node, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	// Joins.
	for {
		jt := plan.InnerJoin
		cross := false
		switch {
		case p.accept(tkKeyword, "JOIN"):
		case p.at(tkKeyword, "INNER"):
			p.next()
			if _, err := p.expect(tkKeyword, "JOIN"); err != nil {
				return nil, err
			}
		case p.at(tkKeyword, "LEFT"):
			p.next()
			p.accept(tkKeyword, "OUTER")
			if _, err := p.expect(tkKeyword, "JOIN"); err != nil {
				return nil, err
			}
			jt = plan.LeftOuterJoin
		case p.at(tkKeyword, "CROSS"):
			p.next()
			if _, err := p.expect(tkKeyword, "JOIN"); err != nil {
				return nil, err
			}
			cross = true
		default:
			goto joinsDone
		}
		{
			right, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			var cond expr.Expr
			if !cross {
				if _, err := p.expect(tkKeyword, "ON"); err != nil {
					return nil, err
				}
				cond, err = p.parseExpr()
				if err != nil {
					return nil, err
				}
			}
			node = plan.NewJoin(jt, node, right, cond)
		}
	}
joinsDone:

	var where expr.Expr
	if p.accept(tkKeyword, "WHERE") {
		where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	var groups []expr.Expr
	if p.accept(tkKeyword, "GROUP") {
		if _, err := p.expect(tkKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			groups = append(groups, g)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
	}
	var having expr.Expr
	if p.accept(tkKeyword, "HAVING") {
		having, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	type orderTerm struct {
		e    expr.Expr
		desc bool
	}
	var orders []orderTerm
	if p.accept(tkKeyword, "ORDER") {
		if _, err := p.expect(tkKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			desc := false
			if p.accept(tkKeyword, "DESC") {
				desc = true
			} else {
				p.accept(tkKeyword, "ASC")
			}
			orders = append(orders, orderTerm{e: e, desc: desc})
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
	}
	limit := int64(-1)
	if p.accept(tkKeyword, "LIMIT") {
		t, err := p.expect(tkNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sqlparser: bad LIMIT %q", t.text)
		}
		limit = n
	}

	return p.buildPlan(node, items, distinct, where, groups, having,
		func() ([]plan.SortOrder, error) {
			out := make([]plan.SortOrder, len(orders))
			for i, o := range orders {
				out[i] = plan.SortOrder{Expr: o.e, Desc: o.desc}
			}
			return out, nil
		}, limit)
}

// parseTableRef parses `name [AS alias | alias]`.
func (p *parser) parseTableRef() (plan.Node, error) {
	t, err := p.expect(tkIdent, "")
	if err != nil {
		return nil, fmt.Errorf("sqlparser: expected table name: %v", err)
	}
	alias := ""
	if p.accept(tkKeyword, "AS") {
		a, err := p.expect(tkIdent, "")
		if err != nil {
			return nil, err
		}
		alias = a.text
	} else if p.at(tkIdent, "") {
		alias = p.next().text
	}
	table, err := p.resolve(t.text)
	if err != nil {
		return nil, err
	}
	if alias == "" {
		alias = t.text
	}
	return plan.NewRelation(table, alias), nil
}

// ---------------------------------------------------------------------------
// Expression grammar

func (p *parser) parseExpr() (expr.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tkKeyword, "OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = expr.Or(left, right)
	}
	return left, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tkKeyword, "AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = expr.And(left, right)
	}
	return left, nil
}

func (p *parser) parseNot() (expr.Expr, error) {
	if p.accept(tkKeyword, "NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return expr.NewNot(e), nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (expr.Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.accept(tkKeyword, "IS") {
		negate := p.accept(tkKeyword, "NOT")
		if _, err := p.expect(tkKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &expr.IsNull{E: left, Negate: negate}, nil
	}
	// BETWEEN lo AND hi
	if p.accept(tkKeyword, "BETWEEN") {
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return expr.And(expr.NewCmp(expr.Ge, left, lo), expr.NewCmp(expr.Le, left, hi)), nil
	}
	// LIKE 'pattern'
	if p.accept(tkKeyword, "LIKE") {
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return expr.NewFunc("LIKE", left, pat), nil
	}
	// IN (v1, v2, ...)
	if p.accept(tkKeyword, "IN") {
		if _, err := p.expect(tkSymbol, "("); err != nil {
			return nil, err
		}
		var out expr.Expr
		for {
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			eq := expr.NewCmp(expr.Eq, left, v)
			if out == nil {
				out = eq
			} else {
				out = expr.Or(out, eq)
			}
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		return out, nil
	}
	ops := map[string]expr.CmpOp{
		"=": expr.Eq, "<>": expr.Ne, "!=": expr.Ne,
		"<": expr.Lt, "<=": expr.Le, ">": expr.Gt, ">=": expr.Ge,
	}
	if p.peek().kind == tkSymbol {
		if op, ok := ops[p.peek().text]; ok {
			p.next()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return expr.NewCmp(op, left, right), nil
		}
	}
	return left, nil
}

func (p *parser) parseAdditive() (expr.Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tkSymbol, "+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = expr.NewArith(expr.Add, left, r)
		case p.accept(tkSymbol, "-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = expr.NewArith(expr.Sub, left, r)
		default:
			return left, nil
		}
	}
}

func (p *parser) parseMultiplicative() (expr.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tkSymbol, "*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = expr.NewArith(expr.Mul, left, r)
		case p.accept(tkSymbol, "/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = expr.NewArith(expr.Div, left, r)
		case p.accept(tkSymbol, "%"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = expr.NewArith(expr.Mod, left, r)
		default:
			return left, nil
		}
	}
}

func (p *parser) parseUnary() (expr.Expr, error) {
	if !p.accept(tkSymbol, "-") {
		return p.parsePrimary()
	}
	number := p.peek().kind == tkNumber
	e, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	neg := expr.NewArith(expr.Sub, expr.LitInt64(0), e)
	if !number {
		return neg, nil
	}
	// A minus applied directly to a number is a negative literal, so the
	// plan cache lifts it into a slot like any other literal. Its value is
	// 0 - n's: -0.0 reads +0.0, as the subtraction evaluates it.
	v, err := neg.Eval(nil)
	if err != nil {
		return nil, err
	}
	return expr.Lit(v), nil
}

func (p *parser) parsePrimary() (expr.Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tkNumber:
		p.next()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("sqlparser: bad number %q", t.text)
			}
			return expr.Lit(sqltypes.NewFloat64(f)), nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sqlparser: bad number %q", t.text)
		}
		return expr.LitInt64(i), nil
	case t.kind == tkString:
		p.next()
		return expr.LitString(t.text), nil
	case t.kind == tkKeyword && t.text == "TRUE":
		p.next()
		return expr.Lit(sqltypes.NewBool(true)), nil
	case t.kind == tkKeyword && t.text == "FALSE":
		p.next()
		return expr.Lit(sqltypes.NewBool(false)), nil
	case t.kind == tkKeyword && t.text == "NULL":
		p.next()
		return expr.Lit(sqltypes.Null), nil
	case t.kind == tkKeyword && isAggKeyword(t.text):
		return p.parseAggregate()
	case t.kind == tkKeyword && t.text == "CAST":
		p.next()
		if _, err := p.expect(tkSymbol, "("); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkKeyword, "AS"); err != nil {
			return nil, err
		}
		ty, err := p.parseTypeName()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		return &expr.Cast{E: e, To: ty}, nil
	case t.kind == tkSymbol && t.text == "?":
		p.next()
		e := expr.NewParam(p.params)
		p.params++
		return e, nil
	case t.kind == tkSymbol && t.text == "(":
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tkIdent:
		p.next()
		name := t.text
		// Qualified column a.b.
		if p.accept(tkSymbol, ".") {
			col, err := p.expect(tkIdent, "")
			if err != nil {
				return nil, err
			}
			return expr.C(name + "." + col.text), nil
		}
		// Scalar function call.
		if p.accept(tkSymbol, "(") {
			var args []expr.Expr
			if !p.at(tkSymbol, ")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.accept(tkSymbol, ",") {
						break
					}
				}
			}
			if _, err := p.expect(tkSymbol, ")"); err != nil {
				return nil, err
			}
			return expr.NewFunc(name, args...), nil
		}
		return expr.C(name), nil
	}
	return nil, fmt.Errorf("sqlparser: unexpected token %q", t)
}

func isAggKeyword(s string) bool {
	switch s {
	case "COUNT", "SUM", "MIN", "MAX", "AVG":
		return true
	}
	return false
}

func (p *parser) parseAggregate() (expr.Expr, error) {
	t := p.next()
	if _, err := p.expect(tkSymbol, "("); err != nil {
		return nil, err
	}
	var fn expr.AggFunc
	switch t.text {
	case "COUNT":
		fn = expr.CountAgg
	case "SUM":
		fn = expr.SumAgg
	case "MIN":
		fn = expr.MinAgg
	case "MAX":
		fn = expr.MaxAgg
	case "AVG":
		fn = expr.AvgAgg
	}
	if t.text == "COUNT" && p.accept(tkSymbol, "*") {
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		return &aggPlaceholder{fn: expr.CountStarAgg}, nil
	}
	p.accept(tkKeyword, "DISTINCT") // parsed but treated as plain (documented)
	arg, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkSymbol, ")"); err != nil {
		return nil, err
	}
	return &aggPlaceholder{fn: fn, arg: arg}, nil
}

func (p *parser) parseTypeName() (sqltypes.Type, error) {
	t, err := p.expect(tkIdent, "")
	if err != nil {
		return sqltypes.Unknown, err
	}
	switch strings.ToUpper(t.text) {
	case "INT", "INTEGER":
		return sqltypes.Int32, nil
	case "BIGINT", "LONG":
		return sqltypes.Int64, nil
	case "DOUBLE", "FLOAT":
		return sqltypes.Float64, nil
	case "STRING", "VARCHAR", "TEXT":
		return sqltypes.String, nil
	case "BOOLEAN", "BOOL":
		return sqltypes.Bool, nil
	case "TIMESTAMP":
		return sqltypes.Timestamp, nil
	}
	return sqltypes.Unknown, fmt.Errorf("sqlparser: unknown type %q", t.text)
}
