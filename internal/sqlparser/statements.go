package sqlparser

import (
	"fmt"
	"strings"

	"indexeddf/internal/plan"
)

// StatementKind classifies a parsed SQL statement.
type StatementKind uint8

// Statement kinds.
const (
	// StmtSelect is a query; Statement.Select holds the logical plan.
	StmtSelect StatementKind = iota
	// StmtCreateView is CREATE MATERIALIZED VIEW name AS SELECT ...
	StmtCreateView
	// StmtDropView is DROP MATERIALIZED VIEW name.
	StmtDropView
	// StmtRefreshView is REFRESH MATERIALIZED VIEW name.
	StmtRefreshView
	// StmtExplain is EXPLAIN [ANALYZE] SELECT ...; Statement.Select holds
	// the explained query and Statement.Analyze reports whether it should
	// be executed (ANALYZE) or only planned.
	StmtExplain
	// StmtAnalyzeTable is ANALYZE TABLE name: rebuild the table's
	// statistics from a full scan. Statement.TableName holds the table.
	StmtAnalyzeTable
)

// Statement is one parsed SQL statement: either a query or a
// materialized-view DDL command.
type Statement struct {
	Kind StatementKind
	// Select is the query plan (StmtSelect, and the defining query of
	// StmtCreateView).
	Select plan.Node
	// ViewName is the view the DDL statement addresses.
	ViewName string
	// ViewSQL is the original text of the defining SELECT
	// (StmtCreateView).
	ViewSQL string
	// NumParams is the number of `?` placeholders the statement declares
	// (StmtSelect only; prepared statements bind one argument per
	// placeholder, in lexical order).
	NumParams int
	// Analyze marks EXPLAIN ANALYZE (StmtExplain only): the query runs to
	// completion and the rendered plan carries actual row counts and
	// timings.
	Analyze bool
	// TableName is the table the DDL statement addresses
	// (StmtAnalyzeTable).
	TableName string
}

// ParseStatement compiles one SQL statement: SELECT queries (see Parse)
// plus the materialized-view DDL verbs
// CREATE MATERIALIZED VIEW name AS SELECT ...,
// DROP MATERIALIZED VIEW name and REFRESH MATERIALIZED VIEW name,
// EXPLAIN [ANALYZE] SELECT ..., and ANALYZE TABLE name.
func ParseStatement(query string, resolve Resolver) (*Statement, error) {
	toks, err := lex(query)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, resolve: resolve}

	expectViewName := func(verb string) (string, error) {
		if _, err := p.expect(tkKeyword, "MATERIALIZED"); err != nil {
			return "", fmt.Errorf("sqlparser: %s supports only MATERIALIZED VIEW: %v", verb, err)
		}
		if _, err := p.expect(tkKeyword, "VIEW"); err != nil {
			return "", err
		}
		t, err := p.expect(tkIdent, "")
		if err != nil {
			return "", fmt.Errorf("sqlparser: expected view name: %v", err)
		}
		return t.text, nil
	}

	switch {
	case p.accept(tkKeyword, "CREATE"):
		name, err := expectViewName("CREATE")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkKeyword, "AS"); err != nil {
			return nil, err
		}
		selStart := p.peek().pos
		node, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		if !p.at(tkEOF, "") {
			return nil, fmt.Errorf("sqlparser: unexpected trailing input %q", p.peek())
		}
		if p.params > 0 {
			return nil, fmt.Errorf("sqlparser: parameter placeholders are not allowed in view definitions")
		}
		return &Statement{
			Kind:     StmtCreateView,
			Select:   node,
			ViewName: name,
			ViewSQL:  strings.TrimSpace(query[selStart:]),
		}, nil
	case p.accept(tkKeyword, "ANALYZE"):
		// ANALYZE TABLE name — TABLE lexes as an identifier (it is not a
		// reserved word), so match its text explicitly.
		if t, err := p.expect(tkIdent, ""); err != nil || !strings.EqualFold(t.text, "TABLE") {
			return nil, fmt.Errorf("sqlparser: expected TABLE after ANALYZE")
		}
		t, err := p.expect(tkIdent, "")
		if err != nil {
			return nil, fmt.Errorf("sqlparser: expected table name: %v", err)
		}
		if !p.at(tkEOF, "") {
			return nil, fmt.Errorf("sqlparser: unexpected trailing input %q", p.peek())
		}
		return &Statement{Kind: StmtAnalyzeTable, TableName: t.text}, nil
	case p.accept(tkKeyword, "EXPLAIN"):
		analyze := p.accept(tkKeyword, "ANALYZE")
		node, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		if !p.at(tkEOF, "") {
			return nil, fmt.Errorf("sqlparser: unexpected trailing input %q", p.peek())
		}
		return &Statement{Kind: StmtExplain, Select: node, NumParams: p.params, Analyze: analyze}, nil
	case p.accept(tkKeyword, "DROP"):
		name, err := expectViewName("DROP")
		if err != nil {
			return nil, err
		}
		if !p.at(tkEOF, "") {
			return nil, fmt.Errorf("sqlparser: unexpected trailing input %q", p.peek())
		}
		return &Statement{Kind: StmtDropView, ViewName: name}, nil
	case p.accept(tkKeyword, "REFRESH"):
		name, err := expectViewName("REFRESH")
		if err != nil {
			return nil, err
		}
		if !p.at(tkEOF, "") {
			return nil, fmt.Errorf("sqlparser: unexpected trailing input %q", p.peek())
		}
		return &Statement{Kind: StmtRefreshView, ViewName: name}, nil
	default:
		node, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		if !p.at(tkEOF, "") {
			return nil, fmt.Errorf("sqlparser: unexpected trailing input %q", p.peek())
		}
		return &Statement{Kind: StmtSelect, Select: node, NumParams: p.params}, nil
	}
}

// Normalize canonicalizes a statement's text: it lexes the input and
// re-joins the tokens, collapsing whitespace and comments and upper-casing
// keywords, so trivially different spellings of one statement read the
// same. Identifier case is preserved (the catalog is case-sensitive) and
// string literals are re-quoted. The engine keys its plan cache on plan
// shape (plan.Shape), not on text; the benchmark's front-end probe times
// Normalize with the parse.
func Normalize(query string) (string, error) {
	toks, err := lex(query)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for i, t := range toks {
		if t.kind == tkEOF {
			break
		}
		if i > 0 {
			sb.WriteByte(' ')
		}
		if t.kind == tkString {
			sb.WriteByte('\'')
			sb.WriteString(strings.ReplaceAll(t.text, "'", "''"))
			sb.WriteByte('\'')
			continue
		}
		sb.WriteString(t.text)
	}
	return sb.String(), nil
}
