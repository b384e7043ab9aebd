package indexeddf

import (
	"context"
	"fmt"
	"strings"
	"time"

	"indexeddf/internal/plan"
	"indexeddf/internal/sqlparser"
	"indexeddf/internal/sqltypes"
)

// SQL compiles a SQL statement against the session catalog. Queries return
// a lazy DataFrame. Supported query subset: SELECT [DISTINCT] exprs FROM t
// [AS a] [INNER|LEFT [OUTER]|CROSS JOIN t2 ON cond]... [WHERE cond]
// [GROUP BY exprs] [HAVING cond] [ORDER BY exprs [ASC|DESC]] [LIMIT n]
// and UNION ALL chains; scalar functions UPPER/LOWER/LENGTH/ABS/CONCAT/
// SUBSTR/YEAR/COALESCE, LIKE, BETWEEN, IN lists, IS [NOT] NULL, CAST;
// aggregates COUNT(*)/COUNT/SUM/MIN/MAX/AVG.
//
// Queries over Indexed DataFrame tables go through the same index-aware
// optimizer rules as the DataFrame API: equality predicates and equi-joins
// on indexed columns execute as index lookups and indexed joins, and
// aggregations matching a registered materialized view are answered from
// the view's delta-maintained state. ORDER BY ... LIMIT n is recognized
// as a Top-N plan: the optimizer fuses the pair into a TopN node and the
// vectorized engine runs bounded per-partition heaps plus an n-row merge
// instead of a full global sort; a plain ORDER BY runs as the batch sort
// (per-partition sorted runs, k-way merge).
//
// DDL: CREATE MATERIALIZED VIEW name AS SELECT ... registers an
// incrementally maintained view; DROP MATERIALIZED VIEW name and REFRESH
// MATERIALIZED VIEW name manage it. DDL statements execute eagerly and
// return a one-row status DataFrame.
func (s *Session) SQL(query string) (*DataFrame, error) {
	stmt, err := sqlparser.ParseStatement(query, s.resolveTable)
	if err != nil {
		return nil, err
	}
	switch stmt.Kind {
	case sqlparser.StmtSelect:
		return s.frame(stmt.Select), nil
	case sqlparser.StmtExplain:
		df := s.frame(stmt.Select)
		var text string
		var err error
		if stmt.Analyze {
			// EXPLAIN ANALYZE executes eagerly: the statement runs to
			// completion here and the rendered plan carries its actuals.
			text, err = df.ExplainAnalyze(context.Background())
		} else {
			text, err = df.Explain()
		}
		if err != nil {
			return nil, err
		}
		return s.textFrame("plan", text), nil
	case sqlparser.StmtCreateView:
		if _, err := s.createMaterializedView(stmt.ViewName, stmt.ViewSQL, stmt.Select); err != nil {
			return nil, err
		}
		return s.statusFrame(fmt.Sprintf("created materialized view %s", stmt.ViewName)), nil
	case sqlparser.StmtDropView:
		if err := s.DropMaterializedView(stmt.ViewName); err != nil {
			return nil, err
		}
		return s.statusFrame(fmt.Sprintf("dropped materialized view %s", stmt.ViewName)), nil
	case sqlparser.StmtRefreshView:
		if err := s.RefreshMaterializedView(stmt.ViewName); err != nil {
			return nil, err
		}
		return s.statusFrame(fmt.Sprintf("refreshed materialized view %s", stmt.ViewName)), nil
	case sqlparser.StmtAnalyzeTable:
		if err := s.AnalyzeTable(stmt.TableName); err != nil {
			return nil, err
		}
		return s.statusFrame(fmt.Sprintf("analyzed table %s", stmt.TableName)), nil
	default:
		return nil, fmt.Errorf("indexeddf: unsupported statement kind %d", stmt.Kind)
	}
}

// statusFrame wraps a DDL outcome as a one-row DataFrame.
func (s *Session) statusFrame(msg string) *DataFrame {
	schema := sqltypes.NewSchema(sqltypes.Field{Name: "status", Type: sqltypes.String})
	rows := []sqltypes.Row{{sqltypes.NewString(msg)}}
	return s.frame(plan.NewValues(schema, rows))
}

// textFrame wraps multi-line text (a rendered plan) as a DataFrame with one
// row per line.
func (s *Session) textFrame(col, text string) *DataFrame {
	schema := sqltypes.NewSchema(sqltypes.Field{Name: col, Type: sqltypes.String})
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	rows := make([]sqltypes.Row, len(lines))
	for i, line := range lines {
		rows[i] = sqltypes.Row{sqltypes.NewString(line)}
	}
	return s.frame(plan.NewValues(schema, rows))
}

// MustSQL is SQL, panicking on parse errors (examples and tests).
func (s *Session) MustSQL(query string) *DataFrame {
	df, err := s.SQL(query)
	if err != nil {
		panic(err)
	}
	return df
}

// Query parses a SQL statement and executes it as a streaming cursor
// under ctx — SQL + DataFrame.Query in one call, the shape a database
// client expects. Its plan comes from the session's plan cache like every
// query's; Prepare also skips the parse.
func (s *Session) Query(ctx context.Context, query string) (*Rows, error) {
	t0 := time.Now()
	df, err := s.SQL(query)
	if err != nil {
		return nil, err
	}
	return s.run(ctx, df.node, nil, queryMeta{sql: query, parseNs: time.Since(t0).Nanoseconds()})
}
