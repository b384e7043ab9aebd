package indexeddf

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"indexeddf/internal/physical"
	"indexeddf/internal/plan"
	"indexeddf/internal/sqlparser"
	"indexeddf/internal/sqltypes"
)

// Stmt is a prepared SQL statement: parsed once, with `?` placeholders
// bound per execution. Every query compiles through the session's plan
// cache (Session.prepare), keyed on its plan's shape and the types of its
// arguments, so a Stmt adds only the parse it saves: repeated executions
// with arguments of the same types skip the parser and the whole
// compilation pipeline. A Stmt is safe for concurrent use: the cached plan
// is never modified; each execution carries its arguments, and every
// operator binds its own expressions as it starts.
//
// Catalog DDL purges the plans it affects and makes the Stmt parse its
// text again, so a statement over a dropped-and-recreated table sees the
// new table, and one over a dropped table fails with "table not found"
// instead of silently reading the dropped table's old state.
type Stmt struct {
	sess   *Session
	sql    string
	parsed atomic.Pointer[parsedStmt]
}

// parsedStmt is a Stmt's plan as parsed while the plan cache was at
// generation gen.
type parsedStmt struct {
	node      plan.Node
	numParams int
	gen       int64
}

// Prepare parses a SELECT statement with optional `?` placeholders and
// compiles it once with its arguments untyped, so a statement that cannot
// compile fails here.
func (s *Session) Prepare(query string) (*Stmt, error) {
	st := &Stmt{sess: s, sql: query}
	p, err := st.parse()
	if err != nil {
		return nil, err
	}
	if _, _, _, err := s.prepare(p.node, nil); err != nil {
		return nil, err
	}
	return st, nil
}

// parse returns the statement's plan, parsing the text again after any
// catalog DDL (which bumps the plan cache's generation).
func (st *Stmt) parse() (*parsedStmt, error) {
	gen := st.sess.plans.generation()
	if p := st.parsed.Load(); p != nil && p.gen == gen {
		return p, nil
	}
	stmt, err := sqlparser.ParseStatement(st.sql, st.sess.resolveTable)
	if err != nil {
		return nil, err
	}
	if stmt.Kind != sqlparser.StmtSelect {
		return nil, fmt.Errorf("indexeddf: only SELECT statements can be prepared")
	}
	p := &parsedStmt{node: stmt.Select, numParams: stmt.NumParams, gen: gen}
	st.parsed.Store(p)
	return p, nil
}

// SQLText returns the statement's text.
func (st *Stmt) SQLText() string { return st.sql }

// NumParams returns the number of `?` placeholders.
func (st *Stmt) NumParams() int {
	p, err := st.parse()
	if err != nil {
		return 0
	}
	return p.numParams
}

// Query executes the statement with args bound to its placeholders (in
// lexical order) and returns a streaming cursor.
func (st *Stmt) Query(ctx context.Context, args ...any) (*Rows, error) {
	p, err := st.parse()
	if err != nil {
		return nil, err
	}
	if len(args) != p.numParams {
		return nil, fmt.Errorf("indexeddf: statement takes %d parameters, got %d", p.numParams, len(args))
	}
	vals := make([]sqltypes.Value, len(args))
	for i, a := range args {
		if vals[i], err = toValue(a); err != nil {
			return nil, fmt.Errorf("indexeddf: argument %d: %w", i+1, err)
		}
	}
	return st.sess.run(ctx, p.node, vals, queryMeta{sql: st.sql})
}

// Collect executes the statement and materializes every row — Query plus a
// full drain, for callers that want the batch shape.
func (st *Stmt) Collect(ctx context.Context, args ...any) ([]sqltypes.Row, error) {
	rows, err := st.Query(ctx, args...)
	if err != nil {
		return nil, err
	}
	return drainRows(rows)
}

// toValue converts a native Go argument to an engine value.
func toValue(a any) (sqltypes.Value, error) {
	switch v := a.(type) {
	case nil:
		return sqltypes.Null, nil
	case sqltypes.Value:
		return v, nil
	case bool:
		return sqltypes.NewBool(v), nil
	case int:
		return sqltypes.NewInt64(int64(v)), nil
	case int32:
		return sqltypes.NewInt32(v), nil
	case int64:
		return sqltypes.NewInt64(v), nil
	case float64:
		return sqltypes.NewFloat64(v), nil
	case string:
		return sqltypes.NewString(v), nil
	case time.Time:
		return sqltypes.NewTimestampFromTime(v), nil
	default:
		return sqltypes.Null, fmt.Errorf("unsupported argument type %T", a)
	}
}

// drainRows materializes a cursor (closing it) — the compatibility shims'
// bridge from the streaming path back to []Row.
func drainRows(rows *Rows) ([]sqltypes.Row, error) {
	defer rows.Close()
	var out []sqltypes.Row
	for rows.Next() {
		out = sqltypes.AppendRow(out, rows.Row())
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Plan cache

// planEntry is one compiled plan.
type planEntry struct {
	exec   physical.Exec
	schema *sqltypes.Schema
	// analyzed and optimized are the logical plans exec was planned from
	// (EXPLAIN renders them). They also keep every object the entry's key
	// names by address reachable (plan.Shape).
	analyzed, optimized plan.Node
	// numParams is the number of `?` slots the plan takes.
	numParams int
	// inline marks a point plan run on the caller's goroutine
	// (Session.runsInline).
	inline bool
	// tables are the catalog names the compiled plan reads (base tables,
	// indexed tables and materialized views) — the invalidation key.
	tables []string
}

// planCache is a bounded LRU of compiled plans keyed on plan shape and
// argument types (plan.Shape). Compiled plans bake in catalog handles, so
// catalog DDL must purge them — but only the plans that reference the
// changed tables: entries carry their referenced-table set and DDL on one
// table leaves unrelated plans warm. The generation counter lets an
// in-flight compile detect that any purge overtook it and skip caching the
// (possibly stale) plan, and tells a Stmt to parse its text again.
type planCache struct {
	mu      sync.Mutex
	gen     atomic.Int64 // bumped by purge, under mu
	order   *list.List   // front = most recently used; values are *planCacheItem
	entries map[string]*list.Element

	hits, misses int64
}

// planCacheSize bounds the LRU in entries. The bound, not the engine's
// memory budget, holds the cache: every query caches its plan, and a
// charge per entry would leave the budget's queries less room.
const planCacheSize = 128

type planCacheItem struct {
	key string
	ent *planEntry
}

func newPlanCache() *planCache {
	return &planCache{order: list.New(), entries: make(map[string]*list.Element)}
}

// getGen looks the key up, also returning the cache generation observed so
// a later putAt can detect an intervening purge.
func (c *planCache) getGen(key []byte) (*planEntry, int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[string(key)]
	if !ok {
		c.misses++
		return nil, c.gen.Load(), false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*planCacheItem).ent, c.gen.Load(), true
}

// generation returns the number of purges so far.
func (c *planCache) generation() int64 { return c.gen.Load() }

// putAt inserts ent unless the cache was purged since generation gen was
// observed (the entry would then reference pre-purge catalog state).
func (c *planCache) putAt(key string, ent *planEntry, gen int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen.Load() != gen {
		return
	}
	if el, ok := c.entries[key]; ok {
		el.Value.(*planCacheItem).ent = ent
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&planCacheItem{key: key, ent: ent})
	for c.order.Len() > planCacheSize {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*planCacheItem).key)
	}
}

// purgeTables drops the cached plans referencing any of the named tables
// or views, leaving unrelated plans warm. The generation still bumps so an
// in-flight compile of any statement cannot cache a plan built against the
// pre-DDL catalog (it cannot know whether it references the changed name
// until compiled, so the guard stays conservative).
func (c *planCache) purgeTables(names ...string) {
	if len(names) == 0 {
		return
	}
	hit := make(map[string]bool, len(names))
	for _, n := range names {
		hit[n] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen.Add(1)
	var next *list.Element
	for el := c.order.Front(); el != nil; el = next {
		next = el.Next()
		item := el.Value.(*planCacheItem)
		for _, t := range item.ent.tables {
			if hit[t] {
				c.order.Remove(el)
				delete(c.entries, item.key)
				break
			}
		}
	}
}

func (c *planCache) stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// PlanCacheStats reports the session plan cache's hit/miss counters
// (benchmarks and tests assert reuse through it).
func (s *Session) PlanCacheStats() (hits, misses int64) { return s.plans.stats() }
