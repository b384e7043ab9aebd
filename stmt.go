package indexeddf

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"time"

	"indexeddf/internal/memory"
	"indexeddf/internal/physical"
	"indexeddf/internal/sqlparser"
	"indexeddf/internal/sqltypes"
)

// Stmt is a prepared SQL statement: parsed, analyzed, optimized and
// physically planned once, with `?` placeholders bound per execution.
// Repeated executions skip the whole compilation pipeline — for an indexed
// point lookup that is most of the query's latency. A Stmt is safe for
// concurrent use: the cached plan is never modified; each execution
// carries its arguments, and every operator binds its own expressions as
// it starts.
//
// The Stmt resolves its compiled plan through the session's plan cache on
// every execution, so catalog DDL (which purges the cache) transparently
// recompiles the statement against the current catalog: a statement over
// a dropped-and-recreated table sees the new table, and one over a
// dropped table fails with "table not found" instead of silently reading
// the dropped table's old state.
type Stmt struct {
	sess *Session
	sql  string // normalized text (the plan-cache key)
}

// Prepare compiles a SELECT statement with optional `?` placeholders. The
// compiled plan is cached in the session's bounded LRU plan cache keyed on
// the normalized statement text, so preparing the same statement again —
// from any goroutine — reuses the plan without touching the parser or the
// optimizer.
func (s *Session) Prepare(query string) (*Stmt, error) {
	key, err := sqlparser.Normalize(query)
	if err != nil {
		return nil, err
	}
	if _, _, err := s.prepareEntry(key); err != nil {
		return nil, err
	}
	return &Stmt{sess: s, sql: key}, nil
}

// prepareEntry returns the cached compiled plan for the normalized key
// (hit reports whether the cache answered), compiling and caching it on a
// miss. The normalized text is itself valid SQL, so recompilation after a
// cache purge parses it directly. The insert is generation-guarded: if a
// DDL purge lands while this compile is in flight, the freshly compiled
// (now possibly stale) plan is returned to this caller but not cached, so
// it cannot outlive the purge.
func (s *Session) prepareEntry(key string) (ent *planEntry, hit bool, err error) {
	ent, gen, ok := s.plans.getGen(key)
	if ok {
		return ent, true, nil
	}
	stmt, err := sqlparser.ParseStatement(key, s.resolveTable)
	if err != nil {
		return nil, false, err
	}
	if stmt.Kind != sqlparser.StmtSelect {
		return nil, false, fmt.Errorf("indexeddf: only SELECT statements can be prepared")
	}
	exec, inline, err := s.compile(stmt.Select)
	if err != nil {
		return nil, false, err
	}
	ent = &planEntry{exec: exec, schema: exec.Schema(), numParams: stmt.NumParams,
		inline: inline, tables: physical.ReferencedTables(exec)}
	s.plans.putAt(key, ent, gen)
	return ent, false, nil
}

// entry resolves the statement's current compiled plan.
func (st *Stmt) entry() (*planEntry, error) {
	ent, _, err := st.sess.prepareEntry(st.sql)
	return ent, err
}

// SQLText returns the statement's normalized text.
func (st *Stmt) SQLText() string { return st.sql }

// NumParams returns the number of `?` placeholders.
func (st *Stmt) NumParams() int {
	ent, err := st.entry()
	if err != nil {
		return 0
	}
	return ent.numParams
}

// Schema returns the statement's result schema (nil if the statement no
// longer compiles against the current catalog).
func (st *Stmt) Schema() *sqltypes.Schema {
	ent, err := st.entry()
	if err != nil {
		return nil
	}
	return ent.schema
}

// Query executes the prepared plan with args bound to its placeholders (in
// lexical order) and returns a streaming cursor. The cached physical plan
// runs as-is: the arguments travel with the execution.
func (st *Stmt) Query(ctx context.Context, args ...any) (*Rows, error) {
	t0 := time.Now()
	ent, hit, err := st.sess.prepareEntry(st.sql)
	if err != nil {
		return nil, err
	}
	if len(args) != ent.numParams {
		return nil, fmt.Errorf("indexeddf: statement takes %d parameters, got %d", ent.numParams, len(args))
	}
	vals := make([]sqltypes.Value, len(args))
	for i, a := range args {
		if vals[i], err = toValue(a); err != nil {
			return nil, fmt.Errorf("indexeddf: argument %d: %w", i+1, err)
		}
	}
	return st.sess.queryExecMeta(ctx, ent.exec, queryMeta{
		sql: st.sql, args: vals, cacheHit: hit, planNs: time.Since(t0).Nanoseconds(), inline: ent.inline})
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

// planEntry is one compiled statement.
type planEntry struct {
	exec      physical.Exec
	schema    *sqltypes.Schema
	numParams int
	// inline marks a point plan run on the caller's goroutine
	// (Session.runsInline).
	inline bool
	// tables are the catalog names the compiled plan reads (base tables,
	// indexed tables and materialized views) — the invalidation key.
	tables []string
}

// planCache is a bounded LRU of compiled statements keyed on normalized
// SQL. Compiled plans bake in catalog handles, so catalog DDL must purge
// them — but only the plans that reference the changed tables: entries
// carry their referenced-table set and DDL on one table leaves unrelated
// prepared plans warm. The generation counter lets an in-flight compile
// detect that any purge overtook it and skip caching the (possibly stale)
// plan.
type planCache struct {
	mu      sync.Mutex
	gen     int64      // bumped by purge
	order   *list.List // front = most recently used; values are *planCacheItem
	entries map[string]*list.Element
	// pool charges cached plans to the engine's memory budget (a flat
	// per-entry estimate); when the pool is saturated new plans are simply
	// not cached — the statement still runs, it just recompiles next time.
	pool *memory.Pool

	hits, misses int64
}

// planCacheSize bounds the LRU in entries.
const planCacheSize = 128

// planEntryBytes is the flat accounting estimate for one cached compiled
// plan (operator tree, schemas, referenced-table metadata).
const planEntryBytes = 32 << 10

type planCacheItem struct {
	key string
	ent *planEntry
}

func newPlanCache(pool *memory.Pool) *planCache {
	return &planCache{order: list.New(), entries: make(map[string]*list.Element), pool: pool}
}

// getGen looks the key up, also returning the cache generation observed so
// a later putAt can detect an intervening purge.
func (c *planCache) getGen(key string) (*planEntry, int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, c.gen, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*planCacheItem).ent, c.gen, true
}

// putAt inserts ent unless the cache was purged since generation gen was
// observed (the entry would then reference pre-purge catalog state).
func (c *planCache) putAt(key string, ent *planEntry, gen int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != gen {
		return
	}
	if el, ok := c.entries[key]; ok {
		el.Value.(*planCacheItem).ent = ent
		c.order.MoveToFront(el)
		return
	}
	if c.pool.ReserveBytes("session", "plan cache", planEntryBytes) != nil {
		return // pool saturated: run uncached rather than fail the query
	}
	c.entries[key] = c.order.PushFront(&planCacheItem{key: key, ent: ent})
	for c.order.Len() > planCacheSize {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*planCacheItem).key)
		c.pool.ReleaseBytes(planEntryBytes)
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
	c.gen++
	var next *list.Element
	for el := c.order.Front(); el != nil; el = next {
		next = el.Next()
		item := el.Value.(*planCacheItem)
		for _, t := range item.ent.tables {
			if hit[t] {
				c.order.Remove(el)
				delete(c.entries, item.key)
				c.pool.ReleaseBytes(planEntryBytes)
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
