// Package indexeddf is a Go reproduction of "Low-latency Spark Queries on
// Updatable Data" (Uta, Ghit, Dave, Boncz — SIGMOD 2019): the Indexed
// DataFrame, a cached, updatable DataFrame with a built-in concurrent Ctrie
// index supporting sub-linear point lookups, low-latency equality filters
// and index-powered joins under continuous fine-grained appends, with
// multi-version concurrency.
//
// The package exposes a Spark-like Session/DataFrame API (the paper's
// Listing 1) executing on a from-scratch engine: partitioned RDDs with
// shuffles and a DAG scheduler, a columnar in-memory cache for the vanilla
// baseline, a Catalyst-style analyzer/optimizer/planner with the paper's
// index-aware rules, and a SQL front end.
package indexeddf

import (
	"fmt"
	"sync"
	"time"

	"indexeddf/internal/catalog"
	"indexeddf/internal/core"
	"indexeddf/internal/expr"
	"indexeddf/internal/memory"
	"indexeddf/internal/obs"
	"indexeddf/internal/opt"
	"indexeddf/internal/physical"
	"indexeddf/internal/plan"
	"indexeddf/internal/rdd"
	"indexeddf/internal/spill"
	"indexeddf/internal/sqltypes"
)

// Config tunes a Session.
type Config struct {
	// Parallelism is the task pool width (default GOMAXPROCS).
	Parallelism int
	// ShufflePartitions is the reduce-side partition count, and the
	// width of a spilled sort's range-partitioned merge (default 4).
	ShufflePartitions int
	// BroadcastThreshold is the row estimate under which join sides are
	// broadcast (default 10000).
	BroadcastThreshold int64
	// TablePartitions is the partition count for created tables and
	// indexes (default 4).
	TablePartitions int
	// IndexBatchSize is the row-batch size for indexed tables in bytes
	// (default 4 MB, the paper's value).
	IndexBatchSize int
	// QueryTimeout is the session-wide default deadline applied to every
	// query started without one of its own (Query, Collect, Stmt.Query).
	// Zero means no timeout. Expiry cancels the query's remaining
	// partition tasks and surfaces context.DeadlineExceeded from
	// Rows.Err().
	QueryTimeout time.Duration
	// MemoryLimit bounds the engine-wide bytes queries may hold in
	// materialized state (shuffle buckets, hash-aggregate tables, sort
	// runs, top-n stores, cursor slot buffers). Zero means unbounded. A
	// query pushing the engine past the limit fails with
	// memory.ErrMemoryExceeded naming the operator; concurrent queries
	// under budget keep running. New queries are also refused admission
	// while the pool is saturated.
	MemoryLimit int64
	// QueryMemoryLimit bounds each individual query's share of the above
	// (zero = only the engine limit applies).
	QueryMemoryLimit int64
	// SpillDir enables out-of-core execution: blocking operators (sort
	// runs, shuffle outputs, shuffle-join build sides) over budget spill
	// sealed runs to files under this directory instead of failing, and
	// stream them back. The session creates a private subdirectory removed
	// by Session.Close. Empty disables spilling — over-budget queries then
	// fail with memory.ErrMemoryExceeded exactly as before. Spilling only
	// engages for queries that carry a memory budget (MemoryLimit or
	// QueryMemoryLimit set); unbudgeted sessions never touch the disk.
	SpillDir string
	// SlowQueryThreshold, when positive, marks any query whose wall time
	// meets or exceeds it as slow: SlowQueryLog fires with the finished
	// query's annotated plan and indexeddf_queries_slow_total increments.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives each slow query (see SlowQueryThreshold). Called
	// synchronously from the cursor's shutdown path — keep it fast, or hand
	// off to a channel. Ignored when SlowQueryThreshold is zero.
	SlowQueryLog func(SlowQuery)
}

func (c Config) withDefaults() Config {
	if c.ShufflePartitions <= 0 {
		c.ShufflePartitions = 4
	}
	if c.BroadcastThreshold <= 0 {
		c.BroadcastThreshold = 10_000
	}
	if c.TablePartitions <= 0 {
		c.TablePartitions = 4
	}
	return c
}

// Session is the entry point: it owns the execution context, the catalog
// and the planner. Safe for concurrent use.
type Session struct {
	cfg     Config
	ablate  opt.Ablation // strategies switched off (tests only)
	ctx     *rdd.Context
	planner *opt.Planner

	views *catalog.ViewRegistry
	plans *planCache
	mem   *memory.Pool
	spill *spill.Manager

	// Observability: the metrics registry (engine-global counters) and the
	// trace ring every query's stats record into.
	metrics  *obs.Registry
	tracer   *obs.Tracer
	qStarted *obs.Counter
	qDone    *obs.Counter
	qFailed  *obs.Counter
	qSlow    *obs.Counter
	qRows    *obs.Counter
	qDur     *obs.Histogram
	ingBatch *obs.Counter
	ingRows  *obs.Counter

	// ddl serializes multi-step catalog operations (dropping a table and
	// its dependent views, creating a view over a base table) so a view
	// cannot be registered over a base that a concurrent DropTable is
	// tearing down.
	ddl sync.Mutex

	mu     sync.RWMutex
	tables map[string]catalog.Table
	anon   int
}

// NewSession creates a Session.
func NewSession(cfg Config) *Session { return newSession(cfg, 0) }

// newSession creates a Session with the strategies in ablate switched off.
func newSession(cfg Config, ablate opt.Ablation) *Session {
	cfg = cfg.withDefaults()
	var ctxOpts []rdd.Option
	if cfg.Parallelism > 0 {
		ctxOpts = append(ctxOpts, rdd.WithParallelism(cfg.Parallelism))
	}
	var spillMgr *spill.Manager
	if cfg.SpillDir != "" {
		spillMgr = spill.NewManager(cfg.SpillDir)
		ctxOpts = append(ctxOpts, rdd.WithSpill(spillMgr))
	}
	views := catalog.NewViewRegistry()
	pool := memory.NewPool(cfg.MemoryLimit)
	s := &Session{
		cfg:    cfg,
		ablate: ablate,
		mem:    pool,
		spill:  spillMgr,
		ctx:    rdd.NewContext(ctxOpts...),
		planner: opt.NewPlanner(opt.PlannerConfig{
			ShufflePartitions:  cfg.ShufflePartitions,
			BroadcastThreshold: cfg.BroadcastThreshold,
			Views:              views,
			Ablate:             ablate,
		}),
		views:  views,
		plans:  newPlanCache(),
		tables: make(map[string]catalog.Table),
	}
	s.initObservability()
	return s
}

// Context exposes the underlying RDD context (benchmarks use it).
func (s *Session) Context() *rdd.Context { return s.ctx }

// Close releases session-owned disk state: the spill manager's private
// directory is swept (any run file a crashed or leaked query left behind
// is removed along with it). Queries still running lose their spilled
// runs and fail on next read. Safe on sessions without a SpillDir, and
// idempotent.
func (s *Session) Close() error { return s.spill.Close() }

// MemoryPool exposes the session's engine-level memory pool (tests and
// monitoring use it; Used() drains back to zero when no query is running).
func (s *Session) MemoryPool() *memory.Pool { return s.mem }

// CreateTable registers an in-memory table from rows (hash-free round-robin
// partitioning, like a parallelized collection) and returns a DataFrame
// over it.
func (s *Session) CreateTable(name string, schema *sqltypes.Schema, rows []sqltypes.Row) (*DataFrame, error) {
	n := s.cfg.TablePartitions
	parts := make([][]sqltypes.Row, n)
	for i, r := range rows {
		if len(r) != schema.Len() {
			return nil, fmt.Errorf("indexeddf: row %d arity %d does not match schema %s", i, len(r), schema)
		}
		parts[i%n] = append(parts[i%n], r)
	}
	t := catalog.NewColumnTable(name, schema, parts)
	if !s.ablate.Has(opt.NoStats) {
		t.EnableStats()
	}
	if err := s.register(name, t); err != nil {
		return nil, err
	}
	return s.frame(plan.NewRelation(t, name)), nil
}

// CreateIndexedTable registers an empty Indexed DataFrame table indexed on
// keyCol and returns a DataFrame over it. Rows are added with AppendRows.
func (s *Session) CreateIndexedTable(name string, schema *sqltypes.Schema, keyCol int) (*DataFrame, error) {
	ct, err := core.NewIndexedTable(schema, keyCol, core.Options{
		NumPartitions: s.cfg.TablePartitions,
		BatchSize:     s.cfg.IndexBatchSize,
	})
	if err != nil {
		return nil, err
	}
	t := catalog.NewIndexedTable(name, ct)
	if !s.ablate.Has(opt.NoStats) {
		t.EnableStats()
	}
	if err := s.register(name, t); err != nil {
		return nil, err
	}
	return s.frame(plan.NewRelation(t, name)), nil
}

// AnalyzeTable recomputes a table's statistics from a full scan — for an
// indexed table, a fold from its first row to the current snapshot —
// enabling collection for that table even when the NoStats ablation
// turned automatic collection off (the planner still ignores the
// result under that ablation). Collected statistics stay current on
// their own: an indexed table folds the batches appended since its last
// fold when the planner reads them, and a vanilla table observes each
// append, so there is nothing for ANALYZE to heal.
func (s *Session) AnalyzeTable(name string) error {
	s.mu.RLock()
	t, ok := s.tables[name]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("indexeddf: table %q not found", name)
	}
	switch tt := t.(type) {
	case *catalog.ColumnTable:
		tt.RebuildStats()
		return nil
	case *catalog.IndexedTable:
		return tt.RebuildStats()
	default:
		return fmt.Errorf("indexeddf: table %q does not support statistics", name)
	}
}

// Table returns a DataFrame over a registered table.
func (s *Session) Table(name string) (*DataFrame, error) {
	s.mu.RLock()
	t, ok := s.tables[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("indexeddf: table %q not found", name)
	}
	return s.frame(plan.NewRelation(t, name)), nil
}

// DropTable removes a table from the catalog. Dropping a base table also
// drops every materialized view defined over it; dropping a view by name
// behaves like DropMaterializedView. Compiled plans referencing the dropped
// entries are purged from the plan cache; plans over other tables stay
// warm.
func (s *Session) DropTable(name string) {
	s.ddl.Lock()
	defer s.ddl.Unlock()
	s.mu.Lock()
	t := s.tables[name]
	delete(s.tables, name)
	s.mu.Unlock()
	dropped := []string{name}
	defer func() { s.plans.purgeTables(dropped...) }()
	// The name may itself be a materialized view.
	if s.views.Drop(name) {
		return
	}
	// A dropped base table orphans every view defined over it: drop them all.
	it, ok := t.(*catalog.IndexedTable)
	if !ok {
		return
	}
	views := s.views.ForBase(it.Core())
	s.mu.Lock()
	for _, v := range views {
		s.views.Drop(v.Name())
		delete(s.tables, v.Name())
		dropped = append(dropped, v.Name())
	}
	s.mu.Unlock()
}

// Tables lists registered table names.
func (s *Session) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tables))
	for n := range s.tables {
		out = append(out, n)
	}
	return out
}

// LookupTable returns the catalog entry for name.
func (s *Session) LookupTable(name string) (catalog.Table, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
	return t, ok
}

func (s *Session) register(name string, t catalog.Table) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.tables[name]; exists {
		return fmt.Errorf("indexeddf: table %q already exists", name)
	}
	s.tables[name] = t
	// A new catalog entry may shadow what a cached plan resolved against;
	// plans over other tables stay warm.
	s.plans.purgeTables(name)
	return nil
}

func (s *Session) anonName(prefix string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.anon++
	return fmt.Sprintf("%s_%d", prefix, s.anon)
}

func (s *Session) frame(n plan.Node) *DataFrame { return &DataFrame{sess: s, node: n} }

// shapes recycles plan-cache lookups: keying a plan allocates nothing
// once its Shape's buffers have grown.
var shapes = sync.Pool{New: func() any { return new(plan.Shape) }}

// prepare is the session's one compile path: SQL, DataFrames, Stmt,
// EXPLAIN and EXPLAIN ANALYZE all go through it. It keys n on its shape
// and the types of its arguments (plan.Shape), so queries that differ only
// in their literal values share one compiled plan, and it compiles only on
// a miss. user are the caller's `?` arguments (fewer than the plan's `?`s
// only to explain or type it); args is the execution's argument list: the
// user's, then the literals lifted out of n.
func (s *Session) prepare(n plan.Node, user []sqltypes.Value) (ent *planEntry, args []sqltypes.Value, hit bool, err error) {
	sh := shapes.Get().(*plan.Shape)
	defer shapes.Put(sh)
	sh.Views = s.views
	key := sh.Key(n, user)
	args = sh.Args()
	ent, gen, hit := s.plans.getGen(key)
	if hit {
		return ent, args, true, nil
	}
	if ent, err = s.compile(sh.Lift(n)); err != nil {
		return nil, nil, false, liftedError{msg: expr.FormatArgs(err.Error(), args), err: err}
	}
	ent.numParams = sh.NumParams()
	s.plans.putAt(string(key), ent, gen)
	return ent, args, false, nil
}

// liftedError is a compile error whose message prints the lifted
// literals' values, as the query spelled them.
type liftedError struct {
	msg string
	err error
}

func (e liftedError) Error() string { return e.msg }
func (e liftedError) Unwrap() error { return e.err }

// compile runs the full Catalyst-style pipeline — analyze, optimize, plan
// — for prepare's cache misses.
func (s *Session) compile(n plan.Node) (*planEntry, error) {
	analyzed, err := opt.Analyze(n)
	if err != nil {
		return nil, err
	}
	optimized, err := s.planner.Optimize(analyzed)
	if err != nil {
		return nil, err
	}
	exec, err := s.planner.Plan(optimized)
	if err != nil {
		return nil, err
	}
	return &planEntry{exec: exec, schema: exec.Schema(), analyzed: analyzed, optimized: optimized,
		inline: s.runsInline(exec), tables: physical.ReferencedTables(exec)}, nil
}

// runsInline reports whether the session runs exec inline — every job of
// the query on the caller's goroutine, with no task pool: a point plan,
// unless the NoInline ablation sends it back to the pool.
func (s *Session) runsInline(exec physical.Exec) bool {
	return !s.ablate.Has(opt.NoInline) && physical.IsPointPlan(exec)
}
