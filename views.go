package indexeddf

import (
	"fmt"

	"indexeddf/internal/catalog"
	"indexeddf/internal/faultpoint"
	"indexeddf/internal/opt"
	"indexeddf/internal/plan"
	"indexeddf/internal/rdd"
	"indexeddf/internal/sqlparser"
	"indexeddf/internal/sqltypes"
	"indexeddf/internal/stream"
	"indexeddf/internal/view"
)

// Materialized views: a registered aggregate query over an Indexed
// DataFrame table whose per-group state is delta-maintained from the
// table's change log. The planner answers matching aggregations straight
// from the view (see internal/opt's view rewrite); refresh folds only the
// rows appended since the view's last refresh.

// CreateMaterializedView registers an incrementally maintained view named
// name defined by selectSQL (SELECT <group cols, aggregates> FROM
// <indexed table> [WHERE ...] GROUP BY ...). The view is built eagerly,
// change capture is enabled on the base table, and subsequent matching
// aggregate queries are answered from the maintained state.
func (s *Session) CreateMaterializedView(name, selectSQL string) (catalog.MaterializedView, error) {
	node, err := sqlparser.Parse(selectSQL, s.resolveTable)
	if err != nil {
		return nil, err
	}
	return s.createMaterializedView(name, selectSQL, node)
}

func (s *Session) createMaterializedView(name, selectSQL string, node plan.Node) (catalog.MaterializedView, error) {
	// Serialized against DropTable so the view cannot register over a base
	// that is concurrently being torn down (which would leak the view and
	// its change capture).
	s.ddl.Lock()
	defer s.ddl.Unlock()
	if _, exists := s.LookupTable(name); exists {
		return nil, fmt.Errorf("indexeddf: table or view %q already exists", name)
	}
	analyzed, err := opt.Analyze(node)
	if err != nil {
		return nil, err
	}
	optimized, err := opt.Optimize(analyzed)
	if err != nil {
		return nil, err
	}
	def, err := view.DefFromPlan(name, selectSQL, optimized)
	if err != nil {
		return nil, err
	}
	v, err := view.New(def, s.views)
	if err != nil {
		return nil, err
	}
	if err := s.views.Register(v); err != nil {
		return nil, err
	}
	if err := s.register(name, v); err != nil {
		s.views.Drop(name)
		return nil, err
	}
	// Cached plans over the base table may now be answerable from the new
	// view — recompile them on next use (plans over other tables stay
	// warm; register already purged plans shadowed by the view's name).
	s.plans.purgeTables(v.BaseName())
	return v, nil
}

// DropMaterializedView removes a view from the catalog. Dropping a base
// table's last view turns its change capture off and discards the
// retained log, so tables without views never pay for capture.
func (s *Session) DropMaterializedView(name string) error {
	s.ddl.Lock()
	defer s.ddl.Unlock()
	v, ok := s.views.Get(name)
	if !ok {
		return fmt.Errorf("indexeddf: materialized view %q not found", name)
	}
	s.views.Drop(name)
	s.mu.Lock()
	delete(s.tables, name)
	s.mu.Unlock()
	// Plans answered from this view (or scanning it by name) reference it
	// and purge; plans over the base table that never used it stay warm.
	s.plans.purgeTables(name)
	if len(s.views.ForBase(v.Base())) == 0 {
		v.Base().DisableChangeCapture()
	}
	return nil
}

// RefreshMaterializedView folds the base table's delta into the named
// view (queries refresh implicitly; this is the explicit maintenance
// entry point REFRESH MATERIALIZED VIEW maps to).
func (s *Session) RefreshMaterializedView(name string) error {
	v, ok := s.views.Get(name)
	if !ok {
		return fmt.Errorf("indexeddf: materialized view %q not found", name)
	}
	return v.Refresh()
}

// MaterializedView returns the named view's catalog handle.
func (s *Session) MaterializedView(name string) (catalog.MaterializedView, bool) {
	return s.views.Get(name)
}

// MaterializedViews lists registered view names.
func (s *Session) MaterializedViews() []string {
	views := s.views.List()
	out := make([]string, len(views))
	for i, v := range views {
		out[i] = v.Name()
	}
	return out
}

// refreshViewsOf folds pending deltas into every view over the named base
// table (stream ingestion calls this after each applied batch).
func (s *Session) refreshViewsOf(t catalog.Table) error {
	it, ok := t.(*catalog.IndexedTable)
	if !ok {
		return nil
	}
	for _, v := range s.views.ForBase(it.Core()) {
		if err := v.Refresh(); err != nil {
			return fmt.Errorf("indexeddf: refreshing view %q: %w", v.Name(), err)
		}
	}
	return nil
}

func (s *Session) resolveTable(name string) (catalog.Table, error) {
	t, ok := s.LookupTable(name)
	if !ok {
		return nil, fmt.Errorf("indexeddf: table %q not found", name)
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Stream ingestion with view maintenance

// IngestTopic drains a stream topic into a registered table as consumer
// group, applying messages in batches of batchSize rows (default 256) and
// incrementally refreshing every materialized view over the table after
// each applied batch — ingested topics keep views fresh without any
// rescan. It returns the number of rows applied.
func (s *Session) IngestTopic(topic *stream.Topic, group, tableName string, batchSize int) (int64, error) {
	if batchSize <= 0 {
		batchSize = 256
	}
	t, ok := s.LookupTable(tableName)
	if !ok {
		return 0, fmt.Errorf("indexeddf: table %q not found", tableName)
	}
	var applied int64
	for {
		mark := topic.Offsets(group)
		msgs := topic.Poll(group, batchSize)
		if len(msgs) == 0 {
			return applied, nil
		}
		rows := make([]sqltypes.Row, len(msgs))
		for i, m := range msgs {
			rows[i] = m.Row
		}
		n, err := s.ingestBatch(t, tableName, rows)
		applied += n
		if err != nil {
			if n == 0 {
				// The batch failed before any row landed: rewind the group
				// so a later drain redelivers it instead of losing it. A
				// batch whose append stuck (n > 0, the refresh failed) is
				// not rewound — redelivering would apply it twice.
				topic.SeekOffsets(group, mark)
			}
			return applied, err
		}
	}
}

// ingestBatch applies one polled batch and refreshes the table's views,
// containing panics from either step so a corrupt message or a faulty
// refresh surfaces as an error on this call while the session — and the
// table's already-applied rows — stay serviceable. Returns the rows
// actually appended (the refresh may fail after the append stuck).
func (s *Session) ingestBatch(t catalog.Table, tableName string, rows []sqltypes.Row) (applied int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = rdd.AsTaskPanic(r)
		}
	}()
	if err := faultpoint.Hit(faultpoint.IngestAppend); err != nil {
		return 0, err
	}
	switch tt := t.(type) {
	case *catalog.IndexedTable:
		if err := tt.Core().Append(rows); err != nil {
			return 0, err
		}
	case *catalog.ColumnTable:
		tt.Append(rows)
	default:
		return 0, fmt.Errorf("indexeddf: table %q (%T) cannot ingest streams", tableName, t)
	}
	s.ingBatch.Inc()
	s.ingRows.Add(int64(len(rows)))
	return int64(len(rows)), s.refreshViewsOf(t)
}
