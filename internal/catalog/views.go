package catalog

import (
	"fmt"
	"sort"
	"sync"

	"indexeddf/internal/core"
	"indexeddf/internal/expr"
	"indexeddf/internal/sqltypes"
)

// MaterializedView is the catalog's handle on an incrementally maintained
// materialized aggregate (implemented by internal/view). It is a Table —
// views are queryable by name — plus the metadata the planner's
// view-matching rewrite and the maintenance machinery need. The concrete
// implementation lives outside the catalog so this package stays free of
// maintenance logic.
type MaterializedView interface {
	Table

	// Base returns the indexed table the view aggregates over.
	Base() *core.IndexedTable
	// BaseName returns the base table's catalog name.
	BaseName() string
	// Definition returns the view's defining SELECT text.
	Definition() string
	// RefreshedVersion returns the version of the base snapshot the state
	// reflects.
	RefreshedVersion() int64

	// Refresh folds the rows appended to the base table since that
	// snapshot into the view state, read straight from the table's row
	// batches (or fully recomputes after a refresh that failed partway).
	Refresh() error
	// Recompute rebuilds the state from a fresh base snapshot.
	Recompute() error
	// RefreshRows refreshes and returns the state rows in the internal
	// layout (group columns then aggregate columns).
	RefreshRows() ([]sqltypes.Row, error)

	// StateSchema describes the internal row layout.
	StateSchema() *sqltypes.Schema
	// OutCols maps each column of Schema() (the view's visible schema, in
	// SELECT-list order) to its ordinal in the internal layout.
	OutCols() []int
	// MatchesAggregate reports whether an aggregation over base with the
	// given bound filter, group expressions and aggregates can be answered
	// from this view. On success cols holds, for the rewrite, the internal
	// ordinal of every output column (groups first, then each requested
	// aggregate).
	MatchesAggregate(base *core.IndexedTable, filter expr.Expr, groups []expr.Expr, aggs []expr.Agg) (cols []int, ok bool)
}

// ViewRegistry tracks the session's materialized views. Safe for
// concurrent use.
type ViewRegistry struct {
	mu    sync.RWMutex
	views map[string]MaterializedView
}

// NewViewRegistry creates an empty registry.
func NewViewRegistry() *ViewRegistry {
	return &ViewRegistry{views: map[string]MaterializedView{}}
}

// Register adds a view; it fails if the name is taken.
func (r *ViewRegistry) Register(v MaterializedView) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.views[v.Name()]; exists {
		return fmt.Errorf("catalog: materialized view %q already exists", v.Name())
	}
	r.views[v.Name()] = v
	return nil
}

// Drop removes a view by name, reporting whether it existed.
func (r *ViewRegistry) Drop(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.views[name]
	delete(r.views, name)
	return ok
}

// Get looks up a view by name.
func (r *ViewRegistry) Get(name string) (MaterializedView, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.views[name]
	return v, ok
}

// List returns all views sorted by name (deterministic match order).
func (r *ViewRegistry) List() []MaterializedView {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]MaterializedView, 0, len(r.views))
	for _, v := range r.views {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// HasBase reports whether any view is maintained over base.
func (r *ViewRegistry) HasBase(base *core.IndexedTable) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, v := range r.views {
		if v.Base() == base {
			return true
		}
	}
	return false
}

// ForBase returns the views maintained over base, sorted by name.
func (r *ViewRegistry) ForBase(base *core.IndexedTable) []MaterializedView {
	var out []MaterializedView
	for _, v := range r.List() {
		if v.Base() == base {
			out = append(out, v)
		}
	}
	return out
}
