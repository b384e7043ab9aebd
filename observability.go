package indexeddf

import (
	"time"

	"indexeddf/internal/faultpoint"
	"indexeddf/internal/obs"
	"indexeddf/internal/sqltypes"
	"indexeddf/internal/view"
)

// Execution observability: every session owns a metrics registry
// (Prometheus-text exportable through Metrics().WriteTo), a bounded ring of
// query-lifecycle trace events, and per-query, per-operator runtime stats
// feeding EXPLAIN ANALYZE and the slow-query log.

// SlowQuery describes one finished query whose wall time met or exceeded
// Config.SlowQueryThreshold, handed to Config.SlowQueryLog.
type SlowQuery struct {
	// ID is the engine-assigned query id ("q1", "q2", ...).
	ID string
	// SQL is the statement text when the query came through the SQL or
	// prepared-statement entry points ("" for DataFrame-built queries).
	SQL string
	// Duration is the query's wall time, cursor open to close.
	Duration time.Duration
	// Rows is the number of rows the cursor delivered.
	Rows int64
	// Plan is the EXPLAIN ANALYZE rendering of the physical plan with the
	// actuals recorded during this execution.
	Plan string
	// Stats exposes the query's full recorded stats.
	Stats *obs.QueryStats
}

// FormatBytes renders a byte count compactly (1.5KiB, 3.2MiB) — the
// formatting EXPLAIN ANALYZE and the trace summaries use.
func FormatBytes(n int64) string { return obs.FormatBytes(n) }

// Metrics returns the session's metrics registry. Serve it over HTTP with
//
//	http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
//		sess.Metrics().WriteTo(w)
//	})
func (s *Session) Metrics() *obs.Registry { return s.metrics }

// TraceEvents returns the session's retained query-lifecycle trace events,
// oldest first. The ring holds obs.DefaultTraceCapacity events.
func (s *Session) TraceEvents() []obs.Event { return s.tracer.Events() }

// TraceEventsFor returns the retained trace events of one query id.
func (s *Session) TraceEventsFor(queryID string) []obs.Event {
	return s.tracer.EventsFor(queryID)
}

// initObservability builds the registry and wires the engine-global gauges
// and counter views. Called once from NewSession.
func (s *Session) initObservability() {
	s.tracer = obs.NewTracer(obs.DefaultTraceCapacity)
	m := obs.NewRegistry()
	s.metrics = m

	// Query lifecycle.
	s.qStarted = m.Counter("indexeddf_queries_started_total", "Queries started (cursor opened).")
	s.qDone = m.Counter("indexeddf_queries_finished_total", "Queries finished (cursor closed or exhausted).")
	s.qFailed = m.Counter("indexeddf_queries_failed_total", "Queries terminated by an error (including cancellation and timeout).")
	s.qSlow = m.Counter("indexeddf_queries_slow_total", "Queries meeting Config.SlowQueryThreshold.")
	s.qRows = m.Counter("indexeddf_rows_returned_total", "Rows delivered to query cursors.")
	s.qDur = m.Histogram("indexeddf_query_duration_seconds", "Query wall time, cursor open to close.", nil)
	m.Gauge("indexeddf_queries_active", "Queries currently running.", func() float64 {
		return float64(s.qStarted.Value() - s.qDone.Value())
	})

	// Task scheduler and shuffle (session-global; per-query figures live on
	// Rows.Stats()).
	m.CounterFunc("indexeddf_tasks_started_total", "Partition tasks started.", func() float64 {
		return float64(s.ctx.TasksStarted())
	})
	m.CounterFunc("indexeddf_tasks_completed_total", "Partition tasks completed.", func() float64 {
		return float64(s.ctx.TasksCompleted())
	})
	m.CounterFunc("indexeddf_shuffle_bytes_total", "Bytes written by shuffle map tasks.", func() float64 {
		return float64(s.ctx.ShuffleBytes())
	})
	m.Gauge("indexeddf_shuffle_outstanding", "Shuffles still retaining map outputs.", func() float64 {
		return float64(s.ctx.ShuffleOutstanding())
	})

	// Plan cache.
	m.CounterFunc("indexeddf_plan_cache_hits_total", "Plan-cache lookups answered from cache.", func() float64 {
		h, _ := s.plans.stats()
		return float64(h)
	})
	m.CounterFunc("indexeddf_plan_cache_misses_total", "Plan-cache lookups that compiled.", func() float64 {
		_, mi := s.plans.stats()
		return float64(mi)
	})
	m.Gauge("indexeddf_plan_cache_entries", "Compiled plans currently cached.", func() float64 {
		return float64(s.plans.len())
	})

	// Memory pool.
	m.Gauge("indexeddf_memory_pool_used_bytes", "Bytes currently reserved from the engine memory pool.", func() float64 {
		return float64(s.mem.Used())
	})
	m.Gauge("indexeddf_memory_pool_limit_bytes", "Engine memory pool limit (0 = unbounded).", func() float64 {
		return float64(s.mem.Limit())
	})
	m.Gauge("indexeddf_memory_pool_active_queries", "Queries admitted to the memory pool.", func() float64 {
		return float64(s.mem.Active())
	})

	// Spill fabric (all zero — and the gauge absent cost aside — when
	// Config.SpillDir is unset; the accessors are nil-safe).
	m.CounterFunc("indexeddf_spill_runs_total", "Sealed runs spilled to disk (by pressure or eviction).", func() float64 {
		return float64(s.spill.SpilledRuns())
	})
	m.CounterFunc("indexeddf_spill_bytes_written_total", "Bytes written to spill run files.", func() float64 {
		return float64(s.spill.BytesWritten())
	})
	m.CounterFunc("indexeddf_spill_bytes_read_total", "Bytes read back from spill run files.", func() float64 {
		return float64(s.spill.BytesRead())
	})
	m.CounterFunc("indexeddf_spill_evictions_total", "Resident runs evicted to disk under memory pressure.", func() float64 {
		return float64(s.spill.Evictions())
	})
	m.Gauge("indexeddf_spill_files_active", "Spill run files currently on disk.", func() float64 {
		return float64(s.spill.ActiveFiles())
	})

	// Materialized-view maintenance, summed over registered views.
	viewStats := func(pick func(view.Stats) int64) func() float64 {
		return func() float64 {
			var total int64
			for _, v := range s.views.List() {
				if sv, ok := v.(interface{ Stats() view.Stats }); ok {
					total += pick(sv.Stats())
				}
			}
			return float64(total)
		}
	}
	m.CounterFunc("indexeddf_view_refreshes_total", "Materialized-view refreshes that did work.",
		viewStats(func(st view.Stats) int64 { return st.Refreshes }))
	m.CounterFunc("indexeddf_view_full_recomputes_total", "Materialized-view full state rebuilds.",
		viewStats(func(st view.Stats) int64 { return st.FullRecomputes }))
	m.CounterFunc("indexeddf_view_delta_rows_total", "Appended rows folded incrementally into views.",
		viewStats(func(st view.Stats) int64 { return st.DeltaRows }))

	// Stream ingestion.
	s.ingBatch = m.Counter("indexeddf_ingest_batches_total", "Stream batches applied by IngestTopic.")
	s.ingRows = m.Counter("indexeddf_ingest_rows_total", "Rows applied by IngestTopic.")

	// Fault injection (active only in builds that arm faultpoints).
	m.CounterFunc("indexeddf_faultpoint_injections_total", "Faults injected across all faultpoints.", func() float64 {
		var total int64
		for _, p := range faultpoint.Points() {
			total += faultpoint.Hits(p)
		}
		return float64(total)
	})

	// Tracing health.
	m.CounterFunc("indexeddf_trace_events_dropped_total", "Trace events overwritten in the ring buffer.", func() float64 {
		return float64(s.tracer.Dropped())
	})
}

// queryMeta carries entry-point context (statement text, front-end timings,
// plan-cache outcome) into queryExecMeta, where the query's stats object is
// created.
type queryMeta struct {
	sql      string
	args     []sqltypes.Value // the execution's arguments: the user's `?`s, then the lifted literals
	parseNs  int64
	planNs   int64
	cacheHit bool
	// fullLimit runs a root LIMIT as the full global-limit plan instead of
	// truncating at the cursor; EXPLAIN ANALYZE sets it.
	fullLimit bool
	// inline runs every job of the query on the caller's goroutine
	// (Session.runsInline).
	inline bool
}

// finishQuery settles a finished cursor's accounting: registry counters,
// the duration histogram, trace close event and the slow-query hook. Called
// exactly once, from Rows.shutdown.
func (s *Session) finishQuery(r *Rows) {
	dur := time.Since(r.start)
	s.qDone.Inc()
	if r.err != nil {
		s.qFailed.Inc()
	}
	s.qRows.Add(r.delivered)
	s.qDur.Observe(dur.Seconds())
	qs := r.qs
	qs.SetMemPeak(r.mem.Peak())
	qs.AddRowsReturned(r.delivered)
	qs.Finish()
	qs.Event("close", -1, dur)
	if thr := s.cfg.SlowQueryThreshold; thr > 0 && dur >= thr {
		s.qSlow.Inc()
		if hook := s.cfg.SlowQueryLog; hook != nil {
			hook(SlowQuery{
				ID:       qs.ID,
				SQL:      qs.SQL,
				Duration: dur,
				Rows:     r.delivered,
				Plan:     r.analyzePlan(),
				Stats:    qs,
			})
		}
	}
}
