// Package obs is the engine's execution-observability layer: per-operator
// runtime statistics (OpStats), per-query lifecycle accounting and span
// events (QueryStats), a bounded trace ring (Tracer), and a Prometheus-style
// metrics registry (Registry). Everything is designed around a zero-cost
// disabled path — every collector method is nil-receiver safe, and the
// iterator wrappers return their input unchanged when handed a nil
// collector — so execution paths without observability run byte-for-byte
// the same code they ran before.
//
// The collectors are deliberately allocation-free on the hot path: row
// wrappers buffer counts locally and flush to the shared atomics every
// flushEvery rows, and wall time is sampled (one timed Next per sampleEvery,
// scaled back up) so a million-row scan pays a handful of clock reads, not a
// million.
package obs

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"indexeddf/internal/sqltypes"
	"indexeddf/internal/vector"
)

// OpStats accumulates one physical operator's runtime counters. Safe for
// concurrent use by the operator's partition tasks; all methods are
// nil-receiver no-ops.
type OpStats struct {
	// Label is the operator's short name ("VecHashAgg", "Filter", ...).
	Label string

	rowsIn   atomic.Int64 // rows pulled from the input (filters: selectivity denominator)
	rowsOut  atomic.Int64 // rows delivered to the parent
	batches  atomic.Int64 // batches delivered (vectorized operators)
	wallNs   atomic.Int64 // sampled wall time inside Next, inclusive of children
	memBytes atomic.Int64 // bytes reserved against the query's memory tracker
	bytes    atomic.Int64 // payload bytes moved (shuffle writes)

	spillBytes atomic.Int64 // bytes written to spill run files
	spillRuns  atomic.Int64 // runs this operator spilled to disk

	partitions atomic.Int64 // range partitions of a parallel merge (max)
	fanout     atomic.Int64 // spill fan-out width (max)
	depth      atomic.Int64 // spill repartition recursion depth (max)

	reorderMu sync.Mutex
	reorder   string // adaptive filter conjunct order ("c0,c1→c1,c0")
}

// storeMax raises a to n if n is larger (lock-free max).
func storeMax(a *atomic.Int64, n int64) {
	for {
		cur := a.Load()
		if n <= cur || a.CompareAndSwap(cur, n) {
			return
		}
	}
}

// NotePartitions records the width of a range-partitioned merge.
func (s *OpStats) NotePartitions(n int64) {
	if s != nil {
		storeMax(&s.partitions, n)
	}
}

// NoteFanout records the fan-out width of a spill repartitioning.
func (s *OpStats) NoteFanout(n int64) {
	if s != nil {
		storeMax(&s.fanout, n)
	}
}

// NoteDepth records how deep a spill repartitioning recursed.
func (s *OpStats) NoteDepth(n int64) {
	if s != nil {
		storeMax(&s.depth, n)
	}
}

// Partitions returns the recorded range-merge width (0 = single merge).
func (s *OpStats) Partitions() int64 {
	if s == nil {
		return 0
	}
	return s.partitions.Load()
}

// Fanout returns the recorded spill fan-out width (0 = never fanned out).
func (s *OpStats) Fanout() int64 {
	if s == nil {
		return 0
	}
	return s.fanout.Load()
}

// Depth returns the deepest spill repartition recursion level.
func (s *OpStats) Depth() int64 {
	if s == nil {
		return 0
	}
	return s.depth.Load()
}

// NoteReorder records an adaptive filter's conjunct order as
// "initial→current" (e.g. "c0,c1,c2→c2,c0,c1"). With several partition
// tasks the last writer wins — partitions see similar data, so any one
// task's converged order is representative.
func (s *OpStats) NoteReorder(order string) {
	if s == nil {
		return
	}
	s.reorderMu.Lock()
	s.reorder = order
	s.reorderMu.Unlock()
}

// Reorder returns the recorded conjunct reorder, "" if none happened.
func (s *OpStats) Reorder() string {
	if s == nil {
		return ""
	}
	s.reorderMu.Lock()
	defer s.reorderMu.Unlock()
	return s.reorder
}

// AddRowsIn records n input rows.
func (s *OpStats) AddRowsIn(n int64) {
	if s != nil && n != 0 {
		s.rowsIn.Add(n)
	}
}

// AddRowsOut records n delivered rows.
func (s *OpStats) AddRowsOut(n int64) {
	if s != nil && n != 0 {
		s.rowsOut.Add(n)
	}
}

// AddBatches records n delivered batches.
func (s *OpStats) AddBatches(n int64) {
	if s != nil && n != 0 {
		s.batches.Add(n)
	}
}

// AddWall records ns of wall time spent producing output.
func (s *OpStats) AddWall(ns int64) {
	if s != nil && ns > 0 {
		s.wallNs.Add(ns)
	}
}

// AddMem records bytes reserved against the query's memory tracker by this
// operator (cumulative across partition tasks).
func (s *OpStats) AddMem(n int64) {
	if s != nil && n > 0 {
		s.memBytes.Add(n)
	}
}

// AddBytes records payload bytes moved (shuffle writes).
func (s *OpStats) AddBytes(n int64) {
	if s != nil && n > 0 {
		s.bytes.Add(n)
	}
}

// AddSpill records out-of-core activity: bytes written to spill run files
// and runs newly gone to disk.
func (s *OpStats) AddSpill(bytes, runs int64) {
	if s == nil {
		return
	}
	if bytes > 0 {
		s.spillBytes.Add(bytes)
	}
	if runs > 0 {
		s.spillRuns.Add(runs)
	}
}

// SpillBytes returns the bytes this operator wrote to spill files.
func (s *OpStats) SpillBytes() int64 {
	if s == nil {
		return 0
	}
	return s.spillBytes.Load()
}

// SpillRuns returns the number of runs this operator spilled to disk.
func (s *OpStats) SpillRuns() int64 {
	if s == nil {
		return 0
	}
	return s.spillRuns.Load()
}

// RowsIn returns the input-row count (filters only).
func (s *OpStats) RowsIn() int64 {
	if s == nil {
		return 0
	}
	return s.rowsIn.Load()
}

// RowsOut returns the delivered-row count.
func (s *OpStats) RowsOut() int64 {
	if s == nil {
		return 0
	}
	return s.rowsOut.Load()
}

// Batches returns the delivered-batch count.
func (s *OpStats) Batches() int64 {
	if s == nil {
		return 0
	}
	return s.batches.Load()
}

// WallNs returns the sampled wall time in nanoseconds (inclusive of
// children, Postgres-style).
func (s *OpStats) WallNs() int64 {
	if s == nil {
		return 0
	}
	return s.wallNs.Load()
}

// MemBytes returns bytes reserved by the operator.
func (s *OpStats) MemBytes() int64 {
	if s == nil {
		return 0
	}
	return s.memBytes.Load()
}

// Bytes returns payload bytes moved by the operator.
func (s *OpStats) Bytes() int64 {
	if s == nil {
		return 0
	}
	return s.bytes.Load()
}

// Selectivity returns rowsOut/rowsIn, or -1 when no input was recorded.
func (s *OpStats) Selectivity() float64 {
	in := s.RowsIn()
	if in <= 0 {
		return -1
	}
	return float64(s.RowsOut()) / float64(in)
}

// QueryStats is one query's end-to-end account: identity, phase timings,
// per-task and shuffle counters, and the set of per-operator collectors.
// It rides the query's context through the scheduler (WithQuery /
// FromContext); a nil *QueryStats is the disabled path and every method is
// a no-op.
type QueryStats struct {
	// ID is the session-unique query label ("q1", "q2", ...).
	ID string
	// SQL is the originating statement text when known.
	SQL string
	// Start is when execution began.
	Start time.Time
	// ParseNs, PlanNs and TotalNs are the lifecycle phase durations.
	// Parse/Plan are written before execution starts; TotalNs when the
	// cursor closes.
	ParseNs, PlanNs int64
	// CacheHit reports whether the physical plan came from the plan cache.
	CacheHit bool
	// Inline reports that the query ran inline: every partition task on
	// the caller's goroutine, none on the task pool. Written before
	// execution starts.
	Inline bool

	totalNs        atomic.Int64
	tasksStarted   atomic.Int64
	tasksCompleted atomic.Int64
	shuffleBytes   atomic.Int64
	rowsOut        atomic.Int64
	memPeak        atomic.Int64
	spillBytes     atomic.Int64
	spillRuns      atomic.Int64

	tracer *Tracer

	mu  sync.Mutex
	ops []*OpStats
}

// NewQueryStats builds a collector for one query. tracer may be nil (events
// are dropped).
func NewQueryStats(id, sql string, tracer *Tracer) *QueryStats {
	return &QueryStats{ID: id, SQL: sql, Start: time.Now(), tracer: tracer}
}

// Op registers and returns a fresh per-operator collector under label.
func (q *QueryStats) Op(label string) *OpStats {
	if q == nil {
		return nil
	}
	st := &OpStats{Label: label}
	q.mu.Lock()
	q.ops = append(q.ops, st)
	q.mu.Unlock()
	return st
}

// Ops returns the registered operator collectors (registration order).
func (q *QueryStats) Ops() []*OpStats {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]*OpStats, len(q.ops))
	copy(out, q.ops)
	return out
}

// TaskStarted counts one partition task launched for this query.
func (q *QueryStats) TaskStarted() {
	if q != nil {
		q.tasksStarted.Add(1)
	}
}

// TaskFinished counts one partition task completed for this query.
func (q *QueryStats) TaskFinished() {
	if q != nil {
		q.tasksCompleted.Add(1)
	}
}

// AddShuffleBytes counts payload bytes this query wrote to the shuffle.
func (q *QueryStats) AddShuffleBytes(n int64) {
	if q != nil && n > 0 {
		q.shuffleBytes.Add(n)
	}
}

// AddSpill records out-of-core activity query-wide: bytes written to spill
// run files and runs newly gone to disk.
func (q *QueryStats) AddSpill(bytes, runs int64) {
	if q == nil {
		return
	}
	if bytes > 0 {
		q.spillBytes.Add(bytes)
	}
	if runs > 0 {
		q.spillRuns.Add(runs)
	}
}

// SpillBytes returns the bytes the query wrote to spill files.
func (q *QueryStats) SpillBytes() int64 {
	if q == nil {
		return 0
	}
	return q.spillBytes.Load()
}

// SpillRuns returns the number of runs the query spilled to disk.
func (q *QueryStats) SpillRuns() int64 {
	if q == nil {
		return 0
	}
	return q.spillRuns.Load()
}

// AddRowsReturned counts rows delivered to the client cursor.
func (q *QueryStats) AddRowsReturned(n int64) {
	if q != nil && n > 0 {
		q.rowsOut.Add(n)
	}
}

// SetMemPeak records the query's memory high-water mark.
func (q *QueryStats) SetMemPeak(n int64) {
	if q != nil && n > 0 {
		q.memPeak.Store(n)
	}
}

// Finish stamps the query's total wall time. Idempotent enough: last write
// wins, and the cursor calls it exactly once at shutdown.
func (q *QueryStats) Finish() {
	if q != nil {
		q.totalNs.Store(int64(time.Since(q.Start)))
	}
}

// TasksStarted returns partition tasks launched for this query.
func (q *QueryStats) TasksStarted() int64 {
	if q == nil {
		return 0
	}
	return q.tasksStarted.Load()
}

// TasksCompleted returns partition tasks finished for this query.
func (q *QueryStats) TasksCompleted() int64 {
	if q == nil {
		return 0
	}
	return q.tasksCompleted.Load()
}

// ShuffleBytes returns payload bytes this query wrote to the shuffle.
func (q *QueryStats) ShuffleBytes() int64 {
	if q == nil {
		return 0
	}
	return q.shuffleBytes.Load()
}

// RowsReturned returns rows delivered to the client cursor.
func (q *QueryStats) RowsReturned() int64 {
	if q == nil {
		return 0
	}
	return q.rowsOut.Load()
}

// MemPeak returns the query's memory high-water mark in bytes.
func (q *QueryStats) MemPeak() int64 {
	if q == nil {
		return 0
	}
	return q.memPeak.Load()
}

// TotalNs returns the query's total wall time (0 until Finish).
func (q *QueryStats) TotalNs() int64 {
	if q == nil {
		return 0
	}
	return q.totalNs.Load()
}

// Event records a span event for this query into the session tracer.
func (q *QueryStats) Event(name string, part int, dur time.Duration) {
	if q == nil || q.tracer == nil {
		return
	}
	q.tracer.Record(Event{Query: q.ID, Name: name, Part: part, At: time.Now(), Dur: dur})
}

// Do runs fn under pprof labels attributing CPU samples to this query (and
// optionally an operator), so profiles of a busy session split by query_id.
func (q *QueryStats) Do(ctx context.Context, operator string, fn func(context.Context)) {
	if q == nil {
		fn(ctx)
		return
	}
	labels := []string{"query_id", q.ID}
	if operator != "" {
		labels = append(labels, "operator", operator)
	}
	pprof.Do(ctx, pprof.Labels(labels...), fn)
}

// String summarizes the query account (footers, slow-query log lines).
func (q *QueryStats) String() string {
	if q == nil {
		return "<no stats>"
	}
	spill := ""
	if n := q.SpillRuns(); n > 0 {
		spill = fmt.Sprintf(" spill=%s/%d runs", FormatBytes(q.SpillBytes()), n)
	}
	inline := ""
	if q.Inline {
		inline = " inline"
	}
	return fmt.Sprintf("%s: rows=%d tasks=%d/%d%s shuffle=%s mem=%s%s parse=%s plan=%s total=%s",
		q.ID, q.RowsReturned(), q.TasksCompleted(), q.TasksStarted(), inline,
		FormatBytes(q.ShuffleBytes()), FormatBytes(q.MemPeak()), spill,
		time.Duration(q.ParseNs), time.Duration(q.PlanNs), time.Duration(q.TotalNs()))
}

// FormatBytes renders a byte count compactly (1.5KiB, 3.2MiB).
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// ---------------------------------------------------------------------------
// Context plumbing: the query's collector rides its context.Context through
// the scheduler into partition tasks, mirroring memory.WithTracker.

type ctxKey struct{}

// WithQuery attaches q to ctx (nil q returns ctx unchanged).
func WithQuery(ctx context.Context, q *QueryStats) context.Context {
	if q == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, q)
}

// FromContext returns the context's query collector, or nil (disabled).
func FromContext(ctx context.Context) *QueryStats {
	if ctx == nil {
		return nil
	}
	q, _ := ctx.Value(ctxKey{}).(*QueryStats)
	return q
}

// ---------------------------------------------------------------------------
// Iterator wrappers. Counts are buffered locally and flushed to the shared
// atomics every flushEvery rows and at stream end; wall time is sampled one
// Next in sampleEvery and scaled, so per-row cost is a couple of integer ops.

const (
	flushEvery  = 1024
	sampleEvery = 16
)

// Rows wraps a row iterator so st observes the rows it delivers. Returns it
// unchanged when st is nil.
func Rows(st *OpStats, it sqltypes.RowIter) sqltypes.RowIter {
	if st == nil || it == nil {
		return it
	}
	return &rowObserver{st: st, in: it}
}

type rowObserver struct {
	st      *OpStats
	in      sqltypes.RowIter
	calls   int64
	pending int64 // rows counted since last flush
	wallNs  int64 // sampled wall since last flush
}

func (it *rowObserver) Next() (sqltypes.Row, error) {
	var row sqltypes.Row
	var err error
	if it.calls%sampleEvery == 0 {
		start := time.Now()
		row, err = it.in.Next()
		it.wallNs += int64(time.Since(start)) * sampleEvery
	} else {
		row, err = it.in.Next()
	}
	it.calls++
	if err != nil || row == nil {
		it.flush()
		return row, err
	}
	it.pending++
	if it.pending >= flushEvery {
		it.flush()
	}
	return row, nil
}

// Rest implements sqltypes.RowsHolder when the observed iterator holds its
// rows as a slice, counting the handed-over rows as the operator's output.
func (it *rowObserver) Rest() ([]sqltypes.Row, bool) {
	h, ok := it.in.(sqltypes.RowsHolder)
	if !ok {
		return nil, false
	}
	rows, ok := h.Rest()
	if ok {
		it.pending += int64(len(rows))
		it.flush()
	}
	return rows, ok
}

func (it *rowObserver) flush() {
	it.st.AddRowsOut(it.pending)
	it.st.AddWall(it.wallNs)
	it.pending, it.wallNs = 0, 0
}

// CountInto wraps a row iterator so st counts its rows as *input* rows —
// the filter's selectivity denominator. No timing. Returns it unchanged
// when st is nil.
func CountInto(st *OpStats, it sqltypes.RowIter) sqltypes.RowIter {
	if st == nil || it == nil {
		return it
	}
	return &rowInCounter{st: st, in: it}
}

type rowInCounter struct {
	st      *OpStats
	in      sqltypes.RowIter
	pending int64
}

func (it *rowInCounter) Next() (sqltypes.Row, error) {
	row, err := it.in.Next()
	if err != nil || row == nil {
		it.st.AddRowsIn(it.pending)
		it.pending = 0
		return row, err
	}
	if it.pending++; it.pending >= flushEvery {
		it.st.AddRowsIn(it.pending)
		it.pending = 0
	}
	return row, nil
}

// Batches wraps a batch iterator so st observes the batches it delivers
// (every Next is timed — the cost amortizes over the batch's rows). Returns
// it unchanged when st is nil.
func Batches(st *OpStats, it vector.BatchIter) vector.BatchIter {
	if st == nil || it == nil {
		return it
	}
	return &batchObserver{st: st, in: it}
}

type batchObserver struct {
	st *OpStats
	in vector.BatchIter
}

func (it *batchObserver) Next() (*vector.Batch, error) {
	start := time.Now()
	b, err := it.in.Next()
	it.st.AddWall(int64(time.Since(start)))
	if err != nil || b == nil {
		return b, err
	}
	it.st.AddBatches(1)
	it.st.AddRowsOut(int64(b.Len()))
	return b, nil
}
