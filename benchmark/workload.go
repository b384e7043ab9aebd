package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"indexeddf"
	"indexeddf/internal/sqltypes"
)

// params are one run's inputs. Everything a workload generates — dataset,
// parameter draws, update stream — derives from seed; the engine sees only
// the generated rows, keys and SQL texts.
type params struct {
	seed    int64
	seconds float64
	scale   string // "full" or "tiny"
	tmpDir  string // spill files live here
}

// sf is the SNB scale factor: 10 (10k persons, ~140k knows, 30k posts, 60k
// comments) for measurement, 0.5 for the smoke scale.
func (p params) sf() float64 {
	if p.scale == "tiny" {
		return 0.5
	}
	return 10
}

// engineConfig pins the knobs that would otherwise follow the host's core
// count, so the numbers mean the same on any box.
func engineConfig() indexeddf.Config {
	return indexeddf.Config{Parallelism: 2, TablePartitions: 4, ShufflePartitions: 4}
}

// appendPeriod is the appender's fixed schedule: one batch of appendBatch
// updates every period (10k updates/s).
const (
	appendPeriod = 10 * time.Millisecond
	appendBatch  = 100
	// probeBatches is how many batches the write-cost probe applies after
	// the timed run on workloads without a concurrent appender.
	probeBatches = 1000
)

// workload names one of the four benchmark workloads.
type workload struct {
	name string
	why  string
	// tail is the fixed percentile reported as lat_tail_us: the highest one
	// the workload's expected sample count supports with ten samples beyond.
	tail   float64
	warmup int
	setup  func(p params) (*env, error)
}

func workloads() []workload {
	return []workload{
		{name: "snb-short-reads", tail: 0.99, warmup: 200, setup: func(p params) (*env, error) { return setupSNB(p, false) },
			why: "SNB SQ1-SQ7 plus prepared, ad-hoc SQL and view reads on a static indexed graph: parse, plan, Ctrie lookup and row decode; no writer"},
		{name: "snb-reads-under-appends", tail: 0.99, warmup: 200, setup: func(p params) (*env, error) { return setupSNB(p, true) },
			why: "same reader beside a 10k updates/s appender: append, snapshot against a mutating trie, change capture and view delta refresh"},
		{name: "analytic-scan-agg", tail: 0.90, warmup: 5, setup: setupAnalytic,
			why: "Figure 2 scan, filter, projection, GROUP BY, join and top-100 on indexed frames with no broadcast: decode, kernels, shuffle, accounting"},
		{name: "spill-sort-join", tail: 0.90, warmup: 2, setup: setupSpill,
			why: "sort, group table and join build at ten times the query memory budget: spill run files, pressure valve, grace partitioning"},
	}
}

// digest summarises one query result: the row count, an order-independent
// sum of row hashes (the row multiset) and an order-dependent fold (used
// where the query fixes a total order).
type digest struct {
	name    string
	rows    int
	sum     uint64
	ordered uint64
}

func (d *digest) add(row sqltypes.Row) {
	h := sqltypes.HashSeed
	for _, v := range row {
		h = sqltypes.CombineHash(h, v.Hash64())
	}
	d.rows++
	d.sum += h
	d.ordered = sqltypes.CombineHash(d.ordered, h)
}

func digestOf(name string, rows []sqltypes.Row) digest {
	d := digest{name: name}
	for _, r := range rows {
		d.add(r)
	}
	return d
}

// sameAnswer compares two digests; ordered also requires the same sequence.
func sameAnswer(a, b digest, ordered bool) bool {
	return a.rows == b.rows && a.sum == b.sum && (!ordered || a.ordered == b.ordered)
}

// env is one workload, set up and warm: a session, its measured operation
// and the reference the answers are checked against.
type env struct {
	sess *indexeddf.Session

	// next draws the next operation's parameters from the seeded stream.
	next func() any
	// op runs one operation — a fixed sequence of queries — through tr's
	// spans. With out == nil it applies only the cheap inline checks (row
	// counts, key echo); otherwise it also appends one digest per query.
	op func(tr *tracer, p any, out *[]digest) error
	// ref computes the same digests on the reference: the vanilla frames of
	// the same data, or for spill-sort-join an unbudgeted session.
	ref func(p any, out *[]digest) error
	// dropRef releases what the reference holds beyond the measured
	// session (nil when it holds nothing), so it is not live during the run.
	dropRef func()
	// ordered lists the digests whose row order is part of the answer.
	ordered map[string]bool
	// sample returns the parameter sets the answer check runs on.
	sample func() []any

	// batches returns n pre-generated update batches; apply applies one.
	// The appender applies them on its schedule; on workloads without one
	// the write-cost probe applies them after the timed run.
	batches    func(n int) []any
	apply      func(b any) error
	concurrent bool // appender runs beside the reader
	// finalCheck verifies post-run state (row counts, view == recompute).
	finalCheck func(applied int) error

	probe probeInputs
	close func()
}

// verify runs every query of the operation on the measured path and on the
// reference for each sampled parameter set and compares the answers.
func (e *env) verify() (checked, wrong int, err error) {
	for _, p := range e.sample() {
		var got, want []digest
		if err := e.op(nil, p, &got); err != nil {
			return checked, wrong, fmt.Errorf("verify: measured path: %w", err)
		}
		if err := e.ref(p, &want); err != nil {
			return checked, wrong, fmt.Errorf("verify: reference: %w", err)
		}
		if len(got) != len(want) {
			return checked, wrong, fmt.Errorf("verify: %d answers against %d reference answers", len(got), len(want))
		}
		for i := range got {
			checked++
			if !sameAnswer(got[i], want[i], e.ordered[got[i].name]) {
				wrong++
				fmt.Printf("WRONG ANSWER %s params=%v: %d rows (sum %x) want %d rows (sum %x)\n",
					got[i].name, p, got[i].rows, got[i].sum, want[i].rows, want[i].sum)
			}
		}
	}
	return checked, wrong, nil
}

// appendLog is the appender's record: per batch, the service time of the
// apply call and how late after its due time it started.
type appendLog struct {
	service []int64
	lag     []int64
	late    int
	errs    int
}

// runAppender applies the batches on the fixed schedule starting at t0.
// It is an open loop: a batch is never skipped, each is timed from when it
// was due, so a stall shows up as lag on the batches queued behind it.
func runAppender(t0 time.Time, period time.Duration, batches []any, apply func(any) error, tr *tracer) appendLog {
	log := appendLog{service: make([]int64, 0, len(batches)), lag: make([]int64, 0, len(batches))}
	for i, b := range batches {
		due := t0.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		start := time.Now()
		tr.begin("append.batch")
		err := apply(b)
		tr.end()
		end := time.Now()
		batches[i] = nil // applied rows now belong to the tables
		lag, late := lateness(due.UnixNano(), start.UnixNano(), period.Nanoseconds())
		log.service = append(log.service, end.Sub(start).Nanoseconds())
		log.lag = append(log.lag, lag)
		if late {
			log.late++
		}
		if err != nil {
			log.errs++
			fmt.Printf("APPEND ERROR batch %d: %v\n", i, err)
		}
	}
	return log
}

// runResult is one timed run of a workload.
type runResult struct {
	lat     []int64 // reader operation latencies, ns
	elapsed time.Duration
	opErrs  int
	app     appendLog
	applied int
}

// timedRun drives the closed-loop reader for the given duration — its next
// operation starts when the previous one returns — and, on the workload
// with a concurrent appender, the fixed-schedule appender beside it.
func (e *env) timedRun(seconds float64, tr, appTr *tracer) runResult {
	res := runResult{lat: make([]int64, 0, 1<<16)}
	dur := time.Duration(seconds * float64(time.Second))
	var batches []any
	if e.concurrent {
		batches = e.batches(int(dur / appendPeriod))
	}
	done := make(chan appendLog, 1)
	start := time.Now()
	if e.concurrent {
		go func() { done <- runAppender(start, appendPeriod, batches, e.apply, appTr) }()
	}
	deadline := start.Add(dur)
	for now := start; now.Before(deadline); {
		p := e.next()
		tr.begin("op")
		err := e.op(tr, p, nil)
		tr.end()
		end := time.Now()
		res.lat = append(res.lat, end.Sub(now).Nanoseconds())
		if err != nil {
			res.opErrs++
			if res.opErrs <= 5 {
				fmt.Printf("OP ERROR params=%v: %v\n", p, err)
			}
		}
		now = end
	}
	res.elapsed = time.Since(start)
	if e.concurrent {
		res.app = <-done
		res.applied = len(batches)
	}
	return res
}

// writeProbe measures the write cost on a workload without a concurrent
// appender: the same batches, applied back to back after the timed run.
func (e *env) writeProbe() appendLog {
	var log appendLog
	for _, b := range e.batches(probeBatches) {
		start := time.Now()
		if err := e.apply(b); err != nil {
			log.errs++
			fmt.Printf("APPEND ERROR: %v\n", err)
		}
		log.service = append(log.service, time.Since(start).Nanoseconds())
	}
	return log
}

// heapLiveMB is the live heap after a forced collection with the session
// still reachable: the space side of the read/write/space trade.
func heapLiveMB(keep *env) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// cursor runs one query through the streaming cursor API inside three
// spans: Query() returning, the first Rows.Next, and drain plus Close.
// visit sees every row; the engine's per-query counters go to the tracer.
func cursor(tr *tracer, name string, open func() (*indexeddf.Rows, error), visit func(sqltypes.Row)) (int, error) {
	tr.begin(name)
	defer tr.end()
	tr.begin("indexeddf.open")
	rows, err := open()
	tr.end()
	if err != nil {
		return 0, err
	}
	n := 0
	tr.begin("indexeddf.first_row")
	more := rows.Next()
	tr.end()
	tr.begin("indexeddf.drain")
	for ; more; more = rows.Next() {
		n++
		if visit != nil {
			visit(rows.Row())
		}
	}
	err = rows.Close()
	tr.end()
	if e := rows.Err(); e != nil {
		err = e
	}
	if tr != nil {
		if qs := rows.Stats(); qs != nil {
			if pk := qs.MemPeak(); pk > tr.memPeak {
				tr.memPeak = pk
			}
			tr.spillRuns += qs.SpillRuns()
			tr.spillBytes += qs.SpillBytes()
		}
	}
	return n, err
}

// digestCursor is cursor with the rows folded into a digest when out is set.
func digestCursor(tr *tracer, name string, open func() (*indexeddf.Rows, error), out *[]digest) (int, error) {
	if out == nil {
		return cursor(tr, name, open, nil)
	}
	d := digest{name: name}
	n, err := cursor(tr, name, open, d.add)
	*out = append(*out, d)
	return n, err
}

var bg = context.Background()
