// Package faultpoint implements deterministic fault injection for tests:
// named injection sites compiled into the engine's error-handling seams
// (task start, shuffle write/fetch, batch seal, view refresh, ingest
// append) that tests arm with error, panic or delay schedules. Production
// cost is one atomic load per hit while nothing is armed; the package is
// internal, so no injection surface leaks to users.
//
//	defer faultpoint.Reset()
//	faultpoint.Arm(faultpoint.ShuffleWrite, faultpoint.Schedule{
//	    Err: errors.New("injected"), Skip: 2, Limit: 1,
//	})
//
// The chaos suite drives randomized schedules through randomized queries
// and asserts the resilience contract: no process death, no deadlock, no
// leaked shuffle outputs or goroutines, correct results once faults clear.
package faultpoint

import (
	"sync"
	"sync/atomic"
	"time"
)

// Point names one injection site.
type Point string

// The engine's compiled-in sites.
const (
	// TaskStart fires when a partition task (result or shuffle-map) starts.
	TaskStart Point = "task.start"
	// ShuffleWrite fires before a map task publishes its buckets.
	ShuffleWrite Point = "shuffle.write"
	// ShuffleFetch fires when a reduce-side reader opens a shuffle.
	ShuffleFetch Point = "shuffle.fetch"
	// BatchSeal fires when a columnar map task seals its scattered batches.
	BatchSeal Point = "batch.seal"
	// ViewRefresh fires inside a materialized view's refresh, just before
	// the delta is folded (so recovery from a failed refresh is exercised).
	ViewRefresh Point = "view.refresh"
	// IngestAppend fires before a stream-ingest batch is appended.
	IngestAppend Point = "ingest.append"
	// SpillWrite fires before a batch is serialized to a spill run file.
	SpillWrite Point = "spill.write"
	// SpillRead fires when a spilled run is opened and before each batch
	// is decoded from it.
	SpillRead Point = "spill.read"
	// SpillPartition fires when an out-of-core operator opens a fan-out
	// level: the first group-table flush or grace-join repartition, and
	// each deeper re-fan of a partition still over budget.
	SpillPartition Point = "spill.partition"
)

// Points lists every compiled-in site (chaos tests sweep them).
func Points() []Point {
	return []Point{TaskStart, ShuffleWrite, ShuffleFetch, BatchSeal, ViewRefresh, IngestAppend, SpillWrite, SpillRead, SpillPartition}
}

// Schedule describes what an armed point does when hit.
type Schedule struct {
	// Err, when non-nil, is returned from Hit.
	Err error
	// Panic, when non-nil, is panicked with (wrapped in *Injected). Err
	// wins when both are set.
	Panic any
	// Delay, when positive, sleeps before deciding (deadline/backpressure
	// tests). A delay-only schedule returns nil after sleeping.
	Delay time.Duration
	// Skip suppresses the first Skip hits (fire on the N+1th arrival).
	Skip int64
	// Limit caps how many times the schedule fires (0 = every hit).
	Limit int64
}

// Injected wraps a scheduled panic value so containment tests can tell an
// injected panic from a genuine engine bug.
type Injected struct {
	Point Point
	Val   any
}

var (
	armedCount atomic.Int64 // fast-path guard: 0 = nothing armed anywhere

	mu     sync.Mutex
	points = map[Point]*armed{}
)

type armed struct {
	s     Schedule
	hits  int64
	fired int64
}

// Arm installs (or replaces) a schedule at p.
func Arm(p Point, s Schedule) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[p]; !ok {
		armedCount.Add(1)
	}
	points[p] = &armed{s: s}
}

// Disarm removes p's schedule.
func Disarm(p Point) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[p]; ok {
		delete(points, p)
		armedCount.Add(-1)
	}
}

// Reset disarms every point (deferred at the top of every faultpoint test).
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armedCount.Add(-int64(len(points)))
	points = map[Point]*armed{}
}

// Hits returns how many times p was reached since it was armed.
func Hits(p Point) int64 {
	mu.Lock()
	defer mu.Unlock()
	a, ok := points[p]
	if !ok {
		return 0
	}
	return a.hits
}

// Hit is the compiled-in site: returns nil instantly when nothing is
// armed; otherwise consults p's schedule and returns its error, panics
// with *Injected, or sleeps its delay.
func Hit(p Point) error {
	if armedCount.Load() == 0 {
		return nil
	}
	mu.Lock()
	a, ok := points[p]
	if !ok {
		mu.Unlock()
		return nil
	}
	a.hits++
	fire := a.hits > a.s.Skip && (a.s.Limit <= 0 || a.fired < a.s.Limit)
	if fire {
		a.fired++
	}
	s := a.s
	mu.Unlock()
	if !fire {
		return nil
	}
	if s.Delay > 0 {
		time.Sleep(s.Delay)
	}
	if s.Err != nil {
		return s.Err
	}
	if s.Panic != nil {
		panic(&Injected{Point: p, Val: s.Panic})
	}
	return nil
}
