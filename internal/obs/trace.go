package obs

import (
	"fmt"
	"sync"
	"time"
)

// Event is one span-style trace record: a named point (or interval, when
// Dur > 0) in a query's lifecycle — parse, plan, cache hit, task start and
// finish per partition, shuffle write/fetch, merge, first row, close.
type Event struct {
	// Query is the owning query's id ("q3"), or "" for session-scope events
	// (plan-cache hits recorded at prepare time).
	Query string
	// Name identifies the span ("parse", "task", "shuffle write", ...).
	Name string
	// Part is the partition index for task-scoped events, -1 otherwise.
	Part int
	// At is when the event was recorded (interval end for Dur > 0).
	At time.Time
	// Dur is the span's duration, 0 for instantaneous events.
	Dur time.Duration
}

// String renders the event for trace dumps.
func (e Event) String() string {
	s := e.Name
	if e.Query != "" {
		s = e.Query + " " + s
	}
	if e.Part >= 0 {
		s = fmt.Sprintf("%s[p%d]", s, e.Part)
	}
	if e.Dur > 0 {
		s = fmt.Sprintf("%s (%s)", s, e.Dur)
	}
	return s
}

// Tracer is a bounded, mutex-guarded ring of trace events. Old events are
// overwritten when the ring wraps, so a long-lived session's trace memory is
// fixed at capacity regardless of query volume. It owns no goroutines —
// there is nothing to leak or shut down.
type Tracer struct {
	mu      sync.Mutex
	buf     []Event
	next    int  // write cursor
	wrapped bool // buf has been filled at least once
	dropped int64
}

// DefaultTraceCapacity bounds the per-session trace ring.
const DefaultTraceCapacity = 512

// NewTracer builds a tracer retaining the last capacity (> 0) events.
func NewTracer(capacity int) *Tracer {
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// Record appends ev, evicting the oldest event when the ring is full.
// Nil-receiver safe.
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.next] = ev
		t.wrapped = true
		t.dropped++
	}
	t.next = (t.next + 1) % cap(t.buf)
	t.mu.Unlock()
}

// Events returns the retained events oldest-first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrapped {
		out := make([]Event, len(t.buf))
		copy(out, t.buf)
		return out
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// EventsFor returns the retained events belonging to query, oldest-first.
func (t *Tracer) EventsFor(query string) []Event {
	var out []Event
	for _, ev := range t.Events() {
		if ev.Query == query {
			out = append(out, ev)
		}
	}
	return out
}

// Dropped returns how many events the ring has evicted.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Capacity returns the ring's fixed capacity.
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return cap(t.buf)
}
