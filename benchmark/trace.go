package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval recorded at a layer boundary from the
// benchmark's side of the call. Times are nanoseconds since the tracer
// started; Parent indexes the enclosing span (-1 for an operation's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	OpID   int64  `json:"op_id"`
}

// tracer keeps spans in memory for one goroutine. A nil *tracer is the
// tracing-off state: every method is then a no-op, so the measured operation
// runs the same code in both passes.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	opID  int64

	// Counts read at the same boundaries (per-query engine stats).
	memPeak    int64
	spillRuns  int64
	spillBytes int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	} else {
		t.opID++
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, OpID: t.opID})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name  string
	Count int
	Busy  int64   // summed duration
	Self  int64   // Busy minus the time covered by child spans
	Durs  []int64 // per-span durations, for medians
}

// selfTimes folds spans by name; a span's self time is its duration minus
// its children's.
func selfTimes(spans []span) []*spanStat {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*spanStat{}
	var out []*spanStat
	for i, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
			out = append(out, st)
		}
		d := s.End - s.Start
		st.Count++
		st.Busy += d
		st.Self += d - child[i]
		st.Durs = append(st.Durs, d)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

func (s *spanStat) p50() int64 {
	v, _ := percentile(sortedCopy(s.Durs), 0.5)
	return v
}

// writeSpans writes the span file: run metadata plus every span.
func writeSpans(path string, meta map[string]any, spans map[string][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"meta": meta, "spans": spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
