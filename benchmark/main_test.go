package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestSmokeTiny runs every workload's gated and traced pass at -scale tiny
// with the answer checks on: the harness must compile, every declared
// metric must come out, and nothing may fail.
func TestSmokeTiny(t *testing.T) {
	p := params{seed: 7, seconds: 1, scale: "tiny", tmpDir: t.TempDir()}
	for _, w := range workloads() {
		for _, pass := range []struct {
			name string
			defs []metricDef
			run  func() (*outcome, error)
		}{
			{"gated", endToEnd, func() (*outcome, error) { return runUntraced(w, p, 1) }},
			{"traced", perLayer, func() (*outcome, error) { return runTraced(w, p) }},
		} {
			t.Run(w.name+"/"+pass.name, func(t *testing.T) {
				o, err := pass.run()
				if err != nil {
					t.Fatal(err)
				}
				if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%v", o.Correct, o.Attempted, o.Failed, o.text)
				}
				if len(o.Metrics) != len(pass.defs) {
					t.Fatalf("%d metrics reported, %d declared", len(o.Metrics), len(pass.defs))
				}
				for _, d := range pass.defs {
					m, ok := o.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s: got %+v (present=%v), want a finite value in %s", d.name, m, ok, d.unit)
					}
					// End-to-end metrics are gated as ratios: never zero.
					if pass.name == "gated" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must be positive", d.name, m.Value)
					}
				}
			})
		}
	}
}

// TestPercentileRule pins nearest-rank percentiles, the count of samples
// beyond them, and the rule that a tail needs ten samples beyond it.
func TestPercentileRule(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p      float64
		v      int64
		beyond int
	}{{0.5, 500, 500}, {0.99, 990, 10}, {0.999, 999, 1}, {1, 1000, 0}, {0, 1, 999}} {
		if v, beyond := percentile(xs, c.p); v != c.v || beyond != c.beyond {
			t.Errorf("percentile(1..1000, %v) = %d with %d beyond, want %d with %d", c.p, v, beyond, c.v, c.beyond)
		}
	}
	if v, beyond := percentile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("percentile of no samples = %d, %d", v, beyond)
	}
	for _, c := range []struct {
		n    int
		tail float64
	}{{5000, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.90}, {100, 0.90}, {99, 0}, {0, 0}} {
		if got := tailFor(c.n); got != c.tail {
			t.Errorf("tailFor(%d) = %v, want %v", c.n, got, c.tail)
		}
	}
	// Every workload's fixed tail must be one its expected sample count
	// (ops in a 20 s run on the reference box, with margin) supports.
	expected := map[string]int{"snb-short-reads": 8000, "snb-reads-under-appends": 5000, "analytic-scan-agg": 110, "spill-sort-join": 100}
	for _, w := range workloads() {
		if w.tail > tailFor(expected[w.name]) {
			t.Errorf("%s reports p%.0f but %d samples support p%.0f", w.name, 100*w.tail, expected[w.name], 100*tailFor(expected[w.name]))
		}
	}
}

// TestQuartilesMatchPython pins the spread computation to Python's
// statistics.quantiles(xs, n=4), which the regression gate uses.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := relSpread(q1, q2, q3); math.Abs(got-1) > 1e-12 {
		t.Errorf("relSpread(1..10) = %v, want 1", got)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
}

// TestLateness pins the due-time accounting: lag counts from when a batch
// was due, early starts have none, and only a start more than
// lateAfterPeriods periods behind is late.
func TestLateness(t *testing.T) {
	const period = int64(10 * time.Millisecond)
	for _, c := range []struct {
		due, start int64
		lag        int64
		late       bool
	}{
		{due: 100, start: 90, lag: 0, late: false},
		{due: 100, start: 100, lag: 0, late: false},
		{due: 100, start: 100 + period, lag: period, late: false},
		{due: 100, start: 100 + lateAfterPeriods*period, lag: lateAfterPeriods * period, late: false},
		{due: 100, start: 101 + lateAfterPeriods*period, lag: lateAfterPeriods*period + 1, late: true},
	} {
		if lag, late := lateness(c.due, c.start, period); lag != c.lag || late != c.late {
			t.Errorf("lateness(due %d, start %d) = %d, %v; want %d, %v", c.due, c.start, lag, late, c.lag, c.late)
		}
	}
}

// TestAppenderIsOpenLoop stalls the first batch past the lateness limit:
// no batch may be skipped, and the batches queued behind the stall must
// carry its delay as lag from their own due times.
func TestAppenderIsOpenLoop(t *testing.T) {
	const period = 2 * time.Millisecond
	stall := (lateAfterPeriods + 5) * period
	applied := 0
	log := runAppender(time.Now(), period, make([]any, 10), func(any) error {
		if applied++; applied == 1 {
			time.Sleep(stall)
		}
		return nil
	}, nil)
	if applied != 10 || len(log.service) != 10 || len(log.lag) != 10 {
		t.Fatalf("applied %d batches, logged %d service times and %d lags; want 10 each", applied, len(log.service), len(log.lag))
	}
	if time.Duration(log.service[0]) < stall {
		t.Errorf("stalled batch's service time %v, want at least %v", time.Duration(log.service[0]), stall)
	}
	// Batch 1 was due one period in and could not start before the stall
	// ended: it is late, measured from its due time.
	if want := stall - period; time.Duration(log.lag[1]) < want {
		t.Errorf("batch behind the stall has lag %v, want at least %v", time.Duration(log.lag[1]), want)
	}
	if log.late < 1 || log.late > 9 {
		t.Errorf("%d late batches, want some but not the stalled one itself", log.late)
	}
	if log.errs != 0 {
		t.Errorf("%d errors", log.errs)
	}
}

// TestSelfTime pins that a span's self time excludes its children.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1, OpID: 1},
		{Name: "q", Start: 10, End: 60, Parent: 0, OpID: 1},
		{Name: "open", Start: 10, End: 30, Parent: 1, OpID: 1},
		{Name: "q", Start: 60, End: 90, Parent: 0, OpID: 1},
	}
	want := map[string][3]int64{"op": {1, 100, 20}, "q": {2, 80, 60}, "open": {1, 20, 20}}
	for _, s := range selfTimes(spans) {
		if got := [3]int64{int64(s.Count), s.Busy, s.Self}; got != want[s.Name] {
			t.Errorf("%s: count, busy, self = %v, want %v", s.Name, got, want[s.Name])
		}
	}
	var tr *tracer // tracing off: every call is a no-op
	tr.begin("x")
	tr.end()
}

// TestManifestMatches keeps BENCHMARK.json at the repository root in step
// with the metric and workload tables compiled into the benchmark.
func TestManifestMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" || m.RunSeconds != 20 {
		t.Errorf("paths %v run_seconds %d, want [benchmark] and 20", m.Paths, m.RunSeconds)
	}
	ws := workloads()
	if len(m.Workloads) != len(ws) {
		t.Fatalf("%d workloads in the manifest, %d compiled in", len(m.Workloads), len(ws))
	}
	for i, w := range ws {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: manifest %+v, compiled in %q (%d chars of why)", i, m.Workloads[i], w.name, len(w.why))
		}
	}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d compiled in", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: manifest %+v, compiled in %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.bound || d.bound > 0.25)) {
				t.Errorf("%s metric %s: bound %v, compiled in %v", kind, d.name, g.Bound, d.bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
}
