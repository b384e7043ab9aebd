// Command benchmark is the repository's one end-to-end benchmark: four
// workloads (SNB short reads with and without a concurrent appender, the
// Figure 2 analytics, out-of-core sort/aggregate/join), each set up, warmed,
// run, verified and reported by name and unit. A separate traced pass gives
// the per-layer numbers. See README.md for the metric and workload tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// metricDef mirrors one metric entry of BENCHMARK.json.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only
}

// endToEnd are the gated metrics, measured with tracing off. Every workload
// reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"lat_p50_us", "us", "lower", 0.15},
	{"lat_tail_us", "us", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.15},
	{"append_p50_us", "us", "lower", 0.20},
	{"heap_live_mb", "MB", "lower", 0.10},
}

// perLayer are the traced pass's metrics, named after the packages.
var perLayer = []metricDef{
	{name: "indexeddf.open_us", unit: "us", better: "lower"},
	{name: "indexeddf.first_row_us", unit: "us", better: "lower"},
	{name: "indexeddf.drain_us", unit: "us", better: "lower"},
	{name: "sqlparser.parse_us", unit: "us", better: "lower"},
	{name: "opt.plan_us", unit: "us", better: "lower"},
	{name: "opt.plan_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "ctrie.lookup_ns", unit: "ns", better: "lower"},
	{name: "ctrie.insert_ns", unit: "ns", better: "lower"},
	{name: "ctrie.snapshot_ns", unit: "ns", better: "lower"},
	{name: "rowbatch.append_ns_row", unit: "ns", better: "lower"},
	{name: "rowbatch.read_ns_row", unit: "ns", better: "lower"},
	{name: "core.get_rows_us", unit: "us", better: "lower"},
	{name: "core.snapshot_us", unit: "us", better: "lower"},
	{name: "core.append_us_row", unit: "us", better: "lower"},
	{name: "core.scan_ns_row", unit: "ns", better: "lower"},
	{name: "core.bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "vector.filter_ns_row", unit: "ns", better: "lower"},
	{name: "vector.scatter_ns_row", unit: "ns", better: "lower"},
	{name: "vector.sort_ns_row", unit: "ns", better: "lower"},
	{name: "physical.op_over_reference", unit: "ratio", better: "lower"},
	{name: "rdd.tasks", unit: "count", better: "lower"},
	{name: "rdd.shuffle_bytes", unit: "B", better: "lower"},
	{name: "memory.reserve_ns", unit: "ns", better: "lower"},
	{name: "memory.peak_mb", unit: "MB", better: "lower"},
	{name: "spill.write_mb_s", unit: "MB/s", better: "higher"},
	{name: "spill.read_mb_s", unit: "MB/s", better: "higher"},
	{name: "spill.runs", unit: "count", better: "lower"},
	{name: "spill.bytes_per_input_byte", unit: "ratio", better: "lower"},
	{name: "view.refresh_us", unit: "us", better: "lower"},
	{name: "stats.observe_ns_row", unit: "ns", better: "lower"},
	{name: "trace_overhead_pct", unit: "%", better: "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one pass of one workload: the contract's result line plus the
// human-readable lines printed above it.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	text      []string
	spans     map[string][]span
}

func (o *outcome) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			o.Metrics[name] = metricValue{v, d.unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}

func (o *outcome) notef(format string, args ...any) {
	o.text = append(o.text, fmt.Sprintf(format, args...))
}

// print writes the text lines, then every metric by name with its unit in
// declaration order.
func (o *outcome) print(defs []metricDef) {
	for _, l := range o.text {
		fmt.Println(l)
	}
	for _, d := range defs {
		if m, ok := o.Metrics[d.name]; ok {
			fmt.Printf("  %-32s %14.4f %s\n", d.name, m.Value, m.Unit)
		}
	}
}

// setUp builds the workload's session and runs its warm-up operations; the
// whole of it is what setup_s times.
func setUp(w workload, p params) (*env, time.Duration, error) {
	t0 := time.Now()
	e, err := w.setup(p)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	for i := 0; i < w.warmup; i++ {
		if err := e.op(nil, e.next(), nil); err != nil {
			e.close()
			return nil, 0, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
	}
	return e, time.Since(t0), nil
}

// checkAnswers runs the answer check and folds it into the outcome.
func checkAnswers(e *env, o *outcome, when string) {
	checked, wrong, err := e.verify()
	o.Attempted += int64(checked)
	o.Failed += int64(wrong)
	if err != nil {
		o.Failed++
		o.notef("  answer check %s: %v", when, err)
	}
	if wrong > 0 || err != nil {
		o.Correct = false
	}
	o.notef("  answer check %s: %d query answers compared with the reference, %d differ", when, checked, wrong)
	if e.dropRef != nil {
		e.dropRef()
	}
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// latencyMetrics reports the reader's percentiles with their sample counts.
func latencyMetrics(w workload, res runResult, o *outcome) {
	sorted := sortedCopy(res.lat)
	p50, _ := percentile(sorted, 0.5)
	tail, beyond := percentile(sorted, w.tail)
	o.set(endToEnd, "lat_p50_us", us(p50))
	o.set(endToEnd, "lat_tail_us", us(tail))
	o.set(endToEnd, "ops_per_s", float64(len(res.lat)-res.opErrs)/res.elapsed.Seconds())
	mark := ""
	if w.tail > tailFor(len(sorted)) {
		mark = fmt.Sprintf("  (!) under %d: run longer before reading this tail", minBeyond)
	}
	o.notef("  reader: %d operations in %.2fs, %d failed; lat_tail_us is p%.0f with %d samples beyond it%s",
		len(sorted), res.elapsed.Seconds(), res.opErrs, 100*w.tail, beyond, mark)
}

func appendMetrics(log appendLog, concurrent bool, o *outcome) {
	sorted := sortedCopy(log.service)
	p50, _ := percentile(sorted, 0.5)
	o.set(endToEnd, "append_p50_us", us(p50))
	p99, beyond := percentile(sorted, 0.99)
	if !concurrent {
		o.notef("  write probe: %d batches of %d applied back to back after the run, %d failed", len(sorted), appendBatch, log.errs)
		return
	}
	lags := sortedCopy(log.lag)
	lag99, _ := percentile(lags, 0.99)
	o.notef("  appender: %d batches of %d on a %v schedule, %d failed, %d started more than %d periods late (worst %.1f ms)",
		len(sorted), appendBatch, appendPeriod, log.errs, log.late, lateAfterPeriods, float64(lags[len(lags)-1])/1e6)
	o.notef("  %-32s %14.4f us   (not gated; %d samples, %d beyond)", "append_p99_us", us(p99), len(sorted), beyond)
	o.notef("  %-32s %14.4f ms   (not gated; start lag behind the schedule)", "append_lag_p99_ms", float64(lag99)/1e6)
}

// runUntraced is the gated pass: set up (several times, reporting the
// median), check answers, run for p.seconds with tracing off, measure the
// live heap, check the final state, probe the write cost.
func runUntraced(w workload, p params, setups int) (*outcome, error) {
	o := &outcome{Correct: true, Metrics: map[string]metricValue{}}
	o.notef("%s  seed=%d scale=%s seconds=%g", w.name, p.seed, p.scale, p.seconds)
	var e *env
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
		}
		var d time.Duration
		var err error
		if e, d, err = setUp(w, p); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d.Seconds())
	}
	defer e.close()
	_, setupMedian, _ := quartiles(setupTimes)
	o.set(endToEnd, "setup_s", setupMedian)
	o.notef("  set-up: median of %d (generate, load, index, view, %d warm-up operations)", setups, w.warmup)

	checkAnswers(e, o, "before the run")
	res := e.timedRun(p.seconds, nil, nil)
	o.set(endToEnd, "heap_live_mb", heapLiveMB(e))
	latencyMetrics(w, res, o)
	o.Attempted += int64(len(res.lat))
	o.Failed += int64(res.opErrs)

	if e.finalCheck != nil {
		o.Attempted++
		if err := e.finalCheck(res.applied); err != nil {
			o.Failed++
			o.Correct = false
			o.notef("  final state: %v", err)
		}
	}
	app := res.app
	if e.concurrent {
		checkAnswers(e, o, "after the appends")
	} else {
		app = e.writeProbe()
	}
	appendMetrics(app, e.concurrent, o)
	o.Attempted += int64(len(app.service))
	o.Failed += int64(app.errs + app.late)
	if res.opErrs+app.errs > 0 {
		o.Correct = false
	}
	return o, nil
}

// runTraced is the per-layer pass: a quarter-length run with tracing off
// and one with spans on (their median latencies give the tracing
// overhead), engine counters read around the traced run, then the
// workload's inputs replayed through each layer.
func runTraced(w workload, p params) (*outcome, error) {
	o := &outcome{Correct: true, Metrics: map[string]metricValue{}, spans: map[string][]span{}}
	o.notef("%s  traced pass  seed=%d scale=%s seconds=%g", w.name, p.seed, p.scale, p.seconds/4)
	quarter := func(tr, appTr *tracer, after func(e *env, res runResult) error) (runResult, error) {
		e, _, err := setUp(w, p)
		if err != nil {
			return runResult{}, err
		}
		defer e.close()
		when := "before the untraced run"
		if tr != nil {
			when = "before the traced run"
		}
		checkAnswers(e, o, when)
		tasks0, _ := e.sess.Metrics().Value("indexeddf_tasks_started_total")
		shuffle0, _ := e.sess.Metrics().Value("indexeddf_shuffle_bytes_total")
		hits0, misses0 := e.sess.PlanCacheStats()
		res := e.timedRun(p.seconds/4, tr, appTr)
		o.Attempted += int64(len(res.lat) + len(res.app.service))
		o.Failed += int64(res.opErrs + res.app.errs + res.app.late)
		if res.opErrs+res.app.errs > 0 {
			o.Correct = false
		}
		if tr != nil {
			ops := float64(len(res.lat))
			tasks1, _ := e.sess.Metrics().Value("indexeddf_tasks_started_total")
			shuffle1, _ := e.sess.Metrics().Value("indexeddf_shuffle_bytes_total")
			hits1, misses1 := e.sess.PlanCacheStats()
			o.set(perLayer, "rdd.tasks", (tasks1-tasks0)/ops)
			o.set(perLayer, "rdd.shuffle_bytes", (shuffle1-shuffle0)/ops)
			ratio := 0.0
			if lookups := (hits1 - hits0) + (misses1 - misses0); lookups > 0 {
				ratio = float64(hits1-hits0) / float64(lookups)
			}
			o.set(perLayer, "opt.plan_cache_hit_ratio", ratio)
		}
		if after != nil {
			err = after(e, res)
		}
		return res, err
	}
	plain, err := quarter(nil, nil, nil)
	if err != nil {
		return nil, err
	}
	tr, appTr := newTracer(), newTracer()
	var report layerReport
	traced, err := quarter(tr, appTr, func(e *env, res runResult) error {
		ops := float64(len(res.lat))
		o.set(perLayer, "memory.peak_mb", float64(tr.memPeak)/(1<<20))
		o.set(perLayer, "spill.runs", float64(tr.spillRuns)/ops)
		o.set(perLayer, "spill.bytes_per_input_byte", float64(tr.spillBytes)/ops/float64(rowBytes(e.probe.schema, e.probe.rows)))
		o.set(perLayer, "physical.op_over_reference", opOverReference(e))
		return runProbes(e, p, &report)
	})
	if err != nil {
		return nil, err
	}
	for _, m := range report.metrics {
		o.set(perLayer, m.name, m.value)
	}
	plainP50, _ := percentile(sortedCopy(plain.lat), 0.5)
	tracedP50, _ := percentile(sortedCopy(traced.lat), 0.5)
	o.set(perLayer, "trace_overhead_pct", 100*float64(tracedP50-plainP50)/float64(plainP50))

	o.spans["reader"], o.spans["appender"] = tr.spans, appTr.spans
	stats := selfTimes(tr.spans)
	var opBusy int64
	perOp := map[string]float64{}
	for _, s := range stats {
		if s.Name == "op" {
			opBusy = s.Busy
		}
		perOp[s.Name] = us(s.Busy) / float64(len(traced.lat))
	}
	for _, n := range []string{"indexeddf.open_us", "indexeddf.first_row_us", "indexeddf.drain_us"} {
		o.set(perLayer, n, perOp[strings.TrimSuffix(n, "_us")])
	}
	o.notef("  lat_p50_us %.1f untraced, %.1f traced over %d and %d operations", us(plainP50), us(tracedP50), len(plain.lat), len(traced.lat))
	o.notef("  %-24s %9s %12s %12s %9s %11s", "span", "count", "busy ms", "self ms", "p50 us", "share of op")
	for _, s := range append(stats, selfTimes(appTr.spans)...) {
		share := "-"
		if opBusy > 0 && s.Name != "append.batch" {
			share = fmt.Sprintf("%.1f%%", 100*float64(s.Self)/float64(opBusy))
		}
		o.notef("  %-24s %9d %12.2f %12.2f %9.1f %11s", s.Name, s.Count, float64(s.Busy)/1e6, float64(s.Self)/1e6, us(s.p50()), share)
	}
	o.notef("  %-32s %9s %12s", "layer probe", "count", "busy ms")
	for _, m := range report.metrics {
		o.notef("  %-32s %9d %12.2f", m.name, m.count, float64(m.busy.Nanoseconds())/1e6)
	}
	for _, d := range perLayer {
		if _, ok := o.Metrics[d.name]; !ok {
			return nil, fmt.Errorf("%s: traced pass did not produce %s", w.name, d.name)
		}
	}
	return o, nil
}

// opOverReference is the measured operation's time over the reference's
// (vanilla frames, or the unbudgeted session), medians of alternating runs
// on the same parameters.
func opOverReference(e *env) float64 {
	const n = 15
	var op, ref []int64
	for i := 0; i <= n; i++ {
		p := e.next()
		a := timeIt(func() { _ = e.op(nil, p, nil) })
		b := timeIt(func() { _ = e.ref(p, nil) })
		if i > 0 { // the first reference run builds its caches
			op, ref = append(op, a.Nanoseconds()), append(ref, b.Nanoseconds())
		}
	}
	if e.dropRef != nil {
		e.dropRef()
	}
	o50, _ := percentile(sortedCopy(op), 0.5)
	r50, _ := percentile(sortedCopy(ref), 0.5)
	return float64(o50) / float64(r50)
}

// noiseReport prints, per gated metric of one workload, the median,
// quartiles and relative spread over repeated runs, and reports whether
// every spread stays within its bound.
func noiseReport(name string, runs []*outcome, record map[string]map[string]float64) bool {
	ok := true
	fmt.Printf("%s  noise over %d runs\n  %-16s %14s %14s %14s %9s %7s\n", name, len(runs), "metric", "q1", "median", "q3", "spread", "bound")
	record[name] = map[string]float64{}
	for _, d := range endToEnd {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = r.Metrics[d.name].Value
		}
		q1, med, q3 := quartiles(xs)
		spread := relSpread(q1, med, q3)
		record[name][d.name] = spread
		verdict := ""
		// setup_s is gated on its median only, not on its spread.
		if spread > d.bound && d.name != "setup_s" {
			verdict, ok = "  EXCEEDS BOUND", false
		}
		fmt.Printf("  %-16s %14.4f %14.4f %14.4f %8.2f%% %6.0f%%%s\n", d.name, q1, med, q3, 100*spread, 100*d.bound, verdict)
	}
	return ok
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadName = flag.String("workload", "", "run one workload and print the result line (default: all four, both passes)")
		seed         = flag.Int64("seed", 42, "seed for the dataset, the parameter draws and the update stream")
		seconds      = flag.Float64("seconds", 0, "measured seconds per run (default 20, or 1 at -scale tiny)")
		trace        = flag.Int("trace", 0, "with -workload: 0 = gated end-to-end pass, 1 = traced per-layer pass")
		spansPath    = flag.String("spans", "", "write the traced pass's spans to this file")
		scale        = flag.String("scale", "full", "full (SNB SF 10) or tiny (SF 0.5)")
		repeat       = flag.Int("repeat", 0, "run the gated pass N >= 5 times on consecutive seeds and report each metric's spread")
		noisePath    = flag.String("noise", "", "with -repeat: also write the measured spreads to this file as JSON")
		tmpDir       = flag.String("tmpdir", ".bench_build/tmp", "directory for spill files")
	)
	flag.Parse()
	if *scale != "full" && *scale != "tiny" {
		fmt.Fprintln(os.Stderr, "benchmark: -scale must be full or tiny")
		return 2
	}
	if *seconds <= 0 {
		*seconds = 20
		if *scale == "tiny" {
			*seconds = 1
		}
	}
	if err := os.MkdirAll(*tmpDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	p := params{seed: *seed, seconds: *seconds, scale: *scale, tmpDir: *tmpDir}
	setups := 3
	if *scale == "tiny" {
		setups = 1
	}
	selected := workloads()
	if *workloadName != "" {
		selected = nil
		for _, w := range workloads() {
			if w.name == *workloadName {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s; engine pinned to Parallelism=%d TablePartitions=%d ShufflePartitions=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		engineConfig().Parallelism, engineConfig().TablePartitions, engineConfig().ShufflePartitions)

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	status := 0
	emit := func(o *outcome, defs []metricDef) {
		o.print(defs)
		if !o.Correct {
			status = 1
		}
	}

	if *repeat > 0 {
		if *repeat < 5 {
			fmt.Fprintln(os.Stderr, "benchmark: -repeat needs at least 5 runs for quartiles to mean anything")
			return 2
		}
		record := map[string]map[string]float64{}
		for _, w := range selected {
			var runs []*outcome
			for i := 0; i < *repeat; i++ {
				pi := p
				pi.seed = p.seed + int64(i)
				o, err := runUntraced(w, pi, setups)
				if err != nil {
					return fail(err)
				}
				emit(o, endToEnd)
				runs = append(runs, o)
			}
			if !noiseReport(w.name, runs, record) {
				status = 1
			}
		}
		if *noisePath != "" {
			b, _ := json.MarshalIndent(map[string]any{"runs": *repeat, "first_seed": p.seed, "seconds": p.seconds,
				"scale": p.scale, "relative_spread": record}, "", "  ")
			if err := os.WriteFile(*noisePath, append(b, '\n'), 0o644); err != nil {
				return fail(err)
			}
		}
		return status
	}

	all := map[string]*outcome{}
	spans := map[string][]span{}
	var last *outcome
	for _, w := range selected {
		if *workloadName == "" || *trace == 0 {
			o, err := runUntraced(w, p, setups)
			if err != nil {
				return fail(err)
			}
			emit(o, endToEnd)
			all[w.name], last = o, o
		}
		if *workloadName == "" || *trace == 1 {
			o, err := runTraced(w, p)
			if err != nil {
				return fail(err)
			}
			emit(o, perLayer)
			all[w.name+"/traced"], last = o, o
			for who, s := range o.spans {
				spans[w.name+"/"+who] = s
			}
		}
	}
	if *spansPath != "" {
		meta := map[string]any{"seed": p.seed, "scale": p.scale, "seconds": p.seconds / 4, "nproc": runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "time_unit": "ns since the pass started"}
		if err := writeSpans(*spansPath, meta, spans); err != nil {
			return fail(err)
		}
	}
	// The last line of standard output is the machine-readable result: one
	// workload's when -workload selected it, else every pass by name.
	var line []byte
	if *workloadName != "" {
		line, _ = json.Marshal(last)
	} else {
		line, _ = json.Marshal(all)
	}
	fmt.Println(string(line))
	return status
}
