package main

import (
	"math"
	"sort"
)

// minBeyond is the sample-count rule: a percentile is only trusted when at
// least this many samples lie beyond it, so one slow operation cannot move
// the reported tail.
const minBeyond = 10

// rank is the nearest-rank position of the p-quantile among n >= 1 sorted
// samples and the number of samples beyond it.
func rank(n int, p float64) (idx, beyond int) {
	idx = int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx, n - 1 - idx
}

// percentile returns the nearest-rank p-quantile of sorted (ascending)
// samples and how many samples lie beyond it.
func percentile(sorted []int64, p float64) (v int64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	idx, beyond := rank(len(sorted), p)
	return sorted[idx], beyond
}

// tailFor returns the highest of p99, p95 and p90 that n samples support
// under the minBeyond rule, or 0 when even p90 has too few beyond it.
func tailFor(n int) float64 {
	for _, p := range []float64{0.99, 0.95, 0.90} {
		if _, beyond := rank(n, p); n > 0 && beyond >= minBeyond {
			return p
		}
	}
	return 0
}

func sortedCopy(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which is how the regression gate computes a metric's spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// relSpread is the interquartile distance as a share of the median (the
// second quartile is the median under this method).
func relSpread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// lateAfterPeriods is how far behind its schedule a batch may start before
// it counts as failed. One period would be the natural limit, but on two
// saturated cores the Go scheduler alone delays a waking goroutine by up to
// two of its 10 ms time slices while the schedule still holds (the service
// time is a fifth of the period, so the appender catches up at once). Ten
// periods behind means a backlog is building: the offered rate is not met.
const lateAfterPeriods = 10

// lateness is the open-loop accounting for one scheduled append: lag is how
// long after its due time the batch started (never negative); a batch is
// late when that exceeds lateAfterPeriods periods.
func lateness(dueNs, startNs, periodNs int64) (lagNs int64, late bool) {
	lagNs = startNs - dueNs
	if lagNs < 0 {
		lagNs = 0
	}
	return lagNs, lagNs > lateAfterPeriods*periodNs
}
