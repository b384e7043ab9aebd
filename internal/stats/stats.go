// Package stats maintains per-table and per-column statistics — row
// counts, min/max bounds, null counts, and distinct-value sketches —
// as an insert-only fold over observed rows, exposed to the planner
// through plan.Stats. Distinct counts use a HyperLogLog sketch over
// sqltypes.Value.Hash64, so maintenance is O(1) per value with a fixed
// 1 KiB footprint per column. Every aggregate here only grows, so the
// rows can arrive in any order and in any slices: an indexed table
// folds the batch range appended since its last fold when the planner
// reads its statistics, a vanilla table observes each append, and
// ANALYZE TABLE folds from the start (and turns collection on for a
// table that had none).
package stats

import (
	"math"
	"math/bits"
	"sync"

	"indexeddf/internal/sqltypes"
)

// hllP is the HyperLogLog precision: 2^hllP registers. p=10 gives
// 1024 registers (1 KiB per column) and a ~3.25% standard error,
// plenty for the planner's order-of-magnitude selectivity decisions.
const hllP = 10

const hllM = 1 << hllP

// hllAlpha is the bias-correction constant for m=1024.
var hllAlpha = 0.7213 / (1 + 1.079/float64(hllM))

// HLL is a HyperLogLog distinct-count sketch over 64-bit hashes.
type HLL struct {
	reg [hllM]uint8
}

// Add observes one hashed value.
func (h *HLL) Add(hash uint64) {
	// Value.Hash64 is FNV-1a, whose high bits avalanche poorly for
	// short inputs; run it through a splitmix64 finalizer first.
	hash = mix64(hash)
	idx := hash >> (64 - hllP)
	rho := uint8(bits.LeadingZeros64(hash<<hllP|1<<(hllP-1))) + 1
	if rho > h.reg[idx] {
		h.reg[idx] = rho
	}
}

// Estimate returns the approximate number of distinct values observed.
func (h *HLL) Estimate() int64 {
	sum := 0.0
	zeros := 0
	for _, r := range h.reg {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	e := hllAlpha * hllM * hllM / sum
	if e <= 2.5*hllM && zeros > 0 {
		// Small-range correction: linear counting.
		e = hllM * math.Log(float64(hllM)/float64(zeros))
	}
	return int64(e + 0.5)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ColumnStats is an immutable snapshot of one column's statistics.
type ColumnStats struct {
	Count int64          // rows observed (including nulls)
	Nulls int64          // null values observed
	NDV   int64          // approximate distinct non-null values
	Min   sqltypes.Value // smallest non-null value, Null if none
	Max   sqltypes.Value // largest non-null value, Null if none
}

// NullFraction returns the fraction of observed values that were null.
func (c *ColumnStats) NullFraction() float64 {
	if c == nil || c.Count == 0 {
		return 0
	}
	return float64(c.Nulls) / float64(c.Count)
}

// colAcc accumulates one column's statistics.
type colAcc struct {
	nulls    int64
	min, max sqltypes.Value
	hasRange bool
	hll      HLL
}

func (c *colAcc) observe(v sqltypes.Value) {
	if v.IsNull() {
		c.nulls++
		return
	}
	// The sketch is private to this accumulator, so fixed-width lanes
	// feed their raw payload straight to the HLL (Add finalizes with
	// splitmix64) instead of paying Value.Hash64's byte-wise FNV; only
	// strings need a real byte hash. This runs once per value on every
	// append, so cycles here are ingest overhead.
	switch v.T {
	case sqltypes.Bool, sqltypes.Int32, sqltypes.Int64, sqltypes.Timestamp:
		c.hll.Add(uint64(v.I))
	case sqltypes.Float64:
		f := v.F
		if f == 0 {
			f = 0 // collapse -0.0 and +0.0 into one distinct value
		}
		c.hll.Add(math.Float64bits(f))
	default:
		c.hll.Add(v.Hash64())
	}
	if !c.hasRange {
		c.min, c.max = v, v
		c.hasRange = true
		return
	}
	// Uniformly typed columns (the common case — appends are schema
	// checked) compare on the raw lane; mixed-width columns fall back to
	// the general comparator.
	if v.T == c.min.T && v.T == c.max.T {
		switch v.T {
		case sqltypes.Bool, sqltypes.Int32, sqltypes.Int64, sqltypes.Timestamp:
			if v.I < c.min.I {
				c.min = v
			} else if v.I > c.max.I {
				c.max = v
			}
			return
		case sqltypes.Float64:
			if v.F < c.min.F {
				c.min = v
			} else if v.F > c.max.F {
				c.max = v
			}
			return
		case sqltypes.String:
			if v.S < c.min.S {
				c.min = v
			} else if v.S > c.max.S {
				c.max = v
			}
			return
		}
	}
	if sqltypes.Compare(v, c.min) < 0 {
		c.min = v
	}
	if sqltypes.Compare(v, c.max) > 0 {
		c.max = v
	}
}

// Table accumulates statistics for one table. All methods are safe for
// concurrent use. A Table starts empty.
type Table struct {
	mu      sync.Mutex
	rows    int64
	cols    []colAcc
	version int64 // bumped on every Observe/Rebuild
	// snap is the last Snapshot, built at version snapAt; it is returned
	// again while the version holds.
	snap   []*ColumnStats
	snapAt int64
}

// NewTable returns an empty statistics accumulator for a table with
// ncols columns.
func NewTable(ncols int) *Table {
	return &Table{cols: make([]colAcc, ncols)}
}

// Observe folds a slice of rows into the statistics without keeping the
// slice or its rows. Rows shorter than the column count only update
// their present columns.
func (t *Table) Observe(rows []sqltypes.Row) {
	if t == nil || len(rows) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows += int64(len(rows))
	t.version++
	for _, row := range rows {
		n := len(row)
		if n > len(t.cols) {
			n = len(t.cols)
		}
		for i := 0; i < n; i++ {
			t.cols[i].observe(row[i])
		}
	}
}

// Rebuild resets the accumulator and folds in a full scan of the
// table.
func (t *Table) Rebuild(rows []sqltypes.Row) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for i := range t.cols {
		t.cols[i] = colAcc{}
	}
	t.rows = 0
	t.version++
	t.mu.Unlock()
	t.Observe(rows)
}

// Rows returns the number of rows observed since the last Rebuild.
func (t *Table) Rows() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rows
}

// Version returns a counter bumped on every mutation, for cheap
// change detection.
func (t *Table) Version() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.version
}

// Snapshot returns per-column statistics, or nil when t is nil. The
// result is built once per version and shared: callers must not modify
// the slice or its entries.
func (t *Table) Snapshot() []*ColumnStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.snap != nil && t.snapAt == t.version {
		return t.snap
	}
	out := make([]*ColumnStats, len(t.cols))
	for i := range t.cols {
		c := &t.cols[i]
		cs := &ColumnStats{Count: t.rows, Nulls: c.nulls}
		if c.hasRange {
			cs.Min, cs.Max = c.min, c.max
			cs.NDV = c.hll.Estimate()
			if nonNull := t.rows - c.nulls; cs.NDV > nonNull {
				cs.NDV = nonNull
			}
			if cs.NDV < 1 {
				cs.NDV = 1
			}
		} else {
			cs.Min, cs.Max = sqltypes.Null, sqltypes.Null
		}
		out[i] = cs
	}
	t.snap, t.snapAt = out, t.version
	return out
}

// Provider is implemented by catalog tables that maintain statistics.
// ColumnStats describes the table as of the call: an indexed table folds
// the rows appended since its previous call first. A nil return means no
// statistics are available (collection disabled, or the fold failed; the
// next call folds again from the start).
type Provider interface {
	ColumnStats() []*ColumnStats
}
