package physical

import (
	"errors"

	"indexeddf/internal/faultpoint"
	"indexeddf/internal/obs"
	"indexeddf/internal/rdd"
	"indexeddf/internal/spill"
	"indexeddf/internal/sqltypes"
	"indexeddf/internal/vector"
)

// Shared fan-out driver for the out-of-core hash operators: when a hash
// aggregate's group table or a hash join's build side outgrows its
// reservation, the state is hash-partitioned by key into spillFanout run
// files and each partition is processed independently — recursively, with
// a different hash salt per level, until every partition fits the budget.

const (
	// spillFanout is the number of partitions one spill generation fans
	// into. 8 divides the working set fast (8^2 = 64 partitions after two
	// levels) while keeping the open-file and run-buffer cost of a
	// generation small.
	spillFanout = 8

	// maxSpillDepth caps fan-out recursion. Salting splits distinct keys,
	// never duplicates of one key: a join build side whose rows share one
	// hot key lands in a single partition at every level, and each level
	// rewrites the whole partition (a ~1.4 MB single-key build under a
	// 512 KiB budget writes ~11 MiB of runs before the cap). Past the cap
	// the aggregate — whose duplicates pre-aggregate away, so its
	// over-budget partition really holds too many distinct keys — surfaces
	// the memory error, and the join falls back to chunked probing.
	maxSpillDepth = 8

	// spillScatterFlush is how many buffered scatter bytes accumulate
	// before the per-partition builders are drained to their run files.
	// The buffer is transient operator scratch (bounded, freed at seal),
	// matching the exchange's spill writer granularity.
	spillScatterFlush = 1 << 20
)

// errSpillDepth is open's answer past maxSpillDepth; each operator decides
// what the cap means for it.
var errSpillDepth = errors.New("physical: spill fan-out depth cap reached")

// fanSide is one input an operator fans out: its row schema and the key
// ordinals its rows are routed by.
type fanSide struct {
	schema *sqltypes.Schema
	keys   []int
}

// spillPart is one pending fan-out partition: one run per side (the
// aggregate's accumulator rows; the join's build, then probe rows), all
// holding the same key subset, and the level whose salt routed them.
type spillPart struct {
	runs  []*spill.Run
	level int
}

// fanDriver is the recursive fan-out both out-of-core hash operators
// share. An operator whose state outgrows its reservation opens level 1,
// scatters every side into the level's fans and pushes them; the driver
// then drains the pending partitions one at a time through the operator's
// process step, which returns the partition's output — or, when the
// partition still overflows, opens the next level, re-fans the partition
// and pushes its sub-partitions, returning nil. LIFO order bounds the
// open state to one lineage of partitions.
type fanDriver struct {
	tc      *rdd.TaskContext
	st      *obs.OpStats
	op      string
	sides   []fanSide
	process func(spillPart) (vector.BatchIter, error)
	stack   []spillPart
	cur     vector.BatchIter
}

// open starts fan-out level `level` (1 = the operator's first spill): one
// runFan per side, salted with the level. Past maxSpillDepth it returns
// errSpillDepth.
func (d *fanDriver) open(level int) ([]*runFan, error) {
	if level > maxSpillDepth {
		return nil, errSpillDepth
	}
	if err := faultpoint.Hit(faultpoint.SpillPartition); err != nil {
		return nil, err
	}
	d.st.NoteFanout(spillFanout)
	d.st.NoteDepth(int64(level))
	fans := make([]*runFan, len(d.sides))
	for i, s := range d.sides {
		f, err := newRunFan(d.tc, d.op, s.schema, s.keys, uint64(level), d.st)
		if err != nil {
			return nil, err
		}
		fans[i] = f
	}
	return fans, nil
}

// push seals a level's fans and stacks its partitions, pairing the sides'
// runs by partition index. A partition in which some side is empty
// produces no output (an aggregate partition without rows, a join pair
// without build or probe rows), so its runs are released on the spot.
func (d *fanDriver) push(fans []*runFan, level int) error {
	for _, f := range fans {
		if err := f.seal(); err != nil {
			return err
		}
	}
	for p := 0; p < spillFanout; p++ {
		part := spillPart{runs: make([]*spill.Run, len(fans)), level: level}
		empty := false
		for s, f := range fans {
			part.runs[s] = f.runs[p]
			empty = empty || f.runs[p].Rows() == 0
		}
		if empty {
			for _, r := range part.runs {
				r.Release()
			}
			continue
		}
		d.stack = append(d.stack, part)
	}
	return nil
}

// Next implements vector.BatchIter.
func (d *fanDriver) Next() (*vector.Batch, error) {
	for {
		if d.cur != nil {
			b, err := d.cur.Next()
			if b != nil || err != nil {
				return b, err
			}
			d.cur = nil
		}
		if len(d.stack) == 0 {
			return nil, nil
		}
		top := d.stack[len(d.stack)-1]
		d.stack = d.stack[:len(d.stack)-1]
		out, err := d.process(top)
		if err != nil {
			return nil, err
		}
		d.cur = out // nil when the partition re-fanned into sub-partitions
	}
}

// runFan hash-partitions batches into spillFanout spill runs. Routing
// hashes the key ordinals folded with a per-level salt, so recursing on
// one partition (whose rows all collide under the previous level's
// function) redistributes instead of re-colliding. Runs are spilled
// up front: nothing a fan-out holds is charged resident state.
type runFan struct {
	runs    []*spill.Run
	scatter *vector.Scatter
	acc     int64
}

func newRunFan(tc *rdd.TaskContext, op string, schema *sqltypes.Schema, ords []int,
	salt uint64, st *obs.OpStats) (*runFan, error) {
	sp := tc.Ctx.SpillManager()
	mem := tc.Mem()
	qs := obs.FromContext(tc.Cancellation())
	f := &runFan{
		runs:    make([]*spill.Run, spillFanout),
		scatter: vector.NewScatterSalted(schema, ords, spillFanout, salt),
	}
	for i := range f.runs {
		r := sp.NewRun(op, schema, mem, st, qs)
		if err := r.SpillNow(); err != nil {
			return nil, err
		}
		f.runs[i] = r
	}
	return f, nil
}

// add routes b's rows to their partitions (copying them — the caller may
// reuse b) and drains the builders to disk past the flush threshold.
func (f *runFan) add(b *vector.Batch) error {
	f.scatter.Add(b)
	f.acc += b.MemBytes()
	if f.acc >= spillScatterFlush {
		return f.flush()
	}
	return nil
}

func (f *runFan) flush() error {
	f.acc = 0
	for r, batches := range f.scatter.Seal() {
		for _, b := range batches {
			if err := f.runs[r].Append(b); err != nil {
				return err
			}
		}
	}
	return nil
}

// seal drains the builders and seals every run.
func (f *runFan) seal() error {
	if err := f.flush(); err != nil {
		return err
	}
	for _, r := range f.runs {
		if err := r.Seal(); err != nil {
			return err
		}
	}
	return nil
}
