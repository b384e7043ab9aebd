// Package rdd implements the distributed-collection substrate the engine
// executes on: partitioned resilient datasets with narrow and shuffle
// dependencies, a hash partitioner, an in-memory shuffle service and a DAG
// scheduler running tasks on a bounded worker pool — a faithful
// single-process analogue of Spark's core (Zaharia et al., NSDI 2012),
// which the Indexed DataFrame plugs into. Jobs under an inline context
// (WithInline) run their tasks on the calling goroutine instead.
package rdd

import (
	"context"
	"fmt"

	"indexeddf/internal/memory"
	"indexeddf/internal/obs"
	"indexeddf/internal/sqltypes"
	"indexeddf/internal/vector"
)

// RDD is a partitioned dataset of rows. Compute produces one partition's
// rows; narrow parents are computed inline (pipelined), wide parents are
// satisfied from shuffle outputs prepared by the scheduler.
type RDD interface {
	// ID is unique within a Context.
	ID() int
	// NumPartitions returns the partition count.
	NumPartitions() int
	// Compute returns an iterator over the rows of one partition.
	Compute(tc *TaskContext, partition int) (sqltypes.RowIter, error)
	// Dependencies lists the parent dependencies.
	Dependencies() []Dependency
}

// Dependency is an edge in the RDD lineage graph.
type Dependency interface {
	Parent() RDD
}

// OneToOne is a narrow dependency: partition i depends on parent partition i.
type OneToOne struct{ P RDD }

// Parent implements Dependency.
func (d OneToOne) Parent() RDD { return d.P }

// ShuffleDependency is a wide dependency: child partitions read hashed
// buckets of every parent partition.
type ShuffleDependency struct {
	P         RDD
	ShuffleID int
	// Partitioner routes each parent row to a reduce partition (row
	// exchanges only; nil when Batch is set).
	Partitioner Partitioner
	// Batch, when non-nil, makes this a columnar exchange: map tasks
	// scatter column-major batches (hashing the key columns with the
	// vectorized kernel, the sole routing function — there is no row
	// fallback) and reduce tasks stream sealed batches back out, so data
	// stays columnar across the stage boundary.
	Batch *BatchExchange
	// Obs, when non-nil, receives the map side's runtime numbers (rows,
	// batches, payload bytes, task wall time) — the exchange operator's
	// stats are collected here because its output iterator belongs to the
	// shuffle service, not to an Execute closure.
	Obs *obs.OpStats
}

// BatchExchange configures a columnar shuffle dependency.
type BatchExchange struct {
	// Schema is the parent's row schema (row-producing parents are
	// gathered into batches of this shape at the map side).
	Schema *sqltypes.Schema
	// Ords are the key column ordinals; empty routes everything to
	// reduce partition 0 (the single-partition gather).
	Ords []int
	// N is the reduce-side partition count.
	N int
}

// Parent implements Dependency.
func (d *ShuffleDependency) Parent() RDD { return d.P }

// numReduce returns the dependency's reduce-side partition count.
func (d *ShuffleDependency) numReduce() int {
	if d.Batch != nil {
		return d.Batch.N
	}
	return d.Partitioner.NumPartitions()
}

// Partitioner maps a row to a partition in [0, NumPartitions).
type Partitioner interface {
	NumPartitions() int
	PartitionFor(row sqltypes.Row) int
}

// HashPartitioner routes rows by the 64-bit hash of a key derived from the
// row — the scheme the Indexed DataFrame uses on the indexed column. Either
// Key (a value whose Hash64 routes the row) or Hash (a direct row hash,
// which composite-key exchanges use to avoid materializing key bytes per
// row) must be set; Hash wins when both are.
type HashPartitioner struct {
	N    int
	Key  func(sqltypes.Row) sqltypes.Value
	Hash func(sqltypes.Row) uint64
}

// NumPartitions implements Partitioner.
func (p *HashPartitioner) NumPartitions() int { return p.N }

// PartitionFor implements Partitioner.
func (p *HashPartitioner) PartitionFor(row sqltypes.Row) int {
	if p.Hash != nil {
		return int(p.Hash(row) % uint64(p.N))
	}
	return int(p.Key(row).Hash64() % uint64(p.N))
}

// SinglePartitioner routes everything to partition 0 (global sorts/limits).
type SinglePartitioner struct{}

// NumPartitions implements Partitioner.
func (SinglePartitioner) NumPartitions() int { return 1 }

// PartitionFor implements Partitioner.
func (SinglePartitioner) PartitionFor(sqltypes.Row) int { return 0 }

// TaskContext carries per-task state into Compute.
type TaskContext struct {
	Ctx       *Context
	Partition int

	// ctx is the query's cancellation context (nil means background).
	// Long-running Compute loops poll Err to stop promptly when the query
	// is cancelled or its deadline expires.
	ctx context.Context
}

// Err reports the task's cancellation state: nil while the query is live,
// context.Canceled / context.DeadlineExceeded once it is not. Operators
// with long per-partition loops (scans, shuffle writes) poll this every
// block of rows.
func (tc *TaskContext) Err() error {
	if tc == nil || tc.ctx == nil {
		return nil
	}
	return tc.ctx.Err()
}

// Cancellation returns the task's context (context.Background when the job
// was started without one).
func (tc *TaskContext) Cancellation() context.Context {
	if tc == nil || tc.ctx == nil {
		return context.Background()
	}
	return tc.ctx
}

// Mem returns the query's memory tracker (nil — and therefore a no-op
// tracker — when the job runs without budgets). Operators that buffer
// unbounded state (hash tables, sort runs, top-n stores) reserve against
// it and fail fast with a memory.LimitError instead of OOMing the process.
func (tc *TaskContext) Mem() *memory.Tracker {
	if tc == nil || tc.ctx == nil {
		return nil
	}
	return memory.FromContext(tc.ctx)
}

// ---------------------------------------------------------------------------
// Concrete RDDs

// SliceRDD is a materialized dataset: rows pre-split into partitions.
type SliceRDD struct {
	id    int
	parts [][]sqltypes.Row
}

// NewSliceRDD wraps pre-partitioned rows.
func (c *Context) NewSliceRDD(parts [][]sqltypes.Row) *SliceRDD {
	return &SliceRDD{id: c.nextRDDID(), parts: parts}
}

// ID implements RDD.
func (r *SliceRDD) ID() int { return r.id }

// NumPartitions implements RDD.
func (r *SliceRDD) NumPartitions() int { return len(r.parts) }

// Dependencies implements RDD.
func (r *SliceRDD) Dependencies() []Dependency { return nil }

// Compute implements RDD.
func (r *SliceRDD) Compute(_ *TaskContext, p int) (sqltypes.RowIter, error) {
	if p < 0 || p >= len(r.parts) {
		return nil, fmt.Errorf("rdd: partition %d out of range", p)
	}
	return sqltypes.NewSliceIter(r.parts[p]), nil
}

// IterRDD computes partitions through a user function; the workhorse every
// physical operator builds on (MapPartitions in Spark terms).
type IterRDD struct {
	id     int
	parent RDD
	nParts int
	fn     func(tc *TaskContext, partition int, parent sqltypes.RowIter) (sqltypes.RowIter, error)
}

// NewIterRDD builds an RDD computing each partition from the parent's
// partition via fn. With a nil parent, fn receives a nil iterator and nParts
// must be given.
func (c *Context) NewIterRDD(parent RDD, nParts int,
	fn func(tc *TaskContext, partition int, parent sqltypes.RowIter) (sqltypes.RowIter, error)) *IterRDD {
	if parent != nil {
		nParts = parent.NumPartitions()
	}
	return &IterRDD{id: c.nextRDDID(), parent: parent, nParts: nParts, fn: fn}
}

// ID implements RDD.
func (r *IterRDD) ID() int { return r.id }

// NumPartitions implements RDD.
func (r *IterRDD) NumPartitions() int { return r.nParts }

// Dependencies implements RDD.
func (r *IterRDD) Dependencies() []Dependency {
	if r.parent == nil {
		return nil
	}
	return []Dependency{OneToOne{P: r.parent}}
}

// Compute implements RDD.
func (r *IterRDD) Compute(tc *TaskContext, p int) (sqltypes.RowIter, error) {
	var in sqltypes.RowIter
	if r.parent != nil {
		var err error
		in, err = r.parent.Compute(tc, p)
		if err != nil {
			return nil, err
		}
	}
	return r.fn(tc, p, in)
}

// ShuffledRDD reads the reduce side of a shuffle dependency.
type ShuffledRDD struct {
	id  int
	dep *ShuffleDependency
}

// NewShuffledRDD repartitions parent's rows with part.
func (c *Context) NewShuffledRDD(parent RDD, part Partitioner) *ShuffledRDD {
	dep := &ShuffleDependency{P: parent, ShuffleID: c.nextShuffleID(), Partitioner: part}
	return &ShuffledRDD{id: c.nextRDDID(), dep: dep}
}

// NewBatchShuffledRDD repartitions parent through the columnar exchange:
// map tasks scatter batches by hashing the key ordinals (all rows to
// reduce partition 0 when ords is empty), and Compute serves the reduce
// side as a batch stream behind a row-iterator shim — a vectorized
// consumer splices the batches back out through vector.AsBatchIter, a row
// consumer just reads rows.
func (c *Context) NewBatchShuffledRDD(parent RDD, schema *sqltypes.Schema, ords []int, nReduce int) *ShuffledRDD {
	if len(ords) == 0 {
		nReduce = 1
	}
	dep := &ShuffleDependency{
		P:         parent,
		ShuffleID: c.nextShuffleID(),
		Batch:     &BatchExchange{Schema: schema, Ords: ords, N: nReduce},
	}
	return &ShuffledRDD{id: c.nextRDDID(), dep: dep}
}

// SetObs routes the shuffle's map-side runtime numbers into st (nil
// disables collection).
func (r *ShuffledRDD) SetObs(st *obs.OpStats) { r.dep.Obs = st }

// ID implements RDD.
func (r *ShuffledRDD) ID() int { return r.id }

// NumPartitions implements RDD.
func (r *ShuffledRDD) NumPartitions() int { return r.dep.numReduce() }

// Dependencies implements RDD.
func (r *ShuffledRDD) Dependencies() []Dependency { return []Dependency{r.dep} }

// Compute implements RDD. Both exchange flavors stream the reduce side one
// map task's bucket at a time instead of concatenating everything up
// front; the columnar flavor additionally presents its batches behind a
// row shim that vectorized consumers splice away.
func (r *ShuffledRDD) Compute(tc *TaskContext, p int) (sqltypes.RowIter, error) {
	obs.FromContext(tc.Cancellation()).Event("shuffle fetch", p, 0)
	if r.dep.Batch != nil {
		br, err := tc.Ctx.shuffles.OpenBatchReader(r.dep.ShuffleID, p, tc)
		if err != nil {
			return nil, err
		}
		return vector.NewRowIter(br), nil
	}
	return tc.Ctx.shuffles.OpenRowReader(r.dep.ShuffleID, p, tc)
}

// UnionRDD concatenates the partitions of several parents.
type UnionRDD struct {
	id      int
	parents []RDD
}

// NewUnionRDD builds the union of parents (partition counts add up).
func (c *Context) NewUnionRDD(parents ...RDD) *UnionRDD {
	return &UnionRDD{id: c.nextRDDID(), parents: parents}
}

// ID implements RDD.
func (r *UnionRDD) ID() int { return r.id }

// NumPartitions implements RDD.
func (r *UnionRDD) NumPartitions() int {
	n := 0
	for _, p := range r.parents {
		n += p.NumPartitions()
	}
	return n
}

// Dependencies implements RDD.
func (r *UnionRDD) Dependencies() []Dependency {
	deps := make([]Dependency, len(r.parents))
	for i, p := range r.parents {
		deps[i] = OneToOne{P: p}
	}
	return deps
}

// Compute implements RDD.
func (r *UnionRDD) Compute(tc *TaskContext, p int) (sqltypes.RowIter, error) {
	for _, parent := range r.parents {
		if p < parent.NumPartitions() {
			return parent.Compute(tc, p)
		}
		p -= parent.NumPartitions()
	}
	return nil, fmt.Errorf("rdd: union partition out of range")
}
