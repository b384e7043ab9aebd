package rdd

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"indexeddf/internal/faultpoint"
	"indexeddf/internal/memory"
	"indexeddf/internal/obs"
	"indexeddf/internal/sqltypes"
)

// RowStream is an incremental job run: the consumer pulls rows in
// partition order, matching Collect, while the partition tasks run on one
// of two paths.
//
// On the pool path they execute on a bounded worker pool in the
// background, so the first row of a large result is available as soon as
// the first partition task finishes — not after the whole job. A ticket
// system bounds the number of materialized-but-unconsumed partitions to
// the worker width, giving natural backpressure.
//
// On the lazy path no goroutine is started: the consumer computes
// partition p's iterator when it reaches p, pulls its rows one at a time,
// then moves on to p+1. Single-partition jobs take it (global sorts, top-n
// merges, gathered limits: their heavy lifting sits in shuffle map stages,
// which keep the pool, and materializing the final stage up front would
// stall the first row until the whole merged result exists), and so does
// every job under an inline context (WithInline), whose shuffle map stages
// run serially too. A cursor that stops early never pays for the tail.
//
// Closing the stream (or cancelling the context it was started under)
// stops the remaining partition tasks promptly and releases the job's
// shuffle outputs. RowStream is not safe for concurrent use by multiple
// goroutines; each consumer should start its own stream.
type RowStream struct {
	c      *Context
	r      RDD
	ctx    context.Context
	cancel context.CancelFunc

	slots   []chan partResult
	tickets chan struct{}
	workers sync.WaitGroup

	firstErr atomic.Pointer[error]

	// Consumer-side cursor state (single-goroutine).
	nextPart int
	cur      []sqltypes.Row
	curBytes int64 // accounted size of cur, released when the slot is consumed
	pos      int
	finished bool
	released bool

	// Lazy path: lazyIter pulls partition nextPart's rows (nil between
	// partitions); lazyCount counts delivered rows for the cancellation
	// poll.
	lazy      bool
	lazyIter  sqltypes.RowIter
	lazyCount int
}

type partResult struct {
	rows  []sqltypes.Row
	bytes int64
	err   error
}

// StreamJob starts the RDD as a streaming job under ctx and returns the
// stream. Shuffle stages run first, then the partition tasks — on the
// task pool, or on the lazy path for a single-partition job or under an
// inline ctx; results are delivered to Next in partition order, matching
// Collect.
func (c *Context) StreamJob(ctx context.Context, r RDD) *RowStream {
	if ctx == nil {
		ctx = context.Background()
	}
	sctx, cancel := context.WithCancel(ctx)
	n := r.NumPartitions()
	if n == 1 || Inline(ctx) {
		return &RowStream{c: c, r: r, ctx: sctx, cancel: cancel, lazy: true}
	}
	width := c.parallelism
	if width > n {
		width = n
	}
	if width < 1 {
		width = 1
	}
	s := &RowStream{
		c:       c,
		r:       r,
		ctx:     sctx,
		cancel:  cancel,
		slots:   make([]chan partResult, n),
		tickets: make(chan struct{}, n+width),
	}
	for i := range s.slots {
		s.slots[i] = make(chan partResult, 1)
	}
	for i := 0; i < width; i++ {
		s.tickets <- struct{}{}
	}
	s.workers.Add(1)
	go s.run(width)
	return s
}

// fail records the stream's first error and cancels everything else.
func (s *RowStream) fail(err error) {
	if err == nil {
		return
	}
	e := err
	s.firstErr.CompareAndSwap(nil, &e)
	s.cancel()
}

// takeErr returns the definitive stream error: the first task/shuffle
// error when one was recorded, the context error otherwise.
func (s *RowStream) takeErr() error {
	if p := s.firstErr.Load(); p != nil {
		return *p
	}
	return s.ctx.Err()
}

// run materializes shuffle stages and then fans partition tasks out over
// width workers. Each worker takes a backpressure ticket, computes the
// next unclaimed partition, and parks the result in that partition's slot.
func (s *RowStream) run(width int) {
	defer s.workers.Done()
	if err := s.c.ensureShuffles(s.ctx, s.r, map[int]bool{}); err != nil {
		s.fail(err)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < width; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-s.ctx.Done():
					return
				case <-s.tickets:
				}
				p := int(next.Add(1)) - 1
				if p >= len(s.slots) {
					return
				}
				rows, bytes, err := s.c.computePartition(s.ctx, s.r, p)
				if err != nil {
					memory.FromContext(s.ctx).Release(bytes)
					s.fail(err)
					return
				}
				select {
				case s.slots[p] <- partResult{rows: rows, bytes: bytes}:
				case <-s.ctx.Done():
					// The slot buffer is abandoned; return its charge now
					// rather than waiting for tracker close.
					memory.FromContext(s.ctx).Release(bytes)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Next returns the next row, or (nil, nil) when the stream is exhausted.
// After an error (including cancellation) it keeps returning that error.
func (s *RowStream) Next() (sqltypes.Row, error) {
	if s.lazy {
		return s.lazyNext()
	}
	for {
		if s.finished {
			return nil, s.takeFinishedErr()
		}
		if s.pos < len(s.cur) {
			row := s.cur[s.pos]
			s.pos++
			return row, nil
		}
		if s.nextPart >= len(s.slots) {
			s.finish()
			return nil, nil
		}
		select {
		case res := <-s.slots[s.nextPart]:
			s.nextPart++
			// The previous slot's rows are consumed: return their memory
			// charge before taking ownership of the next buffer.
			memory.FromContext(s.ctx).Release(s.curBytes)
			s.cur, s.curBytes, s.pos = res.rows, res.bytes, 0
			// Hand the consumed slot's ticket back so a worker can start
			// the next partition.
			select {
			case s.tickets <- struct{}{}:
			default:
			}
		case <-s.ctx.Done():
			err := s.takeErr()
			s.finishWithErr(err)
			return nil, err
		}
	}
}

// lazyNext serves the lazy path. Each partition is a task like a pool
// task: it hits faultpoint.TaskStart, counts as started when computed and
// as completed only on exhaustion (a truncated stream leaves it
// incomplete), and a panic anywhere in its operator chain is contained
// into the stream's terminal error instead of unwinding into caller code.
func (s *RowStream) lazyNext() (row sqltypes.Row, err error) {
	defer func() {
		if r := recover(); r != nil {
			perr := AsTaskPanic(r)
			s.finishWithErr(perr)
			row, err = nil, perr
		}
	}()
	if s.finished {
		return nil, s.takeFinishedErr()
	}
	for {
		if s.lazyIter == nil {
			if s.nextPart == s.r.NumPartitions() {
				s.finish()
				return nil, nil
			}
			if err := s.openPart(); err != nil {
				s.finishWithErr(err)
				return nil, err
			}
		}
		if s.lazyCount%1024 == 0 {
			if err := s.ctx.Err(); err != nil {
				err = s.takeErr()
				s.finishWithErr(err)
				return nil, err
			}
		}
		row, err = s.lazyIter.Next()
		if err != nil {
			s.finishWithErr(err)
			return nil, err
		}
		if row != nil {
			s.lazyCount++
			return row, nil
		}
		s.c.tasksCompleted.Add(1)
		obs.FromContext(s.ctx).TaskFinished()
		s.lazyIter = nil
		s.nextPart++
	}
}

// openPart starts the lazy path's next partition task: the job's shuffle
// stages before the first partition, then the cancellation check, the
// task-start fault point and Compute.
func (s *RowStream) openPart() error {
	p := s.nextPart
	if p == 0 {
		if err := s.c.ensureShuffles(s.ctx, s.r, map[int]bool{}); err != nil {
			return err
		}
	}
	if s.ctx.Err() != nil {
		return s.takeErr()
	}
	s.c.tasksStarted.Add(1)
	qs := obs.FromContext(s.ctx)
	qs.TaskStarted()
	if err := faultpoint.Hit(faultpoint.TaskStart); err != nil {
		return fmt.Errorf("rdd: partition %d of rdd %d: %w", p, s.r.ID(), err)
	}
	it, err := s.r.Compute(&TaskContext{Ctx: s.c, Partition: p, ctx: s.ctx}, p)
	if err != nil {
		return fmt.Errorf("rdd: partition %d of rdd %d: %w", p, s.r.ID(), err)
	}
	qs.Event("task start", p, 0)
	s.lazyIter = it
	return nil
}

func (s *RowStream) takeFinishedErr() error {
	if p := s.firstErr.Load(); p != nil {
		return *p
	}
	return nil
}

// finish tears the stream down after successful exhaustion.
func (s *RowStream) finish() {
	s.finished = true
	s.cancel()
	s.workers.Wait()
	s.release()
}

// finishWithErr tears the stream down after a failure, pinning err as the
// stream's terminal state.
func (s *RowStream) finishWithErr(err error) {
	if err != nil {
		e := err
		s.firstErr.CompareAndSwap(nil, &e)
	}
	s.finish()
}

// Close cancels the stream's remaining work and releases its shuffle
// outputs. Safe to call more than once and after exhaustion.
func (s *RowStream) Close() {
	if !s.finished {
		s.finish()
	}
}

func (s *RowStream) release() {
	if s.released {
		return
	}
	s.released = true
	memory.FromContext(s.ctx).Release(s.curBytes)
	s.cur, s.curBytes = nil, 0
	s.lazyIter = nil
	s.c.releaseShuffles(s.r, map[int]bool{})
}
