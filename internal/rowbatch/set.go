package rowbatch

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultBatchSize is the paper's 4 MB row-batch size (minus slack so every
// record offset stays addressable by the 22-bit packed offset field).
const DefaultBatchSize = 4<<20 - 64

// recordHeader is the per-record overhead: an 8-byte backward pointer and a
// 4-byte payload length.
const recordHeader = 12

// batch is one append-only binary buffer. Bytes below the used watermark
// are immutable and safe for lock-free concurrent reads.
type batch struct {
	buf  []byte
	used atomic.Int64
}

// directory is the immutable list of batches; it is replaced wholesale
// (copy-on-write) when a batch is added so readers can load it without
// locks.
type directory struct {
	batches []*batch
}

// Set is a growable set of row batches. One writer at a time may append
// (Append takes an internal lock); any number of readers may concurrently
// Read, Chain, or Scan up to an End position.
type Set struct {
	mu        sync.Mutex
	batchSize int
	dir       atomic.Pointer[directory]
	rows      atomic.Int64
	bytes     atomic.Int64
}

// NewSet returns an empty Set with the given batch size; sizes outside
// (recordHeader, MaxBatchBytes] fall back to DefaultBatchSize.
func NewSet(batchSize int) *Set {
	if batchSize <= recordHeader || batchSize > MaxBatchBytes {
		batchSize = DefaultBatchSize
	}
	s := &Set{batchSize: batchSize}
	s.dir.Store(&directory{})
	return s
}

// NumRows returns the number of rows ever appended.
func (s *Set) NumRows() int64 { return s.rows.Load() }

// NumBatches returns the number of allocated batches.
func (s *Set) NumBatches() int { return len(s.dir.Load().batches) }

// MemoryUsage returns the bytes reserved by all batches.
func (s *Set) MemoryUsage() int64 {
	d := s.dir.Load()
	var n int64
	for _, b := range d.batches {
		n += int64(cap(b.buf))
	}
	return n
}

// DataBytes returns the bytes of payload (plus headers) actually written.
func (s *Set) DataBytes() int64 { return s.bytes.Load() }

// Check reports why a payload of n bytes cannot be appended, or nil when
// it can: callers that must apply a batch whole check every row first.
func (s *Set) Check(n int) error {
	if n > MaxRowSize {
		return fmt.Errorf("rowbatch: row of %d bytes exceeds max %d", n, MaxRowSize)
	}
	if rec := recordHeader + n; rec > s.batchSize {
		return fmt.Errorf("rowbatch: record of %d bytes exceeds batch size %d", rec, s.batchSize)
	}
	return nil
}

// Append writes one row payload with its backward pointer and returns the
// packed pointer to the new record. Safe for concurrent use; appends are
// serialized internally.
func (s *Set) Append(prev Ptr, payload []byte) (Ptr, error) {
	if err := s.Check(len(payload)); err != nil {
		return Nil, err
	}
	rec := recordHeader + len(payload)
	s.mu.Lock()
	defer s.mu.Unlock()

	d := s.dir.Load()
	var b *batch
	if n := len(d.batches); n > 0 {
		last := d.batches[n-1]
		if int(last.used.Load())+rec <= s.batchSize {
			b = last
		}
	}
	if b == nil {
		if len(d.batches) >= MaxBatches {
			return Nil, fmt.Errorf("rowbatch: partition exceeds %d batches", MaxBatches)
		}
		b = &batch{buf: make([]byte, s.batchSize)}
		nd := &directory{batches: make([]*batch, len(d.batches)+1)}
		copy(nd.batches, d.batches)
		nd.batches[len(d.batches)] = b
		s.dir.Store(nd)
		d = nd
	}
	off := int(b.used.Load())
	binary.LittleEndian.PutUint64(b.buf[off:], uint64(prev))
	binary.LittleEndian.PutUint32(b.buf[off+8:], uint32(len(payload)))
	copy(b.buf[off+recordHeader:], payload)
	// Publish: readers only look below the watermark, so the body must be
	// fully written before the store.
	b.used.Store(int64(off + rec))
	s.rows.Add(1)
	s.bytes.Add(int64(rec))
	return MakePtr(len(d.batches)-1, off, len(payload))
}

// Read dereferences a packed pointer, returning the record's backward
// pointer and its payload. The payload aliases the batch buffer and must
// not be modified; it remains valid forever (batches are append-only).
func (s *Set) Read(p Ptr) (prev Ptr, payload []byte, err error) {
	if p.IsNil() {
		return Nil, nil, fmt.Errorf("rowbatch: read of nil pointer")
	}
	d := s.dir.Load()
	bi := p.Batch()
	if bi >= len(d.batches) {
		return Nil, nil, fmt.Errorf("rowbatch: batch %d out of range (%d batches)", bi, len(d.batches))
	}
	b := d.batches[bi]
	off := p.Offset()
	if int64(off+recordHeader+p.Size()) > b.used.Load() {
		return Nil, nil, fmt.Errorf("rowbatch: pointer %v beyond watermark", p)
	}
	prev = Ptr(binary.LittleEndian.Uint64(b.buf[off:]))
	n := int(binary.LittleEndian.Uint32(b.buf[off+8:]))
	if n != p.Size() {
		return Nil, nil, fmt.Errorf("rowbatch: pointer size %d disagrees with record %d", p.Size(), n)
	}
	return prev, b.buf[off+recordHeader : off+recordHeader+n], nil
}

// Chain walks the backward chain starting at p, invoking fn for each record
// (newest first) until the chain ends or fn returns false.
func (s *Set) Chain(p Ptr, fn func(ptr Ptr, payload []byte) bool) error {
	for !p.IsNil() {
		prev, payload, err := s.Read(p)
		if err != nil {
			return err
		}
		if !fn(p, payload) {
			return nil
		}
		p = prev
	}
	return nil
}

// End returns the set's end position: every record appended so far packs
// to a Ptr below it and every later record to one at or above it, so it
// names the multi-version read view of a consistent prefix. Call it from
// the appending goroutine (or with appends quiesced) to cover every record.
func (s *Set) End() Ptr {
	d := s.dir.Load()
	n := len(d.batches)
	if n == 0 {
		return Nil
	}
	return endPtr(n-1, int(d.batches[n-1].used.Load()))
}

// Before steps back along p's chain to its newest record below end, or Nil
// when the whole chain lies at or above it: the head a reader at end sees.
func (s *Set) Before(p, end Ptr) (Ptr, error) {
	for !p.IsNil() && p >= end {
		prev, _, err := s.Read(p)
		if err != nil {
			return Nil, err
		}
		p = prev
	}
	return p, nil
}

// Scan iterates the records in [from, end) — both positions as returned
// by End, from Nil for the start — in append order, invoking fn with each
// record's packed pointer and payload until fn returns false. It starts
// at from's batch and offset, so a scan of a recent range costs that
// range, not the whole set.
func (s *Set) Scan(from, end Ptr, fn func(ptr Ptr, payload []byte) bool) error {
	d := s.dir.Load()
	// A bound at a full batch's end names the next batch's start, so
	// starting there and finding no record carries the scan over.
	bi, off := from.Batch(), max(from.Offset(), 0)
	for ; bi < len(d.batches); bi, off = bi+1, 0 {
		b := d.batches[bi]
		limit := b.used.Load()
		for int64(off) < limit {
			sz := int(binary.LittleEndian.Uint32(b.buf[off+8:]))
			p, err := MakePtr(bi, off, sz)
			if err != nil {
				return err
			}
			if p >= end || !fn(p, b.buf[off+recordHeader:off+recordHeader+sz]) {
				return nil
			}
			off += recordHeader + sz
		}
	}
	return nil
}
