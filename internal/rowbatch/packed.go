// Package rowbatch implements the Indexed DataFrame partition storage: a
// growable set of append-only binary row batches addressed by packed 64-bit
// pointers, with per-key backward chains threaded through the rows.
//
// The paper (§2, "The Indexed Row-Batch RDD") stores rows in collections of
// binary arrays of about 4 MB; the cTrie maps a key to a packed, dense
// 64-bit number identifying the latest row for that key, and every row
// carries a backward pointer to the previous row sharing its key, forming
// one linked list per distinct key.
package rowbatch

import "fmt"

// Packed-pointer layout (64 bits total):
//
//	[ batch : 28 bits ][ offset+1 : 22 bits ][ size : 14 bits ]
//
// offset is stored +1 so that the all-zero word can serve as the nil
// sentinel that terminates a backward chain. size records the byte size of
// the row the pointer refers to (the paper packs the size of the previous
// row on the chain; storing the pointee's size is equivalent and lets a
// single pointer be dereferenced without consulting the chain).
//
// The paper assumes rows of up to 1 KB, up to 2^31 batches of up to 4 MB.
// Our 28-bit batch field trades three batch bits for an in-word size and
// the nil sentinel; a partition still addresses 2^28 x 4 MiB = 1 PiB.
const (
	sizeBits   = 14
	offsetBits = 22
	batchBits  = 28

	// MaxRowSize is the largest encodable row (16 KiB - 1).
	MaxRowSize = 1<<sizeBits - 1
	// MaxBatchBytes is the addressable bytes within one batch.
	MaxBatchBytes = 1<<offsetBits - 1
	// MaxBatches is the largest number of batches per partition.
	MaxBatches = 1 << batchBits
)

// Ptr is a packed 64-bit row pointer. The zero Ptr is Nil.
type Ptr uint64

// Nil is the null pointer terminating a backward chain.
const Nil Ptr = 0

// MakePtr packs (batch, offset, size) into a Ptr.
func MakePtr(batch int, offset int, size int) (Ptr, error) {
	if batch < 0 || batch >= MaxBatches {
		return Nil, fmt.Errorf("rowbatch: batch %d out of range", batch)
	}
	if offset < 0 || offset >= MaxBatchBytes {
		return Nil, fmt.Errorf("rowbatch: offset %d out of range", offset)
	}
	if size <= 0 || size > MaxRowSize {
		return Nil, fmt.Errorf("rowbatch: row size %d out of range (max %d)", size, MaxRowSize)
	}
	return Ptr(uint64(batch)<<(offsetBits+sizeBits) |
		uint64(offset+1)<<sizeBits |
		uint64(size)), nil
}

// endPtr is the position just past byte used of batch bi: records before
// it in append order pack to smaller Ptrs (batch, then offset, are the
// high fields; the size bits stay zero), later ones to larger. A full
// batch's bound carries into the next batch's, which orders the same.
func endPtr(bi, used int) Ptr {
	return Ptr(uint64(bi)<<(offsetBits+sizeBits) + uint64(used+1)<<sizeBits)
}

// IsNil reports whether p is the null pointer.
func (p Ptr) IsNil() bool { return p == Nil }

// Batch returns the batch number.
func (p Ptr) Batch() int { return int(uint64(p) >> (offsetBits + sizeBits)) }

// Offset returns the byte offset within the batch.
func (p Ptr) Offset() int {
	return int(uint64(p)>>sizeBits&(1<<offsetBits-1)) - 1
}

// Size returns the byte size of the row the pointer refers to.
func (p Ptr) Size() int { return int(uint64(p) & (1<<sizeBits - 1)) }

// String renders the pointer for debugging.
func (p Ptr) String() string {
	if p.IsNil() {
		return "rowptr(nil)"
	}
	return fmt.Sprintf("rowptr(batch=%d off=%d size=%d)", p.Batch(), p.Offset(), p.Size())
}
