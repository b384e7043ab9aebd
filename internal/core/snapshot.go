package core

import (
	"fmt"

	"indexeddf/internal/ctrie"
	"indexeddf/internal/rowbatch"
	"indexeddf/internal/sqltypes"
)

// Snapshot is a consistent multi-version read view of an IndexedTable:
// per partition, a read-only Ctrie snapshot (O(1) to take) plus the row
// batch watermarks at snapshot time. Appends that happen after the
// snapshot are invisible: new rows live past the watermarks and are only
// reachable through index entries the frozen Ctrie does not contain.
type Snapshot struct {
	table   *IndexedTable
	version int64
	parts   []partSnapshot
}

type partSnapshot struct {
	index   *ctrie.Ctrie[sqltypes.Value, rowbatch.Ptr]
	marks   []int64
	batches *rowbatch.Set
	// changeMark is the partition's change-log sequence at snapshot time
	// (-1 when capture was off): the snapshot's visible content in this
	// partition is exactly the log prefix below changeMark, because both
	// are pinned under the same partition lock. Incremental view refresh
	// folds log records up to this mark and recomputes from this snapshot
	// without double-counting in-flight mutations.
	changeMark int64
	// deletes is the partition's delete count at snapshot time. Zero means
	// every batch row is index-reachable and scans may walk batches in
	// append order; otherwise scans walk the frozen index so deleted
	// (unreachable) rows stay invisible.
	deletes int64
}

// Snapshot pins the table's current state. Cost is O(partitions), each
// partition contributing an O(1) Ctrie snapshot and a watermark read.
func (t *IndexedTable) Snapshot() *Snapshot {
	s := &Snapshot{
		table:   t,
		version: t.version.Load(),
		parts:   make([]partSnapshot, len(t.parts)),
	}
	for i, p := range t.parts {
		p.mu.Lock() // pin a consistent (index, batches) pair across Compact
		changeMark := int64(-1)
		if t.capture.enabled.Load() {
			changeMark = p.log.mark()
		}
		s.parts[i] = partSnapshot{
			index:      p.index.ReadOnlySnapshot(),
			marks:      p.batches.Watermarks(),
			batches:    p.batches,
			changeMark: changeMark,
			deletes:    p.deletes,
		}
		p.mu.Unlock()
	}
	return s
}

// ChangeMark returns partition p's change-log sequence at snapshot time,
// or -1 when change capture was off.
func (s *Snapshot) ChangeMark(p int) int64 { return s.parts[p].changeMark }

// Version returns the table version the snapshot was taken at.
func (s *Snapshot) Version() int64 { return s.version }

// Schema returns the table schema.
func (s *Snapshot) Schema() *sqltypes.Schema { return s.table.schema }

// KeyColumn returns the indexed column ordinal.
func (s *Snapshot) KeyColumn() int { return s.table.keyCol }

// NumPartitions returns the partition count.
func (s *Snapshot) NumPartitions() int { return len(s.parts) }

// GetRows returns every row bound to key, newest first — the paper's point
// lookup (`indexedDF.getRows(key)`): one Ctrie lookup followed by a walk of
// the backward chain.
func (s *Snapshot) GetRows(key sqltypes.Value) ([]sqltypes.Row, error) {
	var out []sqltypes.Row
	err := s.LookupEach(key, func(row sqltypes.Row) bool {
		out = append(out, row.Clone())
		return true
	})
	return out, err
}

// LookupEach streams the rows bound to key, newest first, without
// materializing. The callback's row is reused; clone to retain.
func (s *Snapshot) LookupEach(key sqltypes.Value, fn func(sqltypes.Row) bool) error {
	key = NormalizeKey(key)
	p := s.table.PartitionFor(key)
	ptr, ok := s.parts[p].index.Lookup(key)
	if !ok {
		return nil
	}
	row := make(sqltypes.Row, s.table.schema.Len())
	return s.parts[p].batches.Chain(ptr, func(_ rowbatch.Ptr, payload []byte) bool {
		if err := s.table.codec.DecodeInto(payload, row); err != nil {
			return false
		}
		return fn(row)
	})
}

// LookupPtr returns the packed pointer of the newest row for key, if any —
// the raw index probe joins use.
func (s *Snapshot) LookupPtr(p int, key sqltypes.Value) (rowbatch.Ptr, bool) {
	return s.parts[p].index.Lookup(NormalizeKey(key))
}

// PartitionFor returns the partition owning key.
func (s *Snapshot) PartitionFor(key sqltypes.Value) int { return s.table.PartitionFor(key) }

// ChainEachInto walks the backward chain from ptr in partition p, decoding
// each row into the caller's buffer row, so callers probing many keys (the
// indexed joins) allocate one buffer per task instead of one per probe.
func (s *Snapshot) ChainEachInto(p int, ptr rowbatch.Ptr, row sqltypes.Row, fn func(sqltypes.Row) bool) error {
	var decodeErr error
	err := s.parts[p].batches.Chain(ptr, func(_ rowbatch.Ptr, payload []byte) bool {
		if err := s.table.codec.DecodeInto(payload, row); err != nil {
			decodeErr = err
			return false
		}
		return fn(row)
	})
	if err != nil {
		return err
	}
	return decodeErr
}

// ScanPartition iterates partition p's visible rows within the snapshot,
// decoding full rows into a reused buffer. Partitions untouched by Delete
// stream their batches in append order; otherwise the scan walks the
// frozen index (trie order, chains newest first) so rows made unreachable
// by Delete stay invisible to queries until compaction reclaims them.
func (s *Snapshot) ScanPartition(p int, fn func(sqltypes.Row) bool) error {
	return s.scanReused(p, nil, s.table.schema.Len(), fn)
}

// ScanPartitionColumns iterates partition p decoding only the requested
// columns (the row-store projection path).
func (s *Snapshot) ScanPartitionColumns(p int, cols []int, fn func(sqltypes.Row) bool) error {
	return s.scanReused(p, cols, len(cols), fn)
}

func (s *Snapshot) scanReused(p int, cols []int, width int, fn func(sqltypes.Row) bool) error {
	row := make(sqltypes.Row, width)
	return s.scanPayloads(p, func(payload []byte) (bool, error) {
		if err := s.decode(payload, cols, row); err != nil {
			return false, err
		}
		return fn(row), nil
	})
}

// ScanPartitionInto is ScanPartitionColumns (cols nil: every column)
// decoding each row straight into a row the caller supplies, so a scan that
// keeps its rows decodes each payload once, into its final place. next
// returns the row the following payload decodes into, or nil to stop.
func (s *Snapshot) ScanPartitionInto(p int, cols []int, next func() sqltypes.Row) error {
	return s.scanPayloads(p, func(payload []byte) (bool, error) {
		row := next()
		if row == nil {
			return false, nil
		}
		return true, s.decode(payload, cols, row)
	})
}

// decode decodes the cols columns of payload (every column when cols is
// nil) into row.
func (s *Snapshot) decode(payload []byte, cols []int, row sqltypes.Row) error {
	if cols == nil {
		return s.table.codec.DecodeInto(payload, row)
	}
	for i, c := range cols {
		v, err := s.table.codec.DecodeColumn(payload, c)
		if err != nil {
			return err
		}
		row[i] = v
	}
	return nil
}

// scanPayloads drives a partition scan over the visible row payloads,
// picking the append-order batch walk when every row is reachable and the
// index walk otherwise.
func (s *Snapshot) scanPayloads(p int, fn func(payload []byte) (bool, error)) error {
	var innerErr error
	visit := func(payload []byte) bool {
		cont, err := fn(payload)
		if err != nil {
			innerErr = err
			return false
		}
		return cont
	}
	var err error
	if s.parts[p].deletes == 0 {
		err = s.parts[p].batches.Scan(s.parts[p].marks, func(_ rowbatch.Ptr, payload []byte) bool {
			return visit(payload)
		})
	} else {
		err = s.scanReachable(p, visit)
	}
	if err != nil {
		return err
	}
	return innerErr
}

// scanReachable walks partition p's frozen index, streaming every payload
// reachable through a chain. Stops early when visit returns false.
func (s *Snapshot) scanReachable(p int, visit func(payload []byte) bool) error {
	var chainErr error
	stopped := false
	s.parts[p].index.Iterate(func(_ sqltypes.Value, head rowbatch.Ptr) bool {
		err := s.parts[p].batches.Chain(head, func(_ rowbatch.Ptr, payload []byte) bool {
			if !visit(payload) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil {
			chainErr = err
			return false
		}
		return !stopped
	})
	return chainErr
}

// PartitionRowCount counts the rows visible in partition p without
// decoding them — the vectorized scan's sizing pass.
func (s *Snapshot) PartitionRowCount(p int) (int, error) {
	n := 0
	if s.parts[p].deletes == 0 {
		err := s.parts[p].batches.Scan(s.parts[p].marks, func(rowbatch.Ptr, []byte) bool {
			n++
			return true
		})
		return n, err
	}
	err := s.scanReachable(p, func([]byte) bool { n++; return true })
	return n, err
}

// RowCount counts the rows visible in the snapshot. O(partitions x rows).
func (s *Snapshot) RowCount() (int64, error) {
	var n int64
	for p := range s.parts {
		pn, err := s.PartitionRowCount(p)
		if err != nil {
			return 0, err
		}
		n += int64(pn)
	}
	return n, nil
}

// IterateKeys streams the distinct keys of partition p with the pointer of
// their newest row.
func (s *Snapshot) IterateKeys(p int, fn func(key sqltypes.Value, head rowbatch.Ptr) bool) {
	s.parts[p].index.Iterate(func(k sqltypes.Value, v rowbatch.Ptr) bool { return fn(k, v) })
}

// Validate cross-checks snapshot invariants (every index pointer resolves
// within the watermarks and its row's key matches); used by tests and the
// failure-injection suite.
func (s *Snapshot) Validate() error {
	for p := range s.parts {
		var fail error
		s.parts[p].index.Iterate(func(k sqltypes.Value, head rowbatch.Ptr) bool {
			err := s.parts[p].batches.Chain(head, func(ptr rowbatch.Ptr, payload []byte) bool {
				if ptr.Batch() >= len(s.parts[p].marks) ||
					int64(ptr.Offset())+int64(ptr.Size()) > s.parts[p].marks[ptr.Batch()] {
					fail = fmt.Errorf("core: key %v points past snapshot watermark", k)
					return false
				}
				v, err := s.table.codec.DecodeColumn(payload, s.table.keyCol)
				if err != nil {
					fail = err
					return false
				}
				if !sqltypes.Equal(v, k) && !(v.IsNull() && k.IsNull()) {
					fail = fmt.Errorf("core: chain of key %v contains row keyed %v", k, v)
					return false
				}
				return true
			})
			if err != nil && fail == nil {
				fail = err
			}
			return fail == nil
		})
		if fail != nil {
			return fail
		}
	}
	return nil
}
