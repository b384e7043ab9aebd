package core

import (
	"fmt"

	"indexeddf/internal/rowbatch"
	"indexeddf/internal/sqltypes"
)

// Snapshot is a consistent multi-version read view of an IndexedTable:
// one published append batch. It holds, per partition, the end position of
// the published rows; readers read the live Ctrie and row batches and
// ignore every record at or above the end, so appends that happen after
// the snapshot are invisible.
// Snapshots are immutable and shared by every reader of the same batch.
type Snapshot struct {
	table   *IndexedTable
	version int64
	rows    int64
	// ends[p] bounds partition p's visible records: exactly those whose
	// packed pointer orders below it (see rowbatch.Set.End).
	ends []rowbatch.Ptr
}

// Snapshot returns the table's last published state: one atomic load.
func (t *IndexedTable) Snapshot() *Snapshot { return t.published.Load() }

// Version returns the sequence number of the batch the snapshot publishes.
func (s *Snapshot) Version() int64 { return s.version }

// Schema returns the table schema.
func (s *Snapshot) Schema() *sqltypes.Schema { return s.table.schema }

// KeyColumn returns the indexed column ordinal.
func (s *Snapshot) KeyColumn() int { return s.table.keyCol }

// NumPartitions returns the partition count.
func (s *Snapshot) NumPartitions() int { return len(s.ends) }

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
	p := s.table.partOf(key)
	ptr, err := s.head(p, key)
	if err != nil || ptr.IsNil() {
		return err
	}
	return s.ChainEachInto(p, ptr, make(sqltypes.Row, s.table.schema.Len()), fn)
}

// LookupPtr returns the packed pointer of the newest visible row for key,
// if any — the raw index probe joins use.
func (s *Snapshot) LookupPtr(p int, key sqltypes.Value) (rowbatch.Ptr, bool, error) {
	ptr, err := s.head(p, NormalizeKey(key))
	return ptr, err == nil && !ptr.IsNil(), err
}

// head returns the newest record of an already normalized key visible in
// the snapshot: the live Ctrie head, stepped back past records at or above
// partition p's end. A key first appended after the snapshot walks off
// its chain's end and reads as absent.
func (s *Snapshot) head(p int, key sqltypes.Value) (rowbatch.Ptr, error) {
	part := s.table.parts[p]
	ptr, ok := part.index.Lookup(key)
	if !ok {
		return rowbatch.Nil, nil
	}
	return part.batches.Before(ptr, s.ends[p])
}

// PartitionFor returns the partition owning key.
func (s *Snapshot) PartitionFor(key sqltypes.Value) int { return s.table.PartitionFor(key) }

// ChainEachInto walks the backward chain from ptr in partition p, decoding
// each row into the caller's buffer row, so callers probing many keys (the
// indexed joins) allocate one buffer per task instead of one per probe.
// ptr must be visible in the snapshot (as LookupPtr returns it): every
// record behind a visible one is visible too.
func (s *Snapshot) ChainEachInto(p int, ptr rowbatch.Ptr, row sqltypes.Row, fn func(sqltypes.Row) bool) error {
	var decodeErr error
	err := s.table.parts[p].batches.Chain(ptr, func(_ rowbatch.Ptr, payload []byte) bool {
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

// ScanPartition iterates partition p's rows within the snapshot in append
// order, decoding full rows into a reused buffer.
func (s *Snapshot) ScanPartition(p int, fn func(sqltypes.Row) bool) error {
	return s.scanReused(rowbatch.Nil, p, nil, s.table.schema.Len(), fn)
}

// ScanPartitionSince iterates, like ScanPartition, only the rows of
// partition p that s holds beyond prev, an older snapshot of the same
// table (nil: every row). The table is append-only, so these are exactly
// the rows appended between the two publishes; the scan starts at prev's
// end position and reads nothing before it.
func (s *Snapshot) ScanPartitionSince(prev *Snapshot, p int, fn func(sqltypes.Row) bool) error {
	from := rowbatch.Nil
	if prev != nil {
		if prev.table != s.table || prev.version > s.version {
			return fmt.Errorf("core: snapshot %d is not an older snapshot of this table", prev.version)
		}
		from = prev.ends[p]
	}
	return s.scanReused(from, p, nil, s.table.schema.Len(), fn)
}

// ScanSince streams every partition's rows that s holds beyond prev (nil:
// every row), partition by partition, to fn, stopping at the first error
// fn or the scan returns. The row is reused; decoded strings are copies,
// so values may be kept.
func (s *Snapshot) ScanSince(prev *Snapshot, fn func(sqltypes.Row) error) error {
	for p := range s.ends {
		var fnErr error
		err := s.ScanPartitionSince(prev, p, func(row sqltypes.Row) bool {
			fnErr = fn(row)
			return fnErr == nil
		})
		if err == nil {
			err = fnErr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ScanPartitionColumns iterates partition p decoding only the requested
// columns (the row-store projection path).
func (s *Snapshot) ScanPartitionColumns(p int, cols []int, fn func(sqltypes.Row) bool) error {
	return s.scanReused(rowbatch.Nil, p, cols, len(cols), fn)
}

// scanReused streams partition p's records in [from, the snapshot's end)
// to fn, decoding the cols columns into one reused row.
func (s *Snapshot) scanReused(from rowbatch.Ptr, p int, cols []int, width int, fn func(sqltypes.Row) bool) error {
	row := make(sqltypes.Row, width)
	return s.scanPayloads(from, p, func(payload []byte) (bool, error) {
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
	return s.scanPayloads(rowbatch.Nil, p, func(payload []byte) (bool, error) {
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

// scanPayloads walks partition p's row batches in append order from from
// up to the snapshot's end position, streaming each row payload to fn.
func (s *Snapshot) scanPayloads(from rowbatch.Ptr, p int, fn func(payload []byte) (bool, error)) error {
	var innerErr error
	err := s.table.parts[p].batches.Scan(from, s.ends[p], func(_ rowbatch.Ptr, payload []byte) bool {
		cont, err := fn(payload)
		if err != nil {
			innerErr = err
			return false
		}
		return cont
	})
	if err != nil {
		return err
	}
	return innerErr
}

// PartitionRowCount counts the rows visible in partition p without
// decoding them — the vectorized scan's sizing pass.
func (s *Snapshot) PartitionRowCount(p int) (int, error) {
	n := 0
	err := s.table.parts[p].batches.Scan(rowbatch.Nil, s.ends[p], func(rowbatch.Ptr, []byte) bool {
		n++
		return true
	})
	return n, err
}

// RowCount returns the number of rows visible in the snapshot.
func (s *Snapshot) RowCount() int64 { return s.rows }
