package core

import (
	"sync/atomic"

	"indexeddf/internal/sqltypes"
)

// Change capture: the hook incremental materialized views maintain
// themselves from. When capture is enabled, every partition keeps an
// ordered log of append records. Records are value-based (they store the
// appended rows, not row-batch pointers). A log breaks only when an append
// fails part-way or capture is turned off; consumers detect the break and
// fall back to full recompute.
//
// The log is per partition and is appended while holding the same partition
// lock that guards the physical append. A Snapshot records, under that
// same lock, the log sequence number alongside the row-batch watermarks —
// so a snapshot's visible content in partition p is EXACTLY the prefix of
// p's log up to the recorded mark. Delta consumers that fold log records up
// to a snapshot's marks and recompute from that same snapshot can never
// double-count or miss an in-flight append.

// Change is one change record: the rows one append added to a partition,
// as private clones.
type Change struct {
	Rows []sqltypes.Row
}

// partLog is one partition's change log. All fields are guarded by the
// owning Partition's mutex.
type partLog struct {
	// floor is the absolute sequence number of entries[0]; records below it
	// have been pruned or invalidated.
	floor int64
	// entries are the retained records; record i has absolute sequence
	// floor+i. A record's sequence number orders it within the partition;
	// the sequence AFTER the last record (floor+len) is the partition's
	// change mark.
	entries []Change
}

func (l *partLog) mark() int64 { return l.floor + int64(len(l.entries)) }

// changeCapture is the table-level switch plus counters.
type changeCapture struct {
	enabled atomic.Bool
}

// EnableChangeCapture turns on change logging for all partitions. It is
// idempotent and cheap; tables without views never pay for capture.
// Consumers must enable capture BEFORE snapshotting for their initial
// build: records logged after the enable and before the snapshot are
// already reflected in the snapshot and are skipped via its change marks.
func (t *IndexedTable) EnableChangeCapture() { t.capture.enabled.Store(true) }

// ChangeCaptureEnabled reports whether mutations are being logged.
func (t *IndexedTable) ChangeCaptureEnabled() bool { return t.capture.enabled.Load() }

// DisableChangeCapture turns logging back off and discards every retained
// record (the catalog calls it when a table's last materialized view is
// dropped, so capture never costs memory without a consumer). Any
// consumer that somehow still holds a cursor observes a log gap and falls
// back to full recompute.
func (t *IndexedTable) DisableChangeCapture() {
	t.capture.enabled.Store(false)
	for _, part := range t.parts {
		part.mu.Lock()
		t.invalidateLogLocked(part)
		part.mu.Unlock()
	}
}

// logAppendLocked records appended rows for partition p. Caller holds the
// partition lock and has already applied the append. Returns with the
// global version bumped.
func (t *IndexedTable) logAppendLocked(part *Partition, rows []sqltypes.Row) {
	t.version.Add(1)
	clones := make([]sqltypes.Row, len(rows))
	for i, r := range rows {
		clones[i] = r.Clone()
	}
	part.log.entries = append(part.log.entries, Change{Rows: clones})
}

// invalidateLogLocked breaks partition p's log when its content changed
// without a record (a partially failed append, or capture turned off): the
// mark advances past a phantom record so every cursor taken before the
// break reads as out of range, forcing consumers to full recompute. Caller
// holds the partition lock.
func (t *IndexedTable) invalidateLogLocked(part *Partition) {
	part.log.floor = part.log.mark() + 1
	part.log.entries = nil
}

// ChangesBetween returns partition p's change records with sequence numbers
// in [from, to). ok is false when the log no longer reaches back to from
// (capture was off, records were pruned, or a failed append broke the log) —
// the caller must rebuild from a snapshot instead of folding a delta.
func (t *IndexedTable) ChangesBetween(p int, from, to int64) (changes []Change, ok bool) {
	part := t.parts[p]
	part.mu.Lock()
	defer part.mu.Unlock()
	l := &part.log
	if from < l.floor || from > l.mark() || to > l.mark() {
		return nil, false
	}
	if to < from {
		return nil, false
	}
	if from == to {
		return nil, true
	}
	out := make([]Change, to-from)
	copy(out, l.entries[from-l.floor:to-l.floor])
	return out, true
}

// ChangeMark returns partition p's current change-log sequence mark.
func (t *IndexedTable) ChangeMark(p int) int64 {
	part := t.parts[p]
	part.mu.Lock()
	defer part.mu.Unlock()
	return part.log.mark()
}

// PruneChanges discards partition p's records below seq (exclusive), once
// every consumer has folded past them; it keeps the log's memory bounded.
// Pruning never invalidates cursors at or above seq.
func (t *IndexedTable) PruneChanges(p int, seq int64) {
	part := t.parts[p]
	part.mu.Lock()
	defer part.mu.Unlock()
	l := &part.log
	if seq <= l.floor {
		return
	}
	if seq > l.mark() {
		seq = l.mark()
	}
	l.entries = l.entries[seq-l.floor:]
	l.floor = seq
}

// ChangeLogSize reports the total retained change records across
// partitions (observability and tests).
func (t *IndexedTable) ChangeLogSize() int64 {
	var n int64
	for _, part := range t.parts {
		part.mu.Lock()
		n += int64(len(part.log.entries))
		part.mu.Unlock()
	}
	return n
}
