package core

import (
	"indexeddf/internal/sqltypes"
)

// Change capture: the hook incremental materialized views maintain
// themselves from. When capture is enabled, every partition keeps an
// ordered log of append records. Records are value-based (they store the
// appended rows, not row-batch pointers). A log breaks only when capture is
// turned off; consumers detect the break and fall back to full recompute.
//
// The writer appends a batch's records before it publishes the batch, and
// publishes each partition's change mark (the sequence after its last
// record) in the same snapshot as the partition's end position. So a
// snapshot's visible content in partition p is EXACTLY the prefix of p's
// log below its mark: delta consumers that fold log records up to a
// snapshot's marks and recompute from that same snapshot can never
// double-count or miss an append. The capture switches take the writer
// mutex and republish, so capture never changes inside a batch.

// Change is one change record: the rows one append added to a partition,
// as private clones.
type Change struct {
	Rows []sqltypes.Row
}

// partLog is one partition's change log. All fields are guarded by the
// table's logMu.
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

// EnableChangeCapture turns on change logging for all partitions. It is
// idempotent and cheap; tables without views never pay for capture.
// Consumers must enable capture BEFORE snapshotting for their initial
// build: every snapshot taken after the call returns carries change marks,
// and records below them are already reflected in the snapshot.
func (t *IndexedTable) EnableChangeCapture() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.published.Load().capturing() {
		t.republishMarks(true)
	}
}

// ChangeCaptureEnabled reports whether mutations are being logged.
func (t *IndexedTable) ChangeCaptureEnabled() bool { return t.published.Load().capturing() }

// DisableChangeCapture turns logging back off and discards every retained
// record (the catalog calls it when a table's last materialized view is
// dropped, so capture never costs memory without a consumer). Any
// consumer that somehow still holds a cursor observes a log gap and falls
// back to full recompute.
func (t *IndexedTable) DisableChangeCapture() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.logMu.Lock()
	for _, part := range t.parts {
		// The mark advances past a phantom record so every cursor taken
		// before the break reads as out of range.
		part.log.floor = part.log.mark() + 1
		part.log.entries = nil
	}
	t.logMu.Unlock()
	t.republishMarks(false)
}

// republishMarks publishes the current content again with change marks
// (capture on) or without them (off). Caller holds mu.
func (t *IndexedTable) republishMarks(capture bool) {
	next := *t.published.Load()
	next.marks = nil
	if capture {
		next.marks = t.marks()
	}
	t.published.Store(&next)
}

// marks returns every partition's current change mark.
func (t *IndexedTable) marks() []int64 {
	t.logMu.Lock()
	defer t.logMu.Unlock()
	out := make([]int64, len(t.parts))
	for p, part := range t.parts {
		out[p] = part.log.mark()
	}
	return out
}

// logBatch records a staged batch as one change per partition it touches
// and returns the change marks after it. Caller holds mu.
func (t *IndexedTable) logBatch(rows []sqltypes.Row) []int64 {
	perPart := make([][]sqltypes.Row, len(t.parts))
	for _, row := range rows {
		p := t.partOf(NormalizeKey(row[t.keyCol]))
		perPart[p] = append(perPart[p], row.Clone())
	}
	t.logMu.Lock()
	defer t.logMu.Unlock()
	out := make([]int64, len(t.parts))
	for p, part := range t.parts {
		if len(perPart[p]) > 0 {
			part.log.entries = append(part.log.entries, Change{Rows: perPart[p]})
		}
		out[p] = part.log.mark()
	}
	return out
}

// ChangesBetween returns partition p's change records with sequence numbers
// in [from, to). ok is false when the log no longer reaches back to from
// (capture was off or records were pruned) — the caller must rebuild from a
// snapshot instead of folding a delta.
func (t *IndexedTable) ChangesBetween(p int, from, to int64) (changes []Change, ok bool) {
	t.logMu.Lock()
	defer t.logMu.Unlock()
	l := &t.parts[p].log
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
	t.logMu.Lock()
	defer t.logMu.Unlock()
	return t.parts[p].log.mark()
}

// PruneChanges discards partition p's records below seq (exclusive), once
// every consumer has folded past them; it keeps the log's memory bounded.
// Pruning never invalidates cursors at or above seq.
func (t *IndexedTable) PruneChanges(p int, seq int64) {
	t.logMu.Lock()
	defer t.logMu.Unlock()
	l := &t.parts[p].log
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
	t.logMu.Lock()
	defer t.logMu.Unlock()
	var n int64
	for _, part := range t.parts {
		n += int64(len(part.log.entries))
	}
	return n
}
