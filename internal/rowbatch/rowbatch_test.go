package rowbatch

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestPtrPackUnpack(t *testing.T) {
	cases := []struct{ batch, off, size int }{
		{0, 0, 1},
		{0, 0, MaxRowSize},
		{MaxBatches - 1, MaxBatchBytes - 1, 1},
		{12345, 999999, 1024},
	}
	for _, c := range cases {
		p, err := MakePtr(c.batch, c.off, c.size)
		if err != nil {
			t.Fatalf("MakePtr(%v): %v", c, err)
		}
		if p.IsNil() {
			t.Fatalf("MakePtr(%v) returned nil pointer", c)
		}
		if p.Batch() != c.batch || p.Offset() != c.off || p.Size() != c.size {
			t.Fatalf("round trip %v -> (%d,%d,%d)", c, p.Batch(), p.Offset(), p.Size())
		}
	}
}

func TestPtrRanges(t *testing.T) {
	bad := []struct{ batch, off, size int }{
		{-1, 0, 1},
		{MaxBatches, 0, 1},
		{0, -1, 1},
		{0, MaxBatchBytes, 1},
		{0, 0, 0},
		{0, 0, MaxRowSize + 1},
	}
	for _, c := range bad {
		if _, err := MakePtr(c.batch, c.off, c.size); err == nil {
			t.Errorf("MakePtr(%v) should fail", c)
		}
	}
	if !Nil.IsNil() {
		t.Error("Nil.IsNil() = false")
	}
	if Nil.String() != "rowptr(nil)" {
		t.Errorf("Nil.String() = %q", Nil.String())
	}
}

func TestPtrQuickRoundTrip(t *testing.T) {
	f := func(b, o, s uint32) bool {
		batch := int(b % MaxBatches)
		off := int(o % MaxBatchBytes)
		size := int(s%MaxRowSize) + 1
		p, err := MakePtr(batch, off, size)
		if err != nil {
			return false
		}
		return p.Batch() == batch && p.Offset() == off && p.Size() == size && !p.IsNil()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAppendRead(t *testing.T) {
	s := NewSet(256) // tiny batches to force growth
	var ptrs []Ptr
	var prev Ptr
	for i := 0; i < 100; i++ {
		payload := []byte(fmt.Sprintf("row-%03d", i))
		p, err := s.Append(prev, payload)
		if err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
		ptrs = append(ptrs, p)
		prev = p
	}
	if s.NumRows() != 100 {
		t.Fatalf("NumRows = %d", s.NumRows())
	}
	if s.NumBatches() < 2 {
		t.Fatalf("expected multiple batches, got %d", s.NumBatches())
	}
	for i, p := range ptrs {
		gotPrev, payload, err := s.Read(p)
		if err != nil {
			t.Fatalf("Read(%v): %v", p, err)
		}
		want := fmt.Sprintf("row-%03d", i)
		if string(payload) != want {
			t.Fatalf("payload %d = %q, want %q", i, payload, want)
		}
		if i == 0 && !gotPrev.IsNil() {
			t.Fatal("first record should have nil prev")
		}
		if i > 0 && gotPrev != ptrs[i-1] {
			t.Fatalf("record %d prev = %v, want %v", i, gotPrev, ptrs[i-1])
		}
	}
}

func TestChainWalksNewestFirst(t *testing.T) {
	s := NewSet(0)
	var head Ptr
	for i := 0; i < 10; i++ {
		p, err := s.Append(head, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		head = p
	}
	var got []byte
	if err := s.Chain(head, func(_ Ptr, payload []byte) bool {
		got = append(got, payload[0])
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}
	if !bytes.Equal(got, want) {
		t.Fatalf("chain order = %v, want %v", got, want)
	}
	// Early stop.
	n := 0
	if err := s.Chain(head, func(Ptr, []byte) bool { n++; return n < 3 }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestScanAppendOrder(t *testing.T) {
	s := NewSet(128)
	for i := 0; i < 50; i++ {
		if _, err := s.Append(Nil, []byte{byte(i), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []byte
	if err := s.Scan(Nil, s.End(), func(_ Ptr, payload []byte) bool {
		got = append(got, payload[0])
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("scan saw %d records", len(got))
	}
	for i, b := range got {
		if int(b) != i {
			t.Fatalf("scan order broken at %d: %d", i, b)
		}
	}
}

// TestScanRange scans [from, end) on a set whose 64-byte batches hold
// three 20-byte records each. Every byte below from is zeroed first, so a
// scan that walked the set from its start, instead of jumping to from,
// would trip over a zero-size record; the records it yields are exactly
// those in the range.
func TestScanRange(t *testing.T) {
	const n = 12
	cases := []struct {
		name string
		from int // records appended before from was taken
	}{
		{"nil", 0},
		{"mid-batch", 4},
		{"full-batch-end", 6},
		{"from-is-end", n},
	}
	for _, c := range cases {
		s := NewSet(64)
		ends := []Ptr{s.End()}
		for i := 0; i < n; i++ {
			if _, err := s.Append(Nil, []byte{byte(i), 0, 0, 0, 0, 0, 0, 0}); err != nil {
				t.Fatal(err)
			}
			ends = append(ends, s.End())
		}
		from := ends[c.from]
		switch c.name {
		case "nil":
			if from != Nil {
				t.Fatalf("empty set's end = %v", from)
			}
		case "full-batch-end":
			// Records 3-5 fill batch 1; record 6 opened batch 2.
			if from.Batch() != 1 || from.Offset() != 60 || ends[c.from+1].Batch() != 2 {
				t.Fatalf("from = %v, next end %v: batch 1 is not full", from, ends[c.from+1])
			}
		}
		for bi, b := range s.dir.Load().batches {
			if bi < from.Batch() {
				clear(b.buf)
			} else if bi == from.Batch() {
				clear(b.buf[:max(from.Offset(), 0)])
			}
		}
		var got []int
		if err := s.Scan(from, ends[n], func(_ Ptr, payload []byte) bool {
			got = append(got, int(payload[0]))
			return true
		}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(got) != n-c.from {
			t.Fatalf("%s: scan yielded %d records %v, want %d", c.name, len(got), got, n-c.from)
		}
		for i, id := range got {
			if id != c.from+i {
				t.Fatalf("%s: record %d is %d, want %d", c.name, i, id, c.from+i)
			}
		}
	}
}

func TestWatermarkSnapshotHidesLaterAppends(t *testing.T) {
	s := NewSet(128)
	if s.End() != Nil {
		t.Fatal("empty set has a non-nil end")
	}
	var head Ptr
	for i := 0; i < 20; i++ {
		p, err := s.Append(head, []byte{1})
		if err != nil {
			t.Fatal(err)
		}
		head = p
	}
	end := s.End()
	for i := 0; i < 30; i++ {
		p, err := s.Append(head, []byte{2})
		if err != nil {
			t.Fatal(err)
		}
		if p < end {
			t.Fatalf("record %v appended after end %v orders below it", p, end)
		}
		head = p
	}
	n := 0
	if err := s.Scan(Nil, end, func(p Ptr, payload []byte) bool {
		if payload[0] != 1 || p >= end {
			t.Fatal("scan to an earlier end observed a later row")
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("scan to end saw %d rows, want 20", n)
	}
	// Before steps the live head back to the newest record below end.
	at, err := s.Before(head, end)
	if err != nil {
		t.Fatal(err)
	}
	if _, payload, err := s.Read(at); err != nil || payload[0] != 1 {
		t.Fatalf("Before(head, end) = %v, %v; want the 20th row", at, err)
	}
	if p, err := s.Before(head, Nil); err != nil || p != Nil {
		t.Fatalf("Before(head, Nil) = %v, %v; want Nil", p, err)
	}
	// A fresh end sees everything.
	total := 0
	if err := s.Scan(Nil, s.End(), func(Ptr, []byte) bool { total++; return true }); err != nil {
		t.Fatal(err)
	}
	if total != 50 {
		t.Fatalf("full scan saw %d rows, want 50", total)
	}
}

// TestEndOfFullBatchOrders pins the bound of a batch filled to the last
// addressable byte: its end carries into the next batch's field and still
// orders after every record of the full batch and before the next batch's.
func TestEndOfFullBatchOrders(t *testing.T) {
	last, err := MakePtr(3, MaxBatchBytes-1, 1)
	if err != nil {
		t.Fatal(err)
	}
	next, err := MakePtr(4, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	end := endPtr(3, MaxBatchBytes)
	if !(last < end && end < next) {
		t.Fatalf("end %v does not separate %v from %v", end, last, next)
	}
}

func TestAppendErrors(t *testing.T) {
	s := NewSet(64)
	if _, err := s.Append(Nil, make([]byte, MaxRowSize+1)); err == nil {
		t.Error("oversized row accepted")
	}
	if _, err := s.Append(Nil, make([]byte, 60)); err == nil {
		t.Error("record larger than batch accepted")
	}
	if _, _, err := s.Read(Nil); err == nil {
		t.Error("Read(Nil) should fail")
	}
	p, _ := MakePtr(99, 0, 5)
	if _, _, err := s.Read(p); err == nil {
		t.Error("Read of out-of-range batch should fail")
	}
}

func TestMemoryAccounting(t *testing.T) {
	s := NewSet(1024)
	if s.MemoryUsage() != 0 {
		t.Fatal("empty set reports memory")
	}
	if _, err := s.Append(Nil, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if s.MemoryUsage() != 1024 {
		t.Fatalf("MemoryUsage = %d, want 1024", s.MemoryUsage())
	}
	if s.DataBytes() != recordHeader+1 {
		t.Fatalf("DataBytes = %d", s.DataBytes())
	}
}

func TestConcurrentReadersDuringAppends(t *testing.T) {
	s := NewSet(512)
	const total = 5000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev Ptr
		for i := 0; i < total; i++ {
			p, err := s.Append(prev, []byte{byte(i), byte(i >> 8)})
			if err != nil {
				t.Errorf("Append: %v", err)
				return
			}
			prev = p
		}
	}()
	// Readers continuously scan snapshots; every scan must be internally
	// consistent (records intact, monotonically increasing count).
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for j := 0; j < 200; j++ {
				n := 0
				err := s.Scan(Nil, s.End(), func(_ Ptr, payload []byte) bool {
					if len(payload) != 2 {
						t.Error("torn record observed")
						return false
					}
					n++
					return true
				})
				if err != nil {
					t.Errorf("Scan: %v", err)
					return
				}
				if n < last {
					t.Errorf("snapshot went backwards: %d < %d", n, last)
					return
				}
				last = n
			}
		}()
	}
	wg.Wait()
}

func TestConcurrentAppenders(t *testing.T) {
	s := NewSet(4096)
	var wg sync.WaitGroup
	const (
		writers = 4
		each    = 1000
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := s.Append(Nil, []byte{byte(w)}); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.NumRows() != writers*each {
		t.Fatalf("NumRows = %d, want %d", s.NumRows(), writers*each)
	}
	counts := map[byte]int{}
	if err := s.Scan(Nil, s.End(), func(_ Ptr, payload []byte) bool {
		counts[payload[0]]++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		if counts[byte(w)] != each {
			t.Fatalf("writer %d rows = %d, want %d", w, counts[byte(w)], each)
		}
	}
}
