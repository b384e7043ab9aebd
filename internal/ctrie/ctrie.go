// Package ctrie implements a concurrent hash trie (Ctrie) after
// Prokopec, Bronson, Bagwell and Odersky, "Concurrent Tries with Efficient
// Non-blocking Snapshots" (PPoPP 2012) — the index data structure the
// Indexed DataFrame embeds in every partition.
//
// The trie is lock-free: all mutations go through single-word CAS
// instructions structured as GCAS (generation-compare-and-swap) on the
// I-node main pointers, and snapshots swap the root via an RDCSS
// (restricted double-compare single-swap). Snapshots are O(1) and lazy:
// the snapshot shares structure with the live trie, and subsequent writers
// copy paths whose generation stamp is stale.
//
// The Indexed DataFrame stores, per partition, a Ctrie keyed by the indexed
// column value whose payload is the packed 64-bit pointer to the latest row
// appended with that key. Its bindings are only ever added or replaced,
// never removed. The engine reads the live trie and takes no snapshots
// (a table's snapshot is a published row-batch position instead), so the
// generation never changes and no path is ever renewed; ReadOnlySnapshot
// and the RDCSS/GCAS generation machinery remain for the snapshot
// micro-benchmark.
package ctrie

import (
	"math/bits"
	"sync/atomic"
)

// w is the number of hash bits consumed per trie level.
const w = 5

// hashBits is the width of the hash in bits.
const hashBits = 64

// gen is a generation stamp; identity (pointer equality) is all that
// matters.
type gen struct{ _ int8 }

// branch is either *iNode or *sNode.
type branch[K comparable, V any] interface{ isBranch() }

// sNode is a singleton leaf holding one key/value binding. Immutable.
type sNode[K comparable, V any] struct {
	hash uint64
	key  K
	val  V
}

func (*sNode[K, V]) isBranch() {}

// mainNode is the value an iNode points at: exactly one of cn / ln is set,
// or failed for the GCAS failure marker. prev is the GCAS bookkeeping
// field. Bindings are never removed, so a node never contracts.
type mainNode[K comparable, V any] struct {
	cn     *cNode[K, V]
	ln     []*sNode[K, V]  // list node for full-hash collisions
	failed *mainNode[K, V] // non-nil marks a failed GCAS (wraps previous main)
	prev   atomic.Pointer[mainNode[K, V]]
}

// cNode is a branching node with a 32-bit bitmap and a dense array of
// branches. Immutable; updates copy.
type cNode[K comparable, V any] struct {
	bitmap uint32
	array  []branch[K, V]
	gen    *gen
}

// iNode is the mutable indirection node; its main pointer is updated with
// GCAS.
type iNode[K comparable, V any] struct {
	main atomic.Pointer[mainNode[K, V]]
	gen  *gen
}

func (*iNode[K, V]) isBranch() {}

// rdcssDescriptor is installed in the root while a snapshot root-swap is in
// flight.
type rdcssDescriptor[K comparable, V any] struct {
	old       *iNode[K, V]
	expected  *mainNode[K, V]
	nv        *iNode[K, V]
	committed atomic.Bool
}

// rootBox is what the root pointer holds: either a live iNode or an
// in-flight RDCSS descriptor.
type rootBox[K comparable, V any] struct {
	in   *iNode[K, V]
	desc *rdcssDescriptor[K, V]
}

// Ctrie is a concurrent, snapshottable hash trie map from K to V.
// All methods are safe for concurrent use. The zero value is not usable;
// construct with New.
type Ctrie[K comparable, V any] struct {
	root     atomic.Pointer[rootBox[K, V]]
	hasher   func(K) uint64
	readOnly bool
}

// New returns an empty Ctrie that hashes keys with hasher. The hasher must
// be deterministic and should distribute well across all 64 bits.
func New[K comparable, V any](hasher func(K) uint64) *Ctrie[K, V] {
	c := &Ctrie[K, V]{hasher: hasher}
	g := &gen{}
	in := &iNode[K, V]{gen: g}
	in.main.Store(&mainNode[K, V]{cn: &cNode[K, V]{gen: g}})
	c.root.Store(&rootBox[K, V]{in: in})
	return c
}

// ---------------------------------------------------------------------------
// RDCSS root access

func (c *Ctrie[K, V]) rdcssReadRoot(abort bool) *iNode[K, V] {
	r := c.root.Load()
	if r.desc != nil {
		return c.rdcssComplete(abort)
	}
	return r.in
}

func (c *Ctrie[K, V]) rdcssComplete(abort bool) *iNode[K, V] {
	for {
		r := c.root.Load()
		if r.desc == nil {
			return r.in
		}
		d := r.desc
		if abort {
			if c.root.CompareAndSwap(r, &rootBox[K, V]{in: d.old}) {
				return d.old
			}
			continue
		}
		oldMain := c.gcasRead(d.old)
		if oldMain == d.expected {
			if c.root.CompareAndSwap(r, &rootBox[K, V]{in: d.nv}) {
				d.committed.Store(true)
				return d.nv
			}
			continue
		}
		if c.root.CompareAndSwap(r, &rootBox[K, V]{in: d.old}) {
			return d.old
		}
	}
}

func (c *Ctrie[K, V]) rdcssRoot(old *iNode[K, V], expected *mainNode[K, V], nv *iNode[K, V]) bool {
	d := &rdcssDescriptor[K, V]{old: old, expected: expected, nv: nv}
	r := c.root.Load()
	if r.desc == nil && r.in == old {
		if c.root.CompareAndSwap(r, &rootBox[K, V]{desc: d}) {
			c.rdcssComplete(false)
			return d.committed.Load()
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// GCAS

// gcas publishes n as the new main of in, provided in's generation is still
// current with respect to the root. Returns false when the caller must
// restart from the root.
func (c *Ctrie[K, V]) gcas(in *iNode[K, V], old, n *mainNode[K, V]) bool {
	n.prev.Store(old)
	if in.main.CompareAndSwap(old, n) {
		c.gcasComplete(in, n)
		return n.prev.Load() == nil
	}
	return false
}

// gcasRead returns in's committed main node.
func (c *Ctrie[K, V]) gcasRead(in *iNode[K, V]) *mainNode[K, V] {
	m := in.main.Load()
	if m.prev.Load() == nil {
		return m
	}
	return c.gcasComplete(in, m)
}

func (c *Ctrie[K, V]) gcasComplete(in *iNode[K, V], m *mainNode[K, V]) *mainNode[K, V] {
	for {
		if m == nil {
			return nil
		}
		prev := m.prev.Load()
		if prev == nil {
			return m
		}
		root := c.rdcssReadRoot(true)
		if prev.failed != nil {
			// A failed GCAS: roll in.main back to the previous value.
			if in.main.CompareAndSwap(m, prev.failed) {
				return prev.failed
			}
			m = in.main.Load()
			continue
		}
		if root.gen == in.gen && !c.readOnly {
			// Commit.
			if m.prev.CompareAndSwap(prev, nil) {
				return m
			}
			continue
		}
		// Generation changed under us (a snapshot happened): abort.
		m.prev.CompareAndSwap(prev, &mainNode[K, V]{failed: prev})
		m = in.main.Load()
	}
}

// ---------------------------------------------------------------------------
// cNode helpers (all pure)

func flagPos(hash uint64, lev uint, bmp uint32) (flag uint32, pos int) {
	idx := (hash >> lev) & (1<<w - 1)
	flag = uint32(1) << idx
	pos = bits.OnesCount32(bmp & (flag - 1))
	return flag, pos
}

func (cn *cNode[K, V]) insertedAt(pos int, flag uint32, b branch[K, V], g *gen) *cNode[K, V] {
	arr := make([]branch[K, V], len(cn.array)+1)
	copy(arr, cn.array[:pos])
	arr[pos] = b
	copy(arr[pos+1:], cn.array[pos:])
	return &cNode[K, V]{bitmap: cn.bitmap | flag, array: arr, gen: g}
}

func (cn *cNode[K, V]) updatedAt(pos int, b branch[K, V], g *gen) *cNode[K, V] {
	arr := make([]branch[K, V], len(cn.array))
	copy(arr, cn.array)
	arr[pos] = b
	return &cNode[K, V]{bitmap: cn.bitmap, array: arr, gen: g}
}

// renewed copies the cNode, refreshing every child iNode to generation g.
func (cn *cNode[K, V]) renewed(g *gen, c *Ctrie[K, V]) *cNode[K, V] {
	arr := make([]branch[K, V], len(cn.array))
	for i, b := range cn.array {
		if in, ok := b.(*iNode[K, V]); ok {
			arr[i] = in.copyToGen(g, c)
		} else {
			arr[i] = b
		}
	}
	return &cNode[K, V]{bitmap: cn.bitmap, array: arr, gen: g}
}

func (in *iNode[K, V]) copyToGen(g *gen, c *Ctrie[K, V]) *iNode[K, V] {
	nin := &iNode[K, V]{gen: g}
	nin.main.Store(c.gcasRead(in))
	return nin
}

// dual builds the structure separating two sNodes that collide at lev.
func dual[K comparable, V any](x, y *sNode[K, V], lev uint, g *gen) *mainNode[K, V] {
	if lev >= hashBits {
		return &mainNode[K, V]{ln: []*sNode[K, V]{x, y}}
	}
	xidx := (x.hash >> lev) & (1<<w - 1)
	yidx := (y.hash >> lev) & (1<<w - 1)
	bmp := uint32(1)<<xidx | uint32(1)<<yidx
	if xidx == yidx {
		sub := &iNode[K, V]{gen: g}
		sub.main.Store(dual(x, y, lev+w, g))
		return &mainNode[K, V]{cn: &cNode[K, V]{bitmap: bmp, array: []branch[K, V]{sub}, gen: g}}
	}
	var arr []branch[K, V]
	if xidx < yidx {
		arr = []branch[K, V]{x, y}
	} else {
		arr = []branch[K, V]{y, x}
	}
	return &mainNode[K, V]{cn: &cNode[K, V]{bitmap: bmp, array: arr, gen: g}}
}

// ---------------------------------------------------------------------------
// Lookup

// Lookup returns the value bound to key and whether it was present.
func (c *Ctrie[K, V]) Lookup(key K) (V, bool) {
	h := c.hasher(key)
	for {
		r := c.rdcssReadRoot(false)
		v, found, ok := c.ilookup(r, h, key, 0, r.gen)
		if ok {
			return v, found
		}
	}
}

func (c *Ctrie[K, V]) ilookup(in *iNode[K, V], hash uint64, key K, lev uint,
	startgen *gen) (v V, found, ok bool) {
	var zero V
	m := c.gcasRead(in)
	switch {
	case m.cn != nil:
		cn := m.cn
		flag, pos := flagPos(hash, lev, cn.bitmap)
		if cn.bitmap&flag == 0 {
			return zero, false, true
		}
		switch b := cn.array[pos].(type) {
		case *iNode[K, V]:
			if c.readOnly || startgen == b.gen {
				return c.ilookup(b, hash, key, lev+w, startgen)
			}
			if c.gcas(in, m, &mainNode[K, V]{cn: cn.renewed(startgen, c)}) {
				return c.ilookup(in, hash, key, lev, startgen)
			}
			return zero, false, false
		case *sNode[K, V]:
			if b.hash == hash && b.key == key {
				return b.val, true, true
			}
			return zero, false, true
		}
	case m.ln != nil:
		for _, sn := range m.ln {
			if sn.hash == hash && sn.key == key {
				return sn.val, true, true
			}
		}
		return zero, false, true
	}
	return zero, false, true
}

// ---------------------------------------------------------------------------
// Insert

// Insert binds key to val, replacing any existing binding.
func (c *Ctrie[K, V]) Insert(key K, val V) {
	c.Swap(key, val)
}

// Swap binds key to val and returns the previous value, if any.
// Panics on read-only snapshots.
func (c *Ctrie[K, V]) Swap(key K, val V) (prev V, had bool) {
	if c.readOnly {
		panic("ctrie: write on read-only snapshot")
	}
	h := c.hasher(key)
	for {
		r := c.rdcssReadRoot(false)
		p, hd, ok := c.iinsert(r, h, key, val, 0, r.gen)
		if ok {
			return p, hd
		}
	}
}

func (c *Ctrie[K, V]) iinsert(in *iNode[K, V], hash uint64, key K, val V, lev uint,
	startgen *gen) (prev V, had, ok bool) {
	var zero V
	m := c.gcasRead(in)
	switch {
	case m.cn != nil:
		cn := m.cn
		flag, pos := flagPos(hash, lev, cn.bitmap)
		if cn.bitmap&flag == 0 {
			rn := cn
			if cn.gen != in.gen {
				rn = cn.renewed(in.gen, c)
			}
			ncn := rn.insertedAt(pos, flag, &sNode[K, V]{hash: hash, key: key, val: val}, in.gen)
			if c.gcas(in, m, &mainNode[K, V]{cn: ncn}) {
				return zero, false, true
			}
			return zero, false, false
		}
		switch b := cn.array[pos].(type) {
		case *iNode[K, V]:
			if startgen == b.gen {
				return c.iinsert(b, hash, key, val, lev+w, startgen)
			}
			if c.gcas(in, m, &mainNode[K, V]{cn: cn.renewed(startgen, c)}) {
				return c.iinsert(in, hash, key, val, lev, startgen)
			}
			return zero, false, false
		case *sNode[K, V]:
			if b.hash == hash && b.key == key {
				ncn := cn.updatedAt(pos, &sNode[K, V]{hash: hash, key: key, val: val}, in.gen)
				if c.gcas(in, m, &mainNode[K, V]{cn: ncn}) {
					return b.val, true, true
				}
				return zero, false, false
			}
			rn := cn
			if cn.gen != in.gen {
				rn = cn.renewed(in.gen, c)
			}
			nsn := &sNode[K, V]{hash: hash, key: key, val: val}
			nin := &iNode[K, V]{gen: in.gen}
			nin.main.Store(dual(b, nsn, lev+w, in.gen))
			ncn := rn.updatedAt(pos, nin, in.gen)
			if c.gcas(in, m, &mainNode[K, V]{cn: ncn}) {
				return zero, false, true
			}
			return zero, false, false
		}
	case m.ln != nil:
		nl := make([]*sNode[K, V], 0, len(m.ln)+1)
		var old *sNode[K, V]
		for _, sn := range m.ln {
			if sn.hash == hash && sn.key == key {
				old = sn
				continue
			}
			nl = append(nl, sn)
		}
		nl = append(nl, &sNode[K, V]{hash: hash, key: key, val: val})
		if c.gcas(in, m, &mainNode[K, V]{ln: nl}) {
			if old != nil {
				return old.val, true, true
			}
			return zero, false, true
		}
		return zero, false, false
	}
	return zero, false, true
}

// ---------------------------------------------------------------------------
// Snapshots

// ReadOnlySnapshot returns a read-only snapshot in O(1). Reads on it never
// allocate or help writers; writes panic. This is what Indexed DataFrame
// queries pin for multi-version reads.
func (c *Ctrie[K, V]) ReadOnlySnapshot() *Ctrie[K, V] {
	if c.readOnly {
		return c
	}
	for {
		r := c.rdcssReadRoot(false)
		expmain := c.gcasRead(r)
		if c.rdcssRoot(r, expmain, r.copyToGen(&gen{}, c)) {
			snap := &Ctrie[K, V]{hasher: c.hasher, readOnly: true}
			snap.root.Store(&rootBox[K, V]{in: r})
			return snap
		}
	}
}

// ---------------------------------------------------------------------------
// Iteration / size

// Iterate calls fn for every binding in a consistent snapshot of the trie,
// stopping early when fn returns false. Iteration order is unspecified.
func (c *Ctrie[K, V]) Iterate(fn func(K, V) bool) {
	snap := c
	if !c.readOnly {
		snap = c.ReadOnlySnapshot()
	}
	r := snap.rdcssReadRoot(false)
	snap.iterate(r, fn)
}

func (c *Ctrie[K, V]) iterate(in *iNode[K, V], fn func(K, V) bool) bool {
	m := c.gcasRead(in)
	switch {
	case m.cn != nil:
		for _, b := range m.cn.array {
			switch br := b.(type) {
			case *sNode[K, V]:
				if !fn(br.key, br.val) {
					return false
				}
			case *iNode[K, V]:
				if !c.iterate(br, fn) {
					return false
				}
			}
		}
	case m.ln != nil:
		for _, sn := range m.ln {
			if !fn(sn.key, sn.val) {
				return false
			}
		}
	}
	return true
}

// Len counts the bindings in a consistent snapshot. O(n).
func (c *Ctrie[K, V]) Len() int {
	n := 0
	c.Iterate(func(K, V) bool { n++; return true })
	return n
}
