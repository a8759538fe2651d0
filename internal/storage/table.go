package storage

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// RowID identifies a row slot within a table for its entire lifetime,
// across all versions.
type RowID uint64

func formatRowID(id RowID) string { return strconv.FormatUint(uint64(id), 10) }

// version is one MVCC version of a row. beginTS is the commit timestamp of
// the transaction that wrote it; endTS is the commit timestamp of the
// transaction that superseded or deleted it (0 while current). Committed
// versions are immutable except for endTS, which is written once under the
// table write lock — so vals is a shared, read-only image: readers may hold
// it after releasing the lock, and must copy it before handing it to code
// that could write to it.
type version struct {
	beginTS uint64
	endTS   uint64
	vals    []Value
}

// latestTS as a read timestamp selects the newest committed version, and
// only while it is live: no endTS exceeds it.
const latestTS = ^uint64(0)

// visibleAt reports whether the version is visible to a reader at ts.
func (v *version) visibleAt(ts uint64) bool {
	return v.beginTS <= ts && (v.endTS == 0 || v.endTS > ts)
}

// versionChain is the full history of one row slot, oldest first.
type versionChain struct {
	versions []*version
}

// visible returns the version visible at ts, or nil.
func (c *versionChain) visible(ts uint64) *version {
	for i := len(c.versions) - 1; i >= 0; i-- {
		if c.versions[i].visibleAt(ts) {
			return c.versions[i]
		}
	}
	return nil
}

// latest returns the most recent committed version (live or deleted), or nil.
func (c *versionChain) latest() *version {
	if len(c.versions) == 0 {
		return nil
	}
	return c.versions[len(c.versions)-1]
}

// index is a secondary index bucket map: value key -> ascending ids of the
// rows whose chain has ever carried that key. Buckets are supersets of the
// live rows — readers re-check visibility and the actual column value against
// their snapshot — which keeps old snapshots correct without index
// versioning. A bucket slice is read-only once published: add appends past
// its end or replaces it with a fresh copy, so a reader may keep walking the
// slice it got after releasing the table lock.
type index struct {
	spec    IndexSpec
	buckets map[string][]RowID
}

func newIndex(spec IndexSpec) *index {
	return &index{spec: spec, buckets: make(map[string][]RowID)}
}

func (ix *index) add(key string, id RowID) {
	b := ix.buckets[key]
	i, found := slices.BinarySearch(b, id)
	if found {
		return
	}
	if i < len(b) {
		// Out-of-order install (ids are allocated at insert, installed at
		// commit): copy, so no published bucket shifts under a reader.
		b = slices.Clip(b)
	}
	ix.buckets[key] = slices.Insert(b, i, id)
}

// Rows live in a dense store indexed by RowID. allocRow hands out ids from a
// counter, so a directory of fixed-size chunks covers them with no hashing,
// and walking it visits rows in ascending RowID order with no sort. A nil
// slot was never installed (its inserter has not committed, or aborted) or
// was reclaimed by Vacuum.
const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
	// maxRowID bounds the slots a log or snapshot may install, so a corrupt
	// record cannot make the chunk directory grow without limit.
	maxRowID = RowID(1) << 32
)

type rowChunk [chunkSize]*versionChain

// table is the physical storage for one schema.
type table struct {
	schema *Schema

	mu      sync.RWMutex
	chunks  []*rowChunk       // chunk i holds RowIDs [i*chunkSize, (i+1)*chunkSize)
	indexes map[string]*index // lower-cased column name -> index

	nextRow uint64 // atomic: row slot allocator
	nextID  uint64 // atomic: primary-key sequence
}

func newTable(schema *Schema) *table {
	t := &table{
		schema:  schema,
		indexes: make(map[string]*index),
	}
	for _, spec := range schema.Indexes {
		t.indexes[strings.ToLower(spec.Column)] = newIndex(spec)
	}
	return t
}

// allocRow reserves a fresh row slot id.
func (t *table) allocRow() RowID {
	return RowID(atomic.AddUint64(&t.nextRow, 1))
}

// allocID reserves the next primary-key value. Like database sequences, ids
// consumed by aborted transactions are not reused.
func (t *table) allocID() int64 {
	return int64(atomic.AddUint64(&t.nextID, 1))
}

// bumpID raises the sequence to at least v, for explicit-id inserts.
func (t *table) bumpID(v int64) {
	if v <= 0 {
		return
	}
	for {
		cur := atomic.LoadUint64(&t.nextID)
		if cur >= uint64(v) {
			return
		}
		if atomic.CompareAndSwapUint64(&t.nextID, cur, uint64(v)) {
			return
		}
	}
}

// bumpRow raises the row-slot allocator to at least v, so rows installed by
// recovery never collide with freshly allocated slots.
func (t *table) bumpRow(v RowID) {
	for {
		cur := atomic.LoadUint64(&t.nextRow)
		if cur >= uint64(v) {
			return
		}
		if atomic.CompareAndSwapUint64(&t.nextRow, cur, uint64(v)) {
			return
		}
	}
}

// indexOn returns the index over the named column, or nil.
func (t *table) indexOn(col string) *index {
	return t.indexes[strings.ToLower(col)]
}

// chain returns the version chain in id's slot, or nil. Callers must hold mu
// for reads of the returned chain.
func (t *table) chain(id RowID) *versionChain {
	if ci := id >> chunkShift; ci < RowID(len(t.chunks)) && t.chunks[ci] != nil {
		return t.chunks[ci][id&chunkMask]
	}
	return nil
}

// setChain stores c in id's slot, growing the directory as needed; nil
// reclaims the slot. Caller holds mu for writing.
func (t *table) setChain(id RowID, c *versionChain) {
	ci := int(id >> chunkShift)
	for len(t.chunks) <= ci {
		t.chunks = append(t.chunks, nil)
	}
	if t.chunks[ci] == nil {
		t.chunks[ci] = new(rowChunk)
	}
	t.chunks[ci][id&chunkMask] = c
}

// eachChain calls fn on every installed slot in ascending RowID order.
// Caller holds mu.
func (t *table) eachChain(fn func(RowID, *versionChain)) {
	for ci, ch := range t.chunks {
		for off := 0; ch != nil && off < chunkSize; off++ {
			if c := ch[off]; c != nil {
				fn(RowID(ci<<chunkShift|off), c)
			}
		}
	}
}

// eachLive calls fn on the live latest version of every row in ascending
// RowID order. Caller holds mu.
func (t *table) eachLive(fn func(RowID, *version)) {
	t.eachChain(func(id RowID, c *versionChain) {
		if v := c.latest(); v != nil && v.endTS == 0 {
			fn(id, v)
		}
	})
}

// installInsert adds a committed version for a new row and registers all its
// index keys. Caller holds the commit lock; takes the table write lock.
func (t *table) installInsert(id RowID, vals []Value, commitTS uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.setChain(id, &versionChain{versions: []*version{{beginTS: commitTS, vals: vals}}})
	t.indexVersion(id, vals)
}

// installUpdate supersedes the current version of id with vals.
func (t *table) installUpdate(id RowID, vals []Value, commitTS uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.chain(id)
	if c == nil {
		return
	}
	if cur := c.latest(); cur != nil && cur.endTS == 0 {
		cur.endTS = commitTS
	}
	c.versions = append(c.versions, &version{beginTS: commitTS, vals: vals})
	t.indexVersion(id, vals)
}

// installDelete terminates the current version of id.
func (t *table) installDelete(id RowID, commitTS uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.chain(id)
	if c == nil {
		return
	}
	if cur := c.latest(); cur != nil && cur.endTS == 0 {
		cur.endTS = commitTS
	}
}

// indexVersion registers vals under every declared index. Caller holds mu.
func (t *table) indexVersion(id RowID, vals []Value) {
	for col, ix := range t.indexes {
		pos := t.schema.ColumnIndex(col)
		if pos < 0 || pos >= len(vals) {
			continue
		}
		ix.add(vals[pos].Key(), id)
	}
}

// version reads one committed row: the version of id visible at ts (with
// latestTS, the newest committed version if it is live), as its shared
// read-only image and its beginTS. A nil image means nothing is visible — the
// slot is empty, or the row is deleted as of ts.
func (t *table) version(id RowID, ts uint64) ([]Value, uint64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if c := t.chain(id); c != nil {
		if v := c.visible(ts); v != nil {
			return v.vals, v.beginTS
		}
	}
	return nil, 0
}

// rowHit is a row a cursor produced: a committed row's shared image and its
// version's beginTS, or — when own is set — the reader's buffered write on
// that row, whatever the row's committed state.
type rowHit struct {
	id      RowID
	vals    []Value
	beginTS uint64
	own     *txWrite
}

// rowCursor walks the rows visible at ts whose column pos equals val (every
// row when pos < 0), with the rows in writes reported as own hits instead.
// Candidates are the index bucket of val when the column is indexed, every
// slot otherwise, in ascending RowID order. Each step holds the table read
// lock once, for one chunk, and tests the shared images in place; fn runs on
// the hits after the lock is released.
type rowCursor struct {
	t      *table
	pos    int
	val    Value
	ts     uint64
	writes map[RowID]*txWrite
	full   bool
	bucket []RowID // index walks: the read-only bucket
	next   int     // next chunk (full walks) or bucket position
}

// cursor opens a walk; key is val.Key(), the index bucket to walk.
func (t *table) cursor(pos int, val Value, key string, ts uint64, writes map[RowID]*txWrite) rowCursor {
	c := rowCursor{t: t, pos: pos, val: val, ts: ts, writes: writes, full: true}
	if pos >= 0 {
		t.mu.RLock()
		if ix := t.indexOn(t.schema.Columns[pos].Name); ix != nil {
			c.full, c.bucket = false, ix.buckets[key]
		}
		t.mu.RUnlock()
	}
	return c
}

// matches applies the cursor's equality with SQL semantics: NULL equals
// nothing.
func (c *rowCursor) matches(vals []Value) bool {
	if c.pos < 0 {
		return true
	}
	v := &vals[c.pos]
	switch {
	case v.IsNull() || c.val.IsNull():
		return false
	case v.Kind == KindString && c.val.Kind == KindString:
		return v.S == c.val.S // the feral validation probe, without Compare's copies
	}
	return Equal(*v, c.val)
}

// each runs fn on every hit and reports whether it got to the end, false
// when fn stopped it. A stack buffer holds one chunk's hits; only a chunk
// with more spills to the heap.
func (c *rowCursor) each(fn func(rowHit) bool) bool {
	var buf [32]rowHit
	for more := true; more; {
		var hits []rowHit
		hits, more = c.step(buf[:0])
		for _, h := range hits {
			if !fn(h) {
				return false
			}
		}
	}
	return true
}

// step appends the next chunk's hits under one read lock; false when done.
func (c *rowCursor) step(hits []rowHit) ([]rowHit, bool) {
	t := c.t
	t.mu.RLock()
	defer t.mu.RUnlock()
	if c.full {
		if c.next >= len(t.chunks) {
			return hits, false
		}
		if ch := t.chunks[c.next]; ch != nil {
			for off, vc := range ch {
				if vc != nil {
					hits = c.visit(hits, RowID(c.next<<chunkShift|off), vc)
				}
			}
		}
		c.next++
		return hits, true
	}
	if c.next >= len(c.bucket) {
		return hits, false
	}
	for ci := c.bucket[c.next] >> chunkShift; c.next < len(c.bucket) && c.bucket[c.next]>>chunkShift == ci; c.next++ {
		if vc := t.chain(c.bucket[c.next]); vc != nil {
			hits = c.visit(hits, c.bucket[c.next], vc)
		}
	}
	return hits, true
}

func (c *rowCursor) visit(hits []rowHit, id RowID, vc *versionChain) []rowHit {
	if w, ok := c.writes[id]; ok {
		return append(hits, rowHit{id: id, own: w})
	}
	if v := vc.visible(c.ts); v != nil && c.matches(v.vals) {
		return append(hits, rowHit{id: id, vals: v.vals, beginTS: v.beginTS})
	}
	return hits
}

// covered reports whether id was a candidate, so a written row the walk
// already produced as an own hit is not merged in twice: a bucket search, or
// for a full walk whether the slot is installed — which a row with a
// buffered write cannot change while its writer is active (own inserts
// install at commit; Vacuum keeps versions that ended after the oldest
// active snapshot).
func (c *rowCursor) covered(id RowID) bool {
	if !c.full {
		_, found := slices.BinarySearch(c.bucket, id)
		return found
	}
	c.t.mu.RLock()
	defer c.t.mu.RUnlock()
	return c.t.chain(id) != nil
}
