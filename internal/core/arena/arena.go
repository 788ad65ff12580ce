// Package arena provides the recycled storage behind the dynamic
// program's TABLE cells: a slab arena of uint32 blocks and a reusable
// open-addressed deduplication scratch. Both exist for the same reason —
// the O*(3^n) subset DP allocates and drops one table per transition, and
// going through the garbage collector for each (a fresh zeroed slice plus
// a fresh map) dominates the runtime long before the arithmetic does. An
// Arena keeps dropped blocks on per-size free lists and hands them back
// dirty (every compaction overwrites every cell), so a layer transition
// touches the same few cache-resident blocks over and over instead of
// streaming new memory.
//
// Arenas are deliberately trivial: they do not track outstanding blocks.
// A block that is never Put back is simply collected by the GC with
// whatever still references it — safety does not depend on the free
// discipline, only recycling efficiency does. Arenas are NOT safe for
// concurrent use; acquire one per goroutine (see Acquire/Release), or
// serialize every call on one behind a lock.
package arena

import (
	"math/bits"
	"sync"
)

// maxClass bounds the size classes: blocks up to 2^(maxClass-1) cells
// are recycled, larger requests fall through to plain make (unreachable
// for truth tables, which are capped far below 2^32 cells).
const maxClass = 33

// Arena recycles []uint32 blocks by exact capacity, one free list per
// size, so a shared forest's m·2^f-cell tables come back without rounding
// slack. free[c] holds the lists of size class c = ceil(log2(size)), so a
// lookup scans only the sizes sharing a class. The zero value is ready
// to use.
type Arena struct {
	free [maxClass][]freeList
	// gets/reuses count block requests and free-list hits, for tests and
	// effectiveness probes.
	gets, reuses uint64
}

// freeList holds the free blocks of one exact size.
type freeList struct {
	size   uint64
	blocks [][]uint32
}

// list returns the free list of size-cell blocks, adding an empty one on
// first use, or nil past the largest class.
func (a *Arena) list(size uint64) *freeList {
	c := class(size)
	if c >= maxClass {
		return nil
	}
	for i := range a.free[c] {
		if l := &a.free[c][i]; l.size == size {
			return l
		}
	}
	a.free[c] = append(a.free[c], freeList{size: size})
	return &a.free[c][len(a.free[c])-1]
}

// GetU32 returns a block with len(block) == size. The contents are
// UNSPECIFIED (dirty): callers must overwrite every cell they read.
// Size zero returns nil.
func (a *Arena) GetU32(size uint64) []uint32 {
	if size == 0 {
		return nil
	}
	a.gets++
	if l := a.list(size); l != nil && len(l.blocks) > 0 {
		b := l.blocks[len(l.blocks)-1]
		l.blocks = l.blocks[:len(l.blocks)-1]
		a.reuses++
		return b
	}
	return make([]uint32, size)
}

// PutU32 returns a block to the arena for reuse, filed under its
// capacity, so a later GetU32 of that exact size gets it back. Put blocks
// must no longer be referenced by the caller.
func (a *Arena) PutU32(b []uint32) {
	size := uint64(cap(b))
	if size == 0 {
		return
	}
	if l := a.list(size); l != nil {
		l.blocks = append(l.blocks, b[:size])
	}
}

// GetSlab returns a whole block (len == cap) to carve a layer's tables
// from: the smallest free block of at least fit cells, else the smallest
// of at least min, never one above limit; failing both, a fresh block of
// exactly min cells. The contents are unspecified, as for GetU32.
func (a *Arena) GetSlab(fit, min, limit uint64) []uint32 {
	a.gets++
	l := a.smallest(fit, limit)
	if l == nil {
		l = a.smallest(min, limit)
	}
	if l == nil {
		return make([]uint32, min)
	}
	b := l.blocks[len(l.blocks)-1]
	l.blocks = l.blocks[:len(l.blocks)-1]
	a.reuses++
	return b
}

// PutSlab returns a slab to the free lists, filed under its capacity.
func (a *Arena) PutSlab(b []uint32) { a.PutU32(b) }

// smallest returns the nonempty free list of the smallest size in
// [lo, hi], or nil. Size classes ascend, so the first class holding one
// holds the smallest.
func (a *Arena) smallest(lo, hi uint64) *freeList {
	for c := class(lo); c < maxClass; c++ {
		var best *freeList
		for i := range a.free[c] {
			l := &a.free[c][i]
			if len(l.blocks) > 0 && l.size >= lo && l.size <= hi && (best == nil || l.size < best.size) {
				best = l
			}
		}
		if best != nil {
			return best
		}
	}
	return nil
}

// Retain drops every free block and files exactly the given slabs (nil
// ones skipped), so an arena goes back to the pool with the slabs its
// last run held and nothing else.
func (a *Arena) Retain(slabs ...[]uint32) {
	a.Reset()
	for _, b := range slabs {
		a.PutSlab(b)
	}
}

// Reset drops every free list, letting the GC reclaim the blocks.
func (a *Arena) Reset() {
	for i := range a.free {
		a.free[i] = nil
	}
}

// FreeCells returns the cells held on the free lists.
func (a *Arena) FreeCells() uint64 {
	var cells uint64
	for _, lists := range a.free {
		for _, l := range lists {
			cells += uint64(len(l.blocks)) * l.size
		}
	}
	return cells
}

// Stats reports block requests and free-list hits since construction.
func (a *Arena) Stats() (gets, reuses uint64) { return a.gets, a.reuses }

// class returns ceil(log2(size)).
func class(size uint64) int {
	if size <= 1 {
		return 0
	}
	return bits.Len64(size - 1)
}

// pool recycles whole arenas across solver runs, so consecutive Solve
// calls on one process reuse the same warmed slabs instead of faulting
// fresh pages. Arenas carry no per-run state besides their free lists,
// so reuse cannot bleed results between runs — blocks are dirty by
// contract either way.
var pool = sync.Pool{New: func() any { return new(Arena) }}

// Acquire returns an arena for one run (one goroutine at a time).
func Acquire() *Arena { return pool.Get().(*Arena) }

// Release returns an arena to the process-wide pool. The caller must
// not use it afterwards, and no goroutine may still Put into it.
func Release(a *Arena) {
	pool.Put(a) //lint:allow pooldiscipline warm slabs are the point of pooling arenas: blocks are dirty by contract, and Reset would drop the free lists reuse exists for
}
