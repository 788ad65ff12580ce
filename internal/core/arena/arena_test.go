package arena

import (
	"testing"
)

func TestGetPutRoundTrip(t *testing.T) {
	var a Arena
	b := a.GetU32(8)
	if len(b) != 8 {
		t.Fatalf("GetU32(8) len = %d", len(b))
	}
	for i := range b {
		b[i] = uint32(i) + 100
	}
	a.PutU32(b)
	c := a.GetU32(8)
	if len(c) != 8 {
		t.Fatalf("reused block len = %d", len(c))
	}
	if &c[0] != &b[0] {
		t.Fatalf("expected the same backing array back")
	}
	// Contract: blocks come back dirty — the old contents are visible.
	if c[3] != 103 {
		t.Fatalf("block unexpectedly cleared: c[3] = %d", c[3])
	}
	gets, reuses := a.Stats()
	if gets != 2 || reuses != 1 {
		t.Fatalf("Stats = (%d, %d), want (2, 1)", gets, reuses)
	}
}

// TestExactCapacityRoundTrip recycles blocks whose sizes are not powers
// of two, a shared forest's 3·2^k-cell tables among them: each comes back
// from its own exact-size list, with no rounding slack, and FreeCells and
// Trim count the real capacities.
func TestExactCapacityRoundTrip(t *testing.T) {
	var a Arena
	sizes := []uint64{3, 12, 3 << 10, 1 << 12, 5 << 9}
	blocks := make(map[uint64][]uint32)
	for _, size := range sizes {
		b := a.GetU32(size)
		if len(b) != int(size) || cap(b) != int(size) {
			t.Fatalf("GetU32(%d): len %d cap %d", size, len(b), cap(b))
		}
		b[0] = uint32(size)
		blocks[size] = b
	}
	for _, size := range sizes {
		a.PutU32(blocks[size])
	}
	var total uint64
	for _, size := range sizes {
		total += size
	}
	if got := a.FreeCells(); got != total {
		t.Fatalf("FreeCells = %d, want %d", got, total)
	}
	// 3·2^10 and 2^12 share a size class; each request gets its own size.
	for _, size := range sizes {
		b := a.GetU32(size)
		if &b[0] != &blocks[size][0] || len(b) != int(size) || b[0] != uint32(size) {
			t.Fatalf("GetU32(%d) did not return the %d-cell block put back", size, size)
		}
		a.PutU32(b)
	}
	if gets, reuses := a.Stats(); gets != 2*uint64(len(sizes)) || reuses != uint64(len(sizes)) {
		t.Fatalf("Stats = (%d, %d), want (%d, %d)", gets, reuses, 2*len(sizes), len(sizes))
	}
	// One cell short of everything: the 3-cell block, in the smallest
	// class, is the one dropped.
	if kept := a.Trim(total - 1); kept != total-3 || a.FreeCells() != total-3 {
		t.Fatalf("Trim(%d) kept %d cells (%d free), want %d", total-1, kept, a.FreeCells(), total-3)
	}
	if a.GetU32(0) != nil {
		t.Fatalf("GetU32(0) should be nil")
	}
	a.PutU32(nil)
}

func TestReset(t *testing.T) {
	var a Arena
	b := a.GetU32(16)
	a.PutU32(b)
	a.Reset()
	c := a.GetU32(16)
	if len(b) > 0 && &c[0] == &b[0] {
		t.Fatalf("Reset should drop free lists")
	}
}

func TestAcquireRelease(t *testing.T) {
	a := Acquire()
	if a == nil {
		t.Fatalf("Acquire returned nil")
	}
	a.PutU32(a.GetU32(4))
	Release(a)
	// Pool reuse is best-effort; just exercise the path again.
	b := Acquire()
	b.GetU32(4)
	Release(b)
}

func TestDedupMatchesMapReference(t *testing.T) {
	var d Dedup
	// Two rounds with different sizes exercise Reset's grow and re-slice
	// paths and verify no state bleeds between compactions.
	for round, nkeys := range []uint64{500, 37} {
		d.Reset(nkeys)
		ref := make(map[uint64]uint32)
		next := uint32(0)
		// A mix of fresh and repeated keys, none zero.
		for i := uint64(0); i < nkeys; i++ {
			key := (i%17)*0x1f3d + i/3 + 1
			wantID, seen := ref[key]
			got, fresh := d.FindOrAssign(key, next)
			if seen {
				if fresh || got != wantID {
					t.Fatalf("round %d key %#x: got (%d, %v), want (%d, false)", round, key, got, fresh, wantID)
				}
			} else {
				if !fresh || got != next {
					t.Fatalf("round %d key %#x: got (%d, %v), want fresh %d", round, key, got, fresh, next)
				}
				ref[key] = next
				next++
			}
		}
	}
}

func TestDedupResetClearsState(t *testing.T) {
	var d Dedup
	d.Reset(4)
	if got, fresh := d.FindOrAssign(42, 7); !fresh || got != 7 {
		t.Fatalf("first insert: (%d, %v)", got, fresh)
	}
	d.Reset(4)
	if got, fresh := d.FindOrAssign(42, 9); !fresh || got != 9 {
		t.Fatalf("after Reset, key should be gone: (%d, %v)", got, fresh)
	}
}

func TestDedupGrowAfterShrink(t *testing.T) {
	var d Dedup
	d.Reset(1000)
	d.Reset(4) // shrink the view
	d.Reset(1000)
	// The original backing array must be back in full (no truncated len).
	for i := uint64(0); i < 1000; i++ {
		if got, fresh := d.FindOrAssign(i+1, uint32(i)); !fresh || got != uint32(i) {
			t.Fatalf("key %d: (%d, %v)", i+1, got, fresh)
		}
	}
}

// fill puts count fresh blocks of size cells on a's free lists.
func fill(a *Arena, size uint64, count int) {
	for i := 0; i < count; i++ {
		a.PutU32(make([]uint32, size))
	}
}

func TestTrimKeepsAtMostLimit(t *testing.T) {
	for _, limit := range []uint64{0, 1, 7, 100, 1000, 5000, 1 << 20} {
		var a Arena
		fill(&a, 256, 4)
		fill(&a, 64, 9)
		fill(&a, 4, 20)
		fill(&a, 1, 3)
		before := a.FreeCells()
		kept := a.Trim(limit)
		if got := a.FreeCells(); got != kept {
			t.Errorf("limit %d: Trim reported %d kept, free lists hold %d", limit, kept, got)
		}
		if kept > limit {
			t.Errorf("limit %d: kept %d cells", limit, kept)
		}
		if limit >= before && kept != before {
			t.Errorf("limit %d >= %d free: kept %d, want everything", limit, before, kept)
		}
	}
}

func TestTrimKeepsLargerClassesFirst(t *testing.T) {
	var a Arena
	fill(&a, 256, 3)
	fill(&a, 16, 10)
	fill(&a, 2, 10)
	// Room for two 256-cell blocks and 100 cells more: the third large
	// block cannot fit, the 16-cell class fills 96 of the remaining 100,
	// and the 2-cell class the last 4.
	kept := a.Trim(2*256 + 100)
	if kept != 2*256+96+4 {
		t.Fatalf("kept %d cells, want %d", kept, 2*256+96+4)
	}
	for size, want := range map[uint64]int{256: 2, 16: 6, 2: 2} {
		if got := len(a.list(size).blocks); got != want {
			t.Errorf("class of size %d keeps %d blocks, want %d", size, got, want)
		}
	}
}

func TestTrimClearsDroppedSlots(t *testing.T) {
	var a Arena
	fill(&a, 32, 8)
	a.Trim(3 * 32)
	l := a.list(32).blocks
	if len(l) != 3 {
		t.Fatalf("kept %d blocks, want 3", len(l))
	}
	for i, b := range l[len(l):cap(l)] {
		if b != nil {
			t.Errorf("dropped slot %d still references a %d-cell block", len(l)+i, len(b))
		}
	}
	// Trimmed lists keep working.
	a.PutU32(make([]uint32, 32))
	if got := a.FreeCells(); got != 4*32 {
		t.Errorf("FreeCells after a Put = %d, want %d", got, 4*32)
	}
}

// TestGetSlabChoiceOrder pins the order in which GetSlab picks a slab:
// the smallest free one holding fit cells, else the smallest holding min,
// never one above limit, else a fresh block of exactly min cells.
func TestGetSlabChoiceOrder(t *testing.T) {
	var a Arena
	free := make(map[uint64][]uint32)
	for _, size := range []uint64{100, 300, 500, 2000, 5000} {
		free[size] = make([]uint32, size)
		a.PutSlab(free[size])
	}
	for _, c := range []struct {
		fit, min, limit uint64
		want            uint64 // the size of the free slab expected
		fresh           uint64 // or of the fresh block expected
	}{
		{fit: 400, min: 200, limit: 4000, want: 500},     // fits the largest layer
		{fit: 4500, min: 200, limit: 4000, want: 300},    // 5000 is above the limit: the opening layer's fit
		{fit: 6000, min: 3000, limit: 64000, want: 5000}, // nothing holds fit
		{fit: 6000, min: 2500, limit: 4000, fresh: 2500}, // 2000 is too small, nothing else is left below the limit
		{fit: 50, min: 50, limit: 800, want: 100},
		{fit: 50, min: 50, limit: 800, fresh: 50}, // only 2000 is left, above the limit
	} {
		_, before := a.Stats()
		b := a.GetSlab(c.fit, c.min, c.limit)
		_, after := a.Stats()
		if len(b) != cap(b) {
			t.Fatalf("GetSlab(%d, %d, %d): len %d cap %d, want a whole block", c.fit, c.min, c.limit, len(b), cap(b))
		}
		if c.fresh != 0 {
			if after != before || len(b) != int(c.fresh) {
				t.Fatalf("GetSlab(%d, %d, %d) = %d cells (reused %v), want a fresh %d", c.fit, c.min, c.limit, len(b), after != before, c.fresh)
			}
			continue
		}
		if after != before+1 || len(b) != int(c.want) || &b[0] != &free[c.want][0] {
			t.Fatalf("GetSlab(%d, %d, %d) = %d cells (reused %v), want the free %d", c.fit, c.min, c.limit, len(b), after != before, c.want)
		}
	}
	if got := a.FreeCells(); got != 2000 {
		t.Fatalf("FreeCells = %d, want the 2000-cell slab alone", got)
	}
}

// TestSlabsComeBackWhole checks that a slab put back through a shorter
// slice is filed under its capacity and handed out whole.
func TestSlabsComeBackWhole(t *testing.T) {
	var a Arena
	b := a.GetSlab(640, 640, 640)
	a.PutSlab(b[:17])
	if got := a.FreeCells(); got != 640 {
		t.Fatalf("FreeCells = %d, want 640", got)
	}
	c := a.GetSlab(600, 100, 1000)
	if &c[0] != &b[0] || len(c) != 640 || cap(c) != 640 {
		t.Fatalf("GetSlab returned len %d cap %d, want the whole 640-cell slab back", len(c), cap(c))
	}
}

// TestRetainKeepsHeldSlabs pins that Retain keeps exactly the slabs a run
// held, not a total of cells. The sizes are a 1/128 scale of a random
// n=14 run's ring, whose slots swap out slabs of the same size class as
// the ones they end up holding: a trim to the held total walks a size
// class's lists in insertion order and would keep a swapped-out slab in
// place of a held one.
func TestRetainKeepsHeldSlabs(t *testing.T) {
	var a Arena
	for _, size := range []uint64{896, 2912, 5824} { // swapped out during the run
		a.PutSlab(make([]uint32, size))
	}
	held := [][]uint32{make([]uint32, 6006), make([]uint32, 8008), make([]uint32, 8008), nil}
	a.Retain(held...)
	if got := a.FreeCells(); got != 6006+2*8008 {
		t.Fatalf("FreeCells = %d, want the %d held cells", got, 6006+2*8008)
	}
	back := map[*uint32]bool{}
	for _, size := range []uint64{6006, 8008, 8008} {
		b := a.GetU32(size)
		back[&b[0]] = true
	}
	for _, h := range held[:3] {
		if !back[&h[0]] {
			t.Fatalf("a held %d-cell slab did not come back", len(h))
		}
	}
	if got := a.FreeCells(); got != 0 {
		t.Fatalf("%d cells left besides the held slabs", got)
	}
}
