package arena

// Dedup is the per-compaction node-uniqueness scratch: an open-addressed
// hash table from packed (u0, u1) child-pair keys to node IDs, reused
// across compactions so the hot loop never allocates. It replaces the
// per-call map[uint64]uint32 the compactor historically built — at table
// sizes of 2^k cells the map's per-insert overhead (hashing interface
// plumbing, incremental growth, GC pressure) dominated the compaction
// arithmetic severalfold.
//
// The scratch has two layouts, chosen per compaction by the caller:
//
//   - Compact (Reset32/Slots32): when every node ID the compaction
//     can read or assign fits in 16 bits — id0 + insertions ≤ 2^16, which
//     holds for every table the solver meets until total BDD cost passes
//     65k nodes — the (u0, u1) pair packs into a 32-bit key and the key
//     and its ID share ONE uint64 slot. A probe is one load and a miss
//     one store, instead of the two-array layout's two of each; on the
//     compaction kernel's hot loop this is worth ~1.5x end to end. The
//     packed kernels inline the probe over Slots32's array.
//   - Wide (Reset/FindOrAssign): the general 64-bit-key layout, keys and
//     vals in parallel arrays. Correct for any uint32 IDs.
//
// The zero key doubles as the empty-slot sentinel in both layouts. This
// is sound for every reduction rule the engine supports: a (0, 0) pair
// is never inserted, because under the OBDD/MTBDD rule equal children
// are skipped (u0 == u1) and under the ZDD rule a zero 1-child is
// skipped (u1 == 0).
type Dedup struct {
	// keys backs both layouts: wide stores 64-bit keys here, compact
	// stores key|id<<32 packed slots. vals is wide-only.
	keys []uint64
	vals []uint32
	// shift turns a mixed 64-bit hash into an index: idx = hash >> shift.
	shift uint
	// compact records which Reset variant prepared the scratch, so the
	// compaction kernel can select the matching probe loop.
	compact bool
}

// Reset prepares the scratch for a compaction expecting at most expect
// insertions of arbitrary uint32 IDs, growing the backing arrays if
// needed and clearing the previous compaction's keys. Capacity is the
// next power of two ≥ 2·expect (load factor ≤ 0.5), at least 16.
func (d *Dedup) Reset(expect uint64) {
	capacity := d.prepare(expect)
	if uint64(cap(d.vals)) < capacity {
		d.vals = make([]uint32, capacity)
	} else {
		d.vals = d.vals[:capacity]
	}
	d.compact = false
}

// Reset32 prepares the scratch for a compaction that will only meet node
// IDs below 2^16 — the caller must guarantee id0 + expect ≤ 2^16 (every
// ID already written to the source table is below id0 by construction).
// Probes must then go through Slots32.
func (d *Dedup) Reset32(expect uint64) {
	d.prepare(expect)
	d.compact = true
}

// Compact32 reports whether the last Reset selected the packed 32-bit
// layout.
func (d *Dedup) Compact32() bool { return d.compact }

// prepare sizes, re-slices and clears the shared key/slot array and
// returns the chosen capacity.
func (d *Dedup) prepare(expect uint64) uint64 {
	need := expect * 2
	if need < 16 {
		need = 16
	}
	capacity := uint64(16)
	for capacity < need {
		capacity <<= 1
	}
	d.shift = 64 - uint(log2(capacity))
	if uint64(cap(d.keys)) < capacity {
		d.keys = make([]uint64, capacity)
		return capacity
	}
	// Re-slice the backing array to the requested capacity — smaller
	// compactions clear proportionally less — and clear the stale keys.
	d.keys = d.keys[:capacity]
	clear(d.keys)
	return capacity
}

// FindOrAssign returns the ID recorded for key, or records id for it.
// fresh reports whether id was newly assigned. Wide layout only.
func (d *Dedup) FindOrAssign(key uint64, id uint32) (got uint32, fresh bool) {
	mask := uint64(len(d.keys) - 1)
	slot := (key * 0x9e3779b97f4a7c15) >> d.shift
	for { //lint:allow ctxcheckpoint linear probe over a table Reset sizes to ≥ 2x the insertions, so an empty slot is always reached within the table length

		k := d.keys[slot]
		if k == key {
			return d.vals[slot], false
		}
		if k == 0 {
			d.keys[slot] = key
			d.vals[slot] = id
			return id, true
		}
		slot = (slot + 1) & mask
	}
}

// Slots32 exposes the packed slot array and hash shift for the compact
// layout, letting the compaction kernel keep the probe loop's state in
// registers. The caller must have called Reset32 and must only store
// key|id<<32 values with key != 0.
func (d *Dedup) Slots32() (slots []uint64, shift uint) { return d.keys, d.shift }

func log2(v uint64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
