// Fixture for the arenaowner analyzer: a local double of the engine's
// arena and owning structs (the analyzer keys on type names, so the
// fixture needs no import of internal/core).
package arenaowner

import "errors"

type Arena struct{ free [][]uint32 }

func (a *Arena) GetU32(size uint64) []uint32 {
	if n := len(a.free); n > 0 {
		b := a.free[n-1]
		a.free = a.free[:n-1]
		return b[:size]
	}
	return make([]uint32, size)
}

func (a *Arena) PutU32(b []uint32) { a.free = append(a.free, b) }

func (a *Arena) GetSlab(fit, min, limit uint64) []uint32 { return a.GetU32(min) }

func (a *Arena) PutSlab(b []uint32) { a.PutU32(b) }

// fsContext and dpState mirror the whitelisted owners.
type fsContext struct {
	table []uint32
	cost  uint64
}

type dpState struct {
	tables [][]uint32
}

// wsRing mirrors the engine's ring of layer slabs, a whitelisted owner.
type wsRing struct {
	ar    *Arena
	slabs [3][]uint32
}

// rogueCache is NOT a sanctioned owner: blocks stored here can never be
// recycled.
type rogueCache struct {
	stash []uint32
}

// rogueRing keeps slabs outside the ownership model.
type rogueRing struct {
	slabs [3][]uint32
}

var errBoom = errors.New("boom")

// leakOnErrorPath is the seeded acceptance violation: the error exit
// returns with the block neither put back nor transferred.
func leakOnErrorPath(ar *Arena, size uint64, fail bool) ([]uint32, error) {
	blk := ar.GetU32(size)
	if fail {
		return nil, errBoom // want `return path in leakOnErrorPath leaks the arena block "blk"`
	}
	return blk, nil
}

// balancedErrorPath puts the block back before the early exit and
// returns it (a transfer) on the happy path. Must stay silent.
func balancedErrorPath(ar *Arena, size uint64, fail bool) ([]uint32, error) {
	blk := ar.GetU32(size)
	if fail {
		ar.PutU32(blk)
		return nil, errBoom
	}
	return blk, nil
}

// transferIntoContext is compact's shape: the block leaves through a
// whitelisted carrier struct. Must stay silent.
func transferIntoContext(ar *Arena, size uint64) *fsContext {
	blk := ar.GetU32(size)
	return &fsContext{table: blk}
}

// transferIntoTableSlot is runDP's shape: the incumbent slot of a local
// layer slice takes ownership; the dropped candidate goes back. Must
// stay silent.
func transferIntoTableSlot(ar *Arena, size uint64, keep []bool) [][]uint32 {
	tables := make([][]uint32, len(keep))
	for i := range keep {
		dst := ar.GetU32(size)
		if keep[i] {
			tables[i] = dst
		} else {
			ar.PutU32(dst)
		}
	}
	return tables
}

// transferIntoState stores into a whitelisted owner's slice field (the
// wsLayer result-slot shape). Must stay silent.
func transferIntoState(ar *Arena, st *dpState, size uint64) {
	out := ar.GetU32(size)
	st.tables[0] = out
	_ = st
}

// escapeIntoRogueField squirrels a block away in unsanctioned storage:
// reported at the store even though no return leaks it.
func escapeIntoRogueField(ar *Arena, c *rogueCache, size uint64) {
	blk := ar.GetU32(size)
	c.stash = blk // want `arena block stored into field c\.stash of rogueCache`
}

// deferredPut releases through a defer; every path is balanced at once.
// Must stay silent.
func deferredPut(ar *Arena, size uint64, fail bool) error {
	blk := ar.GetU32(size)
	defer ar.PutU32(blk)
	if fail {
		return errBoom
	}
	return nil
}

// rebind retires the incumbent before rebinding the variable: the strong
// update tracks the latest block only. Must stay silent.
func rebind(ar *Arena, rounds int) {
	var blk []uint32
	for i := 0; i < rounds; i++ {
		if i > 0 {
			ar.PutU32(blk)
		}
		blk = ar.GetU32(8)
	}
	if rounds > 0 {
		ar.PutU32(blk)
	}
}

// swapSlab is the ring's take: the outgoing slab goes back with PutSlab
// and the incoming one is stored into the ring's slot. Must stay silent.
func swapSlab(r *wsRing, k int, cells uint64) []uint32 {
	if old := r.slabs[k%3]; old != nil {
		r.ar.PutSlab(old)
	}
	slab := r.ar.GetSlab(cells, cells, 16*cells)
	r.slabs[k%3] = slab
	return slab
}

// slabLeakOnAbort takes a slab and returns early on a stop without
// putting it back or storing it.
func slabLeakOnAbort(r *wsRing, cells uint64, stopped bool) error {
	slab := r.ar.GetSlab(cells, cells, 16*cells)
	if stopped {
		return errBoom // want `return path in slabLeakOnAbort leaks the arena block "slab"`
	}
	r.slabs[0] = slab
	return nil
}

// slabPutOnAbort is slabLeakOnAbort with the slab put back on the stop.
// Must stay silent.
func slabPutOnAbort(r *wsRing, cells uint64, stopped bool) error {
	slab := r.ar.GetSlab(cells, cells, 16*cells)
	if stopped {
		r.ar.PutSlab(slab)
		return errBoom
	}
	r.slabs[0] = slab
	return nil
}

// slabIntoRogueRing stores a slab into a slot of a struct outside the
// whitelist: reported at the store.
func slabIntoRogueRing(ar *Arena, rr *rogueRing, cells uint64) {
	slab := ar.GetSlab(cells, cells, 16*cells)
	rr.slabs[1] = slab // want `arena block stored into field rr\.slabs\[1\] of rogueRing`
}
