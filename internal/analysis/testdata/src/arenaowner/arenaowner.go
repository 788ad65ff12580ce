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

// fsContext and dpState mirror the whitelisted owners.
type fsContext struct {
	table []uint32
	cost  uint64
}

type dpState struct {
	tables [][]uint32
}

// rogueCache is NOT a sanctioned owner: blocks stored here can never be
// recycled.
type rogueCache struct {
	stash []uint32
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
