package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"obddopt/internal/bitops"
	"obddopt/internal/core/arena"
	"obddopt/internal/funcs"
	"obddopt/internal/truthtable"
)

// ringAudit follows one engine run's ring through ringHook: the slabs it
// holds, and how many it took and let go: swapped out of a slot, or held
// at release.
type ringAudit struct {
	t        *testing.T
	name     string
	need     []uint64  // need[k]: layer k's tables, in cells
	most     [3]uint64 // each slot's largest layer
	held     map[*uint32][]uint32
	taken    int
	fresh    int
	returned int
	released bool
}

// event is the ringHook callback. Runs are sequential, and the ring's
// lock serializes the events of one run.
func (a *ringAudit) event(ar *arena.Arena, k int, slab []uint32, fresh bool) {
	t := a.t
	switch {
	case k > 0:
		a.taken++
		if fresh {
			a.fresh++
		}
		a.held[&slab[0]] = slab
		if len(a.held) > 3 {
			t.Errorf("%s: %d slabs held at once after opening layer %d", a.name, len(a.held), k)
		}
		c := uint64(cap(slab))
		if c < a.need[k] || len(slab) != cap(slab) {
			t.Errorf("%s: layer %d needs %d cells, took a slab of len %d cap %d", a.name, k, a.need[k], len(slab), c)
		}
		if fresh && c != a.need[k] {
			t.Errorf("%s: fresh %d-cell slab for layer %d, which needs %d", a.name, c, k, a.need[k])
		}
		if c > wsSlabLimit*a.most[k%3] {
			t.Errorf("%s: layer %d took a %d-cell slab, above %d times its slot's largest layer %d", a.name, k, c, wsSlabLimit, a.most[k%3])
		}
	case k == 0:
		if a.held[&slab[0]] == nil {
			t.Errorf("%s: swapped out a %d-cell slab the ring did not hold", a.name, cap(slab))
		}
		delete(a.held, &slab[0])
		a.returned++
	default:
		// The released arena must hold exactly the held slabs: each comes
		// back from its size's list, and nothing else is left.
		var back [][]uint32
		for _, slab := range a.held {
			b := ar.GetU32(uint64(cap(slab)))
			back = append(back, b)
			if a.held[&b[0]] == nil {
				t.Errorf("%s: the released arena holds a %d-cell block the run did not hold at release", a.name, cap(b))
			}
		}
		if free := ar.FreeCells(); free != 0 {
			t.Errorf("%s: the released arena holds %d cells besides the run's slabs", a.name, free)
		}
		for _, b := range back {
			ar.PutU32(b)
		}
		a.returned += len(a.held)
		a.released = true
	}
}

// TestRingLifecycle runs the engine over a single root, a 3-root shared
// base and the orbit lattice of a symmetric input, each to completion, to
// a MaxNodes stop, to a MaxCells stop and pre-canceled, and audits the
// ring of layer slabs: every slab taken leaves the ring or is held at
// release, at most three are held at once, a pre-canceled run takes none,
// a fresh slab is exactly the layer that opened it, none exceeds
// wsSlabLimit times its slot's largest layer, and the released arena
// holds exactly the slabs the run held. Each case runs at one worker on an empty arena pool (two
// collections drop whatever sync.Pool holds), so its slabs are fresh,
// then at three workers on the arena that run released.
func TestRingLifecycle(t *testing.T) {
	audit := &ringAudit{t: t}
	ringHook = audit.event
	t.Cleanup(func() { ringHook = nil })

	rng := rand.New(rand.NewSource(2201))
	sym := funcs.AchillesHeel(5)
	inputs := []struct {
		name   string
		base   func() *fsContext
		groups []bitops.Mask
	}{
		{"single n=10", func() *fsContext { return baseContext(truthtable.Random(10, rng)) }, singletons(10)},
		{"shared n=8 roots=3", func() *fsContext { return baseContextShared(randomRoots(8, 3, rng)) }, singletons(8)},
		{"orbit " + fmt.Sprint(truthtable.Groups(sym)), func() *fsContext { return baseContext(sym) }, truthtable.Groups(sym)},
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, in := range inputs {
		states, _ := orbitLayers(in.groups)
		n := len(states) - 1
		for _, stop := range []string{"complete", "MaxNodes", "MaxCells", "pre-canceled"} {
			for _, workers := range []int{1, 3} {
				if workers == 1 {
					runtime.GC()
					runtime.GC()
				}
				base := in.base()
				*audit = ringAudit{t: t, name: fmt.Sprintf("%s %s workers=%d", in.name, stop, workers), held: map[*uint32][]uint32{}}
				audit.need = make([]uint64, n+1)
				for k := 1; k <= n; k++ {
					audit.need[k] = states[k] * (base.cells() >> uint(k))
					audit.most[k%3] = max(audit.most[k%3], audit.need[k])
				}
				ctx := context.Background()
				opts := &SolveOptions{Workers: workers, ShardBits: 1}
				switch stop {
				case "MaxNodes":
					opts.Budget = Budget{MaxNodes: uint64(20 * n)}
				case "MaxCells":
					_, peak := OrbitBounds(in.groups)
					opts.Budget = Budget{MaxCells: base.cells() + (peak-1<<uint(n))*(base.cells()>>uint(n))/2}
				case "pre-canceled":
					ctx = canceled
				}
				m := &Meter{}
				_, _, err := runEngine(ctx, base, in.groups, opts, m)
				switch {
				case stop == "complete" && err != nil:
					t.Fatalf("%s: %v", audit.name, err)
				case stop == "pre-canceled" && !errors.Is(err, ErrCanceled):
					t.Fatalf("%s: err = %v, want ErrCanceled", audit.name, err)
				case (stop == "MaxNodes" || stop == "MaxCells") && !errors.Is(err, ErrBudgetExceeded):
					t.Fatalf("%s: err = %v, want ErrBudgetExceeded", audit.name, err)
				}
				if stop == "pre-canceled" && audit.taken != 0 {
					t.Errorf("%s: a pre-canceled run took %d slabs", audit.name, audit.taken)
				}
				if stop != "pre-canceled" && (audit.taken == 0 || !audit.released) {
					t.Errorf("%s: took %d slabs, released %v", audit.name, audit.taken, audit.released)
				}
				if workers == 1 && audit.fresh != audit.taken {
					t.Errorf("%s: took %d slabs from an empty pool, %d of them fresh", audit.name, audit.taken, audit.fresh)
				}
				if audit.returned != audit.taken {
					t.Errorf("%s: took %d slabs, returned %d", audit.name, audit.taken, audit.returned)
				}
				if m.LiveCells != 0 {
					t.Errorf("%s: LiveCells = %d, want 0", audit.name, m.LiveCells)
				}
			}
		}
	}
}
