package core

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"obddopt/internal/bitops"
	"obddopt/internal/funcs"
	"obddopt/internal/obs"
	"obddopt/internal/truthtable"
)

// TestClaimEligibility drives claim directly on a one-worker engine over
// 2-rank shards. It claims every eligible shard without running it, then
// runs one waiting shard and claims again, holding back each layer's last
// shard while any other waits, so later layers' prefixes advance while an
// earlier layer still has a shard outstanding. Every layer-j claim must
// find layer j−2 complete and layer j−1's compacted prefix covering the
// shard's watermark, shards must come in rank order with none claimed
// twice or skipped, and the run must end with the serial DP's cost and
// ordering.
func TestClaimEligibility(t *testing.T) {
	f := truthtable.Random(7, rand.New(rand.NewSource(227)))
	serial := OptimalOrdering(f, nil)
	e := newWSEngine(nil, baseContext(f), singletons(7), 1, &SolveOptions{ShardBits: 1})
	defer e.releaseAll()
	next := make([]int, e.n+1) // next[j]: the shards of layer j claimed so far
	var waiting []wsTask
	for !e.finished() {
		for tk, ok := e.claim(); ok; tk, ok = e.claim() {
			j, s := tk.layer, tk.shard
			switch covered, mark := e.layers[j-1].covered(), e.layers[j].watermark[s]; {
			case s != next[j]:
				t.Fatalf("claimed layer %d shard %d, want shard %d next", j, s, next[j])
			case j >= 2 && !e.layers[j-2].complete():
				t.Fatalf("claimed layer %d shard %d with layer %d incomplete", j, s, j-2)
			case covered < mark:
				t.Fatalf("claimed layer %d shard %d with %d ranks of layer %d compacted, below its watermark %d", j, s, covered, j-1, mark)
			}
			next[j]++
			waiting = append(waiting, tk)
		}
		if len(waiting) == 0 {
			t.Fatal("no shard eligible or waiting before the last layer completed")
		}
		i := max(0, slices.IndexFunc(waiting, func(tk wsTask) bool { return tk.shard < e.layers[tk.layer].nShards-1 }))
		tk := waiting[i]
		waiting = slices.Delete(waiting, i, i+1)
		e.runShard(0, tk)
	}
	if err := e.failErr(); err != nil {
		t.Fatal(err)
	}
	for j := 1; j <= e.n; j++ {
		if next[j] != e.layers[j].nShards {
			t.Errorf("layer %d: %d of %d shards claimed", j, next[j], e.layers[j].nShards)
		}
	}
	if cost, order := e.layers[e.n].costs[0], e.ordering(); cost != serial.MinCost || !slices.Equal(order, serial.Ordering) {
		t.Fatalf("claimed run: cost %d ordering %v, serial %d %v", cost, order, serial.MinCost, serial.Ordering)
	}
}

// TestWSWorkerGenWraparound checks the class pass's label scratch: it is
// allocated only when a label needs it, sized to the next power of two
// above the largest label seen and grown on demand with the current
// pass's stamps kept, and a generation wraparound clears it instead of
// aliasing stale stamps.
func TestWSWorkerGenWraparound(t *testing.T) {
	wk := &wsWorker{}
	if g := wk.nextGen(); g != 1 {
		t.Fatalf("first nextGen = %d, want 1", g)
	}
	if wk.seen != nil {
		t.Fatalf("nextGen allocated %d labels before any was seen", len(wk.seen))
	}
	if reps := wk.classReps([]uint32{7, 3, 7, 100, 3}, false, nil); !slices.Equal(reps, []uint32{0, 1, 3}) {
		t.Fatalf("reps = %v, want [0 1 3]", reps)
	}
	if len(wk.seen) != 128 {
		t.Fatalf("seen len = %d after labels up to 100, want 128", len(wk.seen))
	}
	// Growing mid-pass keeps the stamps of labels seen before it.
	if reps := wk.classReps([]uint32{5, 300, 5, 128, 300}, false, nil); !slices.Equal(reps, []uint32{0, 1, 3}) {
		t.Fatalf("reps across a growth = %v, want [0 1 3]", reps)
	}
	if len(wk.seen) != 512 {
		t.Fatalf("seen len = %d after label 300, want 512", len(wk.seen))
	}
	wk.gen = ^uint32(0)
	if g := wk.nextGen(); g != 1 {
		t.Fatalf("nextGen after wrap = %d, want 1", g)
	}
	if wk.seen[5] != 0 || wk.seen[300] != 0 {
		t.Fatal("wraparound did not clear stale stamps")
	}
}

// TestParallelCellBudget covers the live-cell budget at allocation
// granularity: a cap below base+first-table trips ErrBudgetExceeded
// with the drain contract, while a generous cap completes bit-identical
// to the serial DP through the same checked path.
func TestParallelCellBudget(t *testing.T) {
	f := truthtable.Random(10, rand.New(rand.NewSource(222)))
	m := &Meter{}
	res, err := OptimalOrderingParallel(nil, f, &SolveOptions{
		Workers: 2,
		Meter:   m,
		Budget:  Budget{MaxCells: 1100}, // base 1024 + first 512-cell table exceeds this
	})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if res != nil {
		t.Fatalf("res = %+v, want nil", res)
	}
	if m.LiveCells != 0 {
		t.Errorf("LiveCells = %d after budget stop, want 0", m.LiveCells)
	}

	g := truthtable.Random(7, rand.New(rand.NewSource(223)))
	serial := OptimalOrdering(g, nil)
	ok := mustResult(OptimalOrderingParallel(nil, g, &SolveOptions{
		Workers: 2,
		Budget:  Budget{MaxCells: 1 << 20},
	}))
	if ok.MinCost != serial.MinCost {
		t.Fatalf("budgeted run cost %d != serial %d", ok.MinCost, serial.MinCost)
	}
}

// TestEngineInlineBelowThreshold pins the default schedule's sizing: a
// run OrbitBounds prices below engineInlineCellOps spawns no goroutine
// (its one worker runs on the caller), a larger one spawns GOMAXPROCS−1
// beside worker 0, and an explicit Workers is kept as given.
func TestEngineInlineBelowThreshold(t *testing.T) {
	spawns := func(tt *truthtable.Table, workers int) uint64 {
		before := obs.Metrics.WorkerSpawns.Value()
		mustResult(OptimalOrderingParallel(nil, tt, &SolveOptions{Workers: workers}))
		return obs.Metrics.WorkerSpawns.Value() - before
	}
	rng := rand.New(rand.NewSource(224))
	small, large := truthtable.Random(9, rng), truthtable.Random(11, rng)
	if ops, _ := OrbitBounds(singletons(9)); ops >= engineInlineCellOps {
		t.Fatalf("n=9 prices at %d cell ops, not below the %d threshold", ops, engineInlineCellOps)
	}
	if got := spawns(small, 0); got != 0 {
		t.Errorf("small default run spawned %d goroutines, want 0", got)
	}
	if got, want := spawns(large, 0), uint64(runtime.GOMAXPROCS(0)-1); got != want {
		t.Errorf("large default run spawned %d goroutines, want %d", got, want)
	}
	if got := spawns(small, 3); got != 2 {
		t.Errorf("explicit 3-worker run spawned %d goroutines, want 2", got)
	}
}

// TestEngineWideMode drives runShard's wide path — node IDs past 2^16,
// where class representatives are collected through the dedup table
// instead of the direct-index scratch — on small inputs by starting the
// base's ID space at 2^16: the run's cost is offset by exactly that
// much, and its ordering is the serial DP's, on the full lattice and
// over symmetry orbits.
func TestEngineWideMode(t *testing.T) {
	for _, tt := range []*truthtable.Table{
		truthtable.Random(8, rand.New(rand.NewSource(225))),
		funcs.AchillesHeel(4),
		funcs.Threshold(8, 3),
	} {
		for _, rule := range []Rule{OBDD, ZDD} {
			want := OptimalOrdering(tt, &SolveOptions{Rule: rule})
			for _, groups := range [][]bitops.Mask{singletons(tt.NumVars()), truthtable.Groups(tt)} {
				base := baseContext(tt)
				base.cost = 1 << 16
				m := &Meter{}
				cost, order, err := runEngine(nil, base, groups, &SolveOptions{Rule: rule, Workers: 2}, m)
				if err != nil {
					t.Fatal(err)
				}
				if cost-base.cost != want.MinCost || !slices.Equal(order, want.Ordering) {
					t.Fatalf("%v groups %v: wide-mode cost %d ordering %v, serial %d %v", rule, groups, cost-base.cost, order, want.MinCost, want.Ordering)
				}
				if m.LiveCells != 0 {
					t.Fatalf("%v groups %v: %d live cells after the run", rule, groups, m.LiveCells)
				}
			}
		}
	}
}

// TestEngineWideModeCellBudget sweeps MaxCells over a one-worker wide-mode
// run, from the base alone up to the run's peak, so that somewhere in the
// sweep every allocation is the first one past the budget, the class
// representatives' block included: each run either stops with
// ErrBudgetExceeded and no live cells or finishes with the serial DP's
// result.
func TestEngineWideModeCellBudget(t *testing.T) {
	tt := truthtable.Random(7, rand.New(rand.NewSource(226)))
	want := OptimalOrdering(tt, nil)
	run := func(maxCells uint64) (uint64, truthtable.Ordering, *Meter, error) {
		base := baseContext(tt)
		base.cost = 1 << 16
		m := &Meter{}
		cost, order, err := runEngine(nil, base, singletons(7), &SolveOptions{Workers: 1, Budget: Budget{MaxCells: maxCells}}, m)
		return cost - base.cost, order, m, err
	}
	_, _, full, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	stops := 0
	for extra := uint64(0); extra <= full.PeakCells; extra++ {
		cost, order, m, err := run(1<<7 + extra)
		switch {
		case errors.Is(err, ErrBudgetExceeded):
			stops++
		case err != nil:
			t.Fatalf("MaxCells base+%d: %v", extra, err)
		case cost != want.MinCost || !slices.Equal(order, want.Ordering):
			t.Fatalf("MaxCells base+%d: cost %d ordering %v, serial %d %v", extra, cost, order, want.MinCost, want.Ordering)
		}
		if m.LiveCells != 0 {
			t.Fatalf("MaxCells base+%d: %d live cells after the run", extra, m.LiveCells)
		}
	}
	if stops == 0 || stops > int(full.PeakCells) {
		t.Errorf("%d budget stops over %d budgets", stops, full.PeakCells+1)
	}
}
