package core

import (
	stdctx "context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"obddopt/internal/truthtable"
)

// TestParallelMatchesSerialExactly is the bit-identity property of the
// work-stealing pipeline: for every worker count and shard granularity,
// cost, ordering (including tie-breaking) and profile equal the serial
// dynamic program's exactly.
func TestParallelMatchesSerialExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	workerCounts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	for trial := 0; trial < 12; trial++ {
		n := 2 + trial%7 // 2..8
		f := truthtable.Random(n, rng)
		serial := OptimalOrdering(f, nil)
		for _, workers := range workerCounts {
			for _, shardBits := range []int{0, 1, 3} {
				par := mustResult(OptimalOrderingParallel(nil, f,
					&SolveOptions{Workers: workers, ShardBits: shardBits}))
				if serial.MinCost != par.MinCost {
					t.Fatalf("n=%d w=%d sb=%d: parallel %d != serial %d",
						n, workers, shardBits, par.MinCost, serial.MinCost)
				}
				// Bit-identical including tie-breaking.
				for i := range serial.Ordering {
					if serial.Ordering[i] != par.Ordering[i] {
						t.Fatalf("n=%d w=%d sb=%d: ordering differs: %v vs %v",
							n, workers, shardBits, par.Ordering, serial.Ordering)
					}
				}
				for i := range serial.Profile {
					if serial.Profile[i] != par.Profile[i] {
						t.Fatalf("n=%d w=%d sb=%d: profile differs: %v vs %v",
							n, workers, shardBits, par.Profile, serial.Profile)
					}
				}
			}
		}
	}
}

func TestParallelZDD(t *testing.T) {
	rng := rand.New(rand.NewSource(152))
	for trial := 0; trial < 8; trial++ {
		n := 3 + trial%4
		f := truthtable.Random(n, rng)
		serial := OptimalOrdering(f, &SolveOptions{Rule: ZDD})
		par := mustResult(OptimalOrderingParallel(nil, f,
			&SolveOptions{Rule: ZDD, Workers: 3, ShardBits: 2}))
		if serial.MinCost != par.MinCost {
			t.Fatalf("ZDD n=%d: parallel %d != serial %d", n, par.MinCost, serial.MinCost)
		}
		for i := range serial.Ordering {
			if serial.Ordering[i] != par.Ordering[i] {
				t.Fatalf("ZDD n=%d: ordering differs: %v vs %v", n, par.Ordering, serial.Ordering)
			}
		}
	}
}

func TestParallelMeterConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(153))
	f := truthtable.Random(8, rng)
	sm, pm := &Meter{}, &Meter{}
	OptimalOrdering(f, &SolveOptions{Meter: sm})
	mustResult(OptimalOrderingParallel(nil, f, &SolveOptions{Workers: 4, Meter: pm}))
	// Cell operations and transitions are identical work regardless of
	// scheduling: the pipeline charges every candidate — built or
	// priced by class — the same table size the serial DP charges.
	if sm.CellOps != pm.CellOps {
		t.Errorf("parallel CellOps %d != serial %d", pm.CellOps, sm.CellOps)
	}
	if sm.Compactions != pm.Compactions {
		t.Errorf("parallel Compactions %d != serial %d", pm.Compactions, sm.Compactions)
	}
	if pm.LiveCells != 0 {
		t.Errorf("parallel meter leaks: LiveCells %d", pm.LiveCells)
	}
	// PeakCells is NOT compared against the serial meter: the pipeline's
	// three-layer window can exceed the serial rolling pair, while its
	// class pricing never allocates the dropped candidates the serial DP
	// briefly holds — so the peak may land on either side.
	if pm.PeakCells == 0 {
		t.Errorf("parallel PeakCells = 0, want > 0")
	}
}

func TestParallelDefaultsAndTinyInputs(t *testing.T) {
	// nil options and n ≤ 2 run on the engine and match the serial DP.
	for n := 0; n <= 2; n++ {
		var f *truthtable.Table
		if n == 0 {
			f = truthtable.Const(0, true)
		} else {
			f = truthtable.Var(n, 0)
		}
		serial := OptimalOrdering(f, nil)
		par := mustResult(OptimalOrderingParallel(nil, f, nil))
		if serial.MinCost != par.MinCost {
			t.Errorf("n=%d: parallel MinCost %d != serial %d", n, par.MinCost, serial.MinCost)
		}
	}
}

// TestParallelStealStorm drives the scheduler into its contended regime:
// shards of two ranks (ShardBits: 1) and more workers than layers have
// shards, so nearly every task moves through a steal. Meaningful under
// `go test -race`; correctness is still bit-identity with serial.
func TestParallelStealStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(154))
	for trial := 0; trial < 3; trial++ {
		n := 8 + trial // 8..10
		f := truthtable.Random(n, rng)
		serial := OptimalOrdering(f, nil)
		par := mustResult(OptimalOrderingParallel(nil, f,
			&SolveOptions{Workers: 8, ShardBits: 1}))
		if serial.MinCost != par.MinCost {
			t.Fatalf("n=%d: steal-storm cost %d != serial %d", n, par.MinCost, serial.MinCost)
		}
		for i := range serial.Ordering {
			if serial.Ordering[i] != par.Ordering[i] {
				t.Fatalf("n=%d: steal-storm ordering differs: %v vs %v",
					n, par.Ordering, serial.Ordering)
			}
		}
	}
}

// TestParallelPinned checks the no-stealing schedule: results stay
// bit-identical when workers only run shards they claimed themselves.
func TestParallelPinned(t *testing.T) {
	f := truthtable.Random(8, rand.New(rand.NewSource(155)))
	serial := OptimalOrdering(f, nil)
	par := mustResult(OptimalOrderingParallel(nil, f,
		&SolveOptions{Workers: 4, ShardBits: 2, Pinned: true}))
	if serial.MinCost != par.MinCost {
		t.Fatalf("pinned cost %d != serial %d", par.MinCost, serial.MinCost)
	}
	for i := range serial.Ordering {
		if serial.Ordering[i] != par.Ordering[i] {
			t.Fatalf("pinned ordering differs: %v vs %v", par.Ordering, serial.Ordering)
		}
	}
}

// TestParallelCancellationDrains cancels mid-run and checks the drain
// contract: ErrCanceled, nil result, and a meter whose live cells return
// to zero — every deque drained and every engine-owned table released.
func TestParallelCancellationDrains(t *testing.T) {
	f := truthtable.Random(10, rand.New(rand.NewSource(156)))
	ctx, cancel := stdctx.WithCancel(stdctx.Background())
	cancel() // pre-canceled: the first checkpoint stops every worker
	m := &Meter{}
	res, err := OptimalOrderingParallel(ctx, f, &SolveOptions{Workers: 4, Meter: m})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res != nil {
		t.Fatalf("res = %+v, want nil", res)
	}
	if m.LiveCells != 0 {
		t.Errorf("LiveCells = %d after cancellation, want 0", m.LiveCells)
	}
}

// TestParallelBudgetDrains exhausts the node budget mid-pipeline with
// tiny shards and checks the same drain contract for ErrBudgetExceeded.
func TestParallelBudgetDrains(t *testing.T) {
	f := truthtable.Random(10, rand.New(rand.NewSource(157)))
	m := &Meter{}
	res, err := OptimalOrderingParallel(nil, f, &SolveOptions{
		Workers:   4,
		ShardBits: 1,
		Meter:     m,
		Budget:    Budget{MaxNodes: 500},
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
}

// TestSharedParallelMatchesSerial is the bit-identity property of the
// shared-forest DP on the work-stealing engine: for every schedule
// (workers × shard bits × pinning), both rules, 1–4 roots (one case
// repeating a root) and n 0–10, MinCost, Ordering, Profile,
// Meter.CellOps and Meter.Compactions equal the serial shared DP's
// exactly, and the meter ends with no live cells.
func TestSharedParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(158))
	rootCases := []struct {
		roots int
		dup   bool // the last root repeats the first
	}{{1, false}, {2, false}, {3, false}, {4, false}, {3, true}}
	trial := 0
	for _, rule := range []Rule{OBDD, ZDD} {
		for _, rc := range rootCases {
			for rep := 0; rep < 2; rep++ {
				n := trial % 11 // 0..10
				trial++
				roots := randomRoots(n, rc.roots, rng)
				if rc.dup {
					roots[len(roots)-1] = roots[0]
				}
				sm := &Meter{}
				serial := OptimalOrderingShared(roots, &SolveOptions{Rule: rule, Meter: sm})
				for _, workers := range []int{1, 2, 4} {
					for _, shardBits := range []int{0, 1} {
						for _, pinned := range []bool{false, true} {
							m := &Meter{}
							par, err := OptimalOrderingSharedParallel(nil, roots, &SolveOptions{
								Rule: rule, Meter: m, Workers: workers, ShardBits: shardBits, Pinned: pinned,
							})
							where := fmt.Sprintf("%s n=%d roots=%d dup=%v w=%d sb=%d pinned=%v",
								rule, n, rc.roots, rc.dup, workers, shardBits, pinned)
							if err != nil {
								t.Fatalf("%s: %v", where, err)
							}
							if par.MinCost != serial.MinCost {
								t.Fatalf("%s: MinCost %d != serial %d", where, par.MinCost, serial.MinCost)
							}
							if !slices.Equal(par.Ordering, serial.Ordering) {
								t.Fatalf("%s: ordering %v != serial %v", where, par.Ordering, serial.Ordering)
							}
							if !slices.Equal(par.Profile, serial.Profile) {
								t.Fatalf("%s: profile %v != serial %v", where, par.Profile, serial.Profile)
							}
							if m.CellOps != sm.CellOps || m.Compactions != sm.Compactions {
								t.Fatalf("%s: CellOps %d Compactions %d != serial %d %d",
									where, m.CellOps, m.Compactions, sm.CellOps, sm.Compactions)
							}
							if m.LiveCells != 0 {
								t.Errorf("%s: LiveCells = %d after the run, want 0", where, m.LiveCells)
							}
						}
					}
				}
			}
		}
	}
}

func BenchmarkParallelFS12(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	f := truthtable.Random(12, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustResult(OptimalOrderingParallel(nil, f, nil))
	}
}

// BenchmarkShared12 times the shared-forest DP on three random roots at
// n=12 (the benchmark suite's SolveShared input): the serial reference
// against the engine at GOMAXPROCS workers.
func BenchmarkShared12(b *testing.B) {
	roots := randomRoots(12, 3, rand.New(rand.NewSource(1)))
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			OptimalOrderingShared(roots, nil)
		}
	})
	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustResult(OptimalOrderingSharedParallel(nil, roots, nil))
		}
	})
}
