package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"obddopt/internal/obs"
	"obddopt/internal/truthtable"
)

func TestBranchAndBoundAgreesWithFS(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 30; trial++ {
		n := 2 + trial%6 // 2..7
		f := truthtable.Random(n, rng)
		fs := OptimalOrdering(f, nil)
		bb := BranchAndBound(f, nil)
		if fs.MinCost != bb.MinCost {
			t.Fatalf("n=%d: B&B %d != FS %d (f=%s)", n, bb.MinCost, fs.MinCost, f.Hex())
		}
		if got := SizeUnder(f, bb.Ordering, OBDD, nil); got != bb.Size {
			t.Fatalf("B&B ordering does not realize its size")
		}
	}
}

func TestBranchAndBoundZDD(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	for trial := 0; trial < 15; trial++ {
		n := 2 + trial%5
		f := truthtable.Random(n, rng)
		fs := OptimalOrdering(f, &SolveOptions{Rule: ZDD})
		bb := BranchAndBound(f, &SolveOptions{Rule: ZDD})
		if fs.MinCost != bb.MinCost {
			t.Fatalf("ZDD n=%d: B&B %d != FS %d (f=%s)", n, bb.MinCost, fs.MinCost, f.Hex())
		}
	}
}

func TestBranchAndBoundLowerBoundAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	f := truthtable.Random(7, rng)
	withLB, withoutLB := &Meter{}, &Meter{}
	a := BranchAndBound(f, &SolveOptions{Meter: withLB})
	b := BranchAndBound(f, &SolveOptions{Meter: withoutLB, DisableLowerBound: true})
	if a.MinCost != b.MinCost {
		t.Fatalf("lower bound changed the optimum")
	}
	if withLB.CellOps > withoutLB.CellOps {
		t.Errorf("lower bound increased work: %d > %d", withLB.CellOps, withoutLB.CellOps)
	}
}

func TestBranchAndBoundSeededBound(t *testing.T) {
	rng := rand.New(rand.NewSource(114))
	f := truthtable.Random(6, rng)
	exact := OptimalOrdering(f, nil)
	// Seeding with the exact optimum + 1 must still find the optimum and
	// prune at least as much as unseeded.
	seeded, unseeded := &Meter{}, &Meter{}
	a := BranchAndBound(f, &SolveOptions{InitialBound: exact.MinCost + 1, Meter: seeded})
	b := BranchAndBound(f, &SolveOptions{Meter: unseeded})
	if a.MinCost != exact.MinCost || b.MinCost != exact.MinCost {
		t.Fatalf("seeded/unseeded optimum wrong: %d %d vs %d", a.MinCost, b.MinCost, exact.MinCost)
	}
	if seeded.CellOps > unseeded.CellOps {
		t.Errorf("seeding increased work")
	}
	// Seeding BELOW the optimum triggers the documented unseeded rerun.
	if exact.MinCost > 0 {
		c := BranchAndBound(f, &SolveOptions{InitialBound: exact.MinCost})
		if c.MinCost != exact.MinCost {
			t.Errorf("under-seeded run returned %d, want %d", c.MinCost, exact.MinCost)
		}
	}
	// The rerun keeps every other option: with the lower bound disabled,
	// neither pass may prune by it.
	rng = rand.New(rand.NewSource(4242))
	for n := 4; n <= 8; n++ {
		f := truthtable.Random(n, rng)
		want := OptimalOrdering(f, nil).MinCost
		rec := obs.NewRecorder()
		got := BranchAndBound(f, &SolveOptions{InitialBound: want, DisableLowerBound: true, Trace: rec})
		if got.MinCost != want {
			t.Errorf("n=%d: seeded at the optimum without the lower bound: MinCost %d, want %d", n, got.MinCost, want)
		}
		if c := rec.Count(obs.KindBnBPruneBound); c != 0 {
			t.Errorf("n=%d: %d lower-bound prunes with the lower bound disabled", n, c)
		}
	}
}

// TestBranchAndBoundRerunKeepsBudget checks that the unseeded rerun of
// a search seeded at its optimum spends from the first pass's node
// budget and meter. Each expansion compacts one table, so a Meter's
// Compactions count expansions; the rerun repeats the unseeded search
// exactly, so the first pass expanded the difference.
func TestBranchAndBoundRerunKeepsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	firstPasses := 0
	for n := 4; n <= 8; n++ {
		f := truthtable.Random(n, rng)
		unseeded, both := &Meter{}, &Meter{}
		want := BranchAndBound(f, &SolveOptions{Meter: unseeded})
		BranchAndBound(f, &SolveOptions{InitialBound: want.MinCost, Meter: both})
		first := both.Compactions - unseeded.Compactions
		if first > 0 {
			firstPasses++
			m := &Meter{}
			res, err := BranchAndBoundCtx(nil, f, &SolveOptions{
				InitialBound: want.MinCost, Meter: m, Budget: Budget{MaxNodes: unseeded.Compactions},
			})
			if !errors.Is(err, ErrBudgetExceeded) {
				t.Errorf("n=%d: first pass %d + rerun %d expansions under MaxNodes %d: err = %v, want ErrBudgetExceeded",
					n, first, unseeded.Compactions, unseeded.Compactions, err)
			}
			if m.LiveCells != 0 {
				t.Errorf("n=%d: LiveCells = %d after the budget stop, want 0", n, m.LiveCells)
			}
			// Only the rerun can hold an incumbent: nothing beats a
			// bound at the optimum.
			if res != nil && (res.MinCost < want.MinCost || SizeUnder(f, res.Ordering, OBDD, nil) != res.Size) {
				t.Errorf("n=%d: early-stop incumbent %d (ordering %v) is not a realized ordering at or above the optimum %d",
					n, res.MinCost, res.Ordering, want.MinCost)
			}
		}
		res, err := BranchAndBoundCtx(nil, f, &SolveOptions{
			InitialBound: want.MinCost, Budget: Budget{MaxNodes: both.Compactions},
		})
		if err != nil || res.MinCost != want.MinCost {
			t.Errorf("n=%d: MaxNodes %d covers both passes: err = %v, want the optimum %d", n, both.Compactions, err, want.MinCost)
		} else if !slices.Equal(res.Ordering, want.Ordering) {
			t.Errorf("n=%d: ordering %v, unseeded %v", n, res.Ordering, want.Ordering)
		}
	}
	if firstPasses == 0 {
		t.Fatal("no seeded first pass expanded a node; the budget carry-over went untested")
	}
}

func TestBranchAndBoundSpaceAdvantage(t *testing.T) {
	// The DFS keeps only one path of tables: peak cells must be far below
	// the dynamic program's layer peak (the trade E15 measures).
	rng := rand.New(rand.NewSource(115))
	f := truthtable.Random(9, rng)
	bbM, fsM := &Meter{}, &Meter{}
	BranchAndBound(f, &SolveOptions{Meter: bbM})
	OptimalOrdering(f, &SolveOptions{Meter: fsM})
	if bbM.PeakCells >= fsM.PeakCells {
		t.Errorf("B&B peak %d not below FS peak %d", bbM.PeakCells, fsM.PeakCells)
	}
	// Path tables: 2^n + 2^n + 2^{n-1} + … < 3·2^n.
	if bbM.PeakCells > 3*(1<<9) {
		t.Errorf("B&B peak %d exceeds the path bound", bbM.PeakCells)
	}
}

func TestBranchAndBoundTiny(t *testing.T) {
	for _, v := range []bool{false, true} {
		res := BranchAndBound(truthtable.Const(0, v), nil)
		if res.MinCost != 0 {
			t.Errorf("constant: MinCost %d", res.MinCost)
		}
	}
	res := BranchAndBound(truthtable.Var(1, 0), nil)
	if res.MinCost != 1 {
		t.Errorf("x0: MinCost %d", res.MinCost)
	}
}
