package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"obddopt/internal/truthtable"
)

func randomRoots(n, m int, rng *rand.Rand) []*truthtable.Table {
	out := make([]*truthtable.Table, m)
	for i := range out {
		out[i] = truthtable.Random(n, rng)
	}
	return out
}

func TestSharedSingleRootEqualsPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for trial := 0; trial < 15; trial++ {
		n := 2 + trial%5
		f := truthtable.Random(n, rng)
		plain := OptimalOrdering(f, nil)
		shared := OptimalOrderingShared([]*truthtable.Table{f}, nil)
		if plain.MinCost != shared.MinCost {
			t.Fatalf("n=%d: single-root shared %d != plain %d", n, shared.MinCost, plain.MinCost)
		}
	}
}

func TestSharedAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	for trial := 0; trial < 15; trial++ {
		n := 2 + trial%4 // 2..5
		m := 2 + trial%3 // 2..4 roots
		roots := randomRoots(n, m, rng)
		dp := OptimalOrderingShared(roots, nil)
		bf := BruteForceShared(roots, OBDD)
		if dp.MinCost != bf.MinCost {
			t.Fatalf("n=%d m=%d: shared DP %d != brute %d", n, m, dp.MinCost, bf.MinCost)
		}
		if got := SharedSizeUnder(roots, dp.Ordering, OBDD); got != dp.Size {
			t.Fatalf("shared ordering does not realize its size: %d vs %d", got, dp.Size)
		}
	}
}

func TestSharedZDDAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 8; trial++ {
		n := 2 + trial%4
		roots := randomRoots(n, 2, rng)
		dp := OptimalOrderingShared(roots, &SolveOptions{Rule: ZDD})
		bf := BruteForceShared(roots, ZDD)
		if dp.MinCost != bf.MinCost {
			t.Fatalf("ZDD shared: DP %d != brute %d", dp.MinCost, bf.MinCost)
		}
	}
}

func TestSharedDuplicateRootsAddNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(124))
	f := truthtable.Random(5, rng)
	one := OptimalOrderingShared([]*truthtable.Table{f}, nil)
	three := OptimalOrderingShared([]*truthtable.Table{f, f, f}, nil)
	if one.MinCost != three.MinCost {
		t.Fatalf("duplicated roots changed the shared size: %d vs %d", one.MinCost, three.MinCost)
	}
}

func TestSharedComplementSharesNothingButCosts(t *testing.T) {
	// f and ¬f share no nonterminal nodes in a diagram without complement
	// edges? They CAN share lower structure… but never exceed the sum.
	rng := rand.New(rand.NewSource(125))
	f := truthtable.Random(5, rng)
	g := f.Not()
	shared := OptimalOrderingShared([]*truthtable.Table{f, g}, nil)
	solo := OptimalOrdering(f, nil)
	if shared.MinCost < solo.MinCost {
		t.Fatalf("shared forest smaller than one of its members")
	}
	if shared.MinCost > 2*solo.MinCost {
		t.Fatalf("shared forest exceeds the sum of members: %d > 2·%d", shared.MinCost, solo.MinCost)
	}
}

func TestSharedBoundsAgainstSumAndMax(t *testing.T) {
	rng := rand.New(rand.NewSource(126))
	for trial := 0; trial < 10; trial++ {
		n := 3 + trial%3
		roots := randomRoots(n, 3, rng)
		shared := OptimalOrderingShared(roots, nil)
		var sum, max uint64
		for _, f := range roots {
			c := OptimalOrdering(f, nil).MinCost
			sum += c
			if c > max {
				max = c
			}
		}
		// The shared optimum lies between the largest member's optimum
		// and the sum of member optima… the lower bound is subtle
		// (members must share one ordering), so check only ≤ sum under a
		// common ordering and ≥ max of per-member sizes *under the shared
		// ordering's own profile consistency*:
		if shared.MinCost > sum {
			// Sharing can never exceed per-member optima summed? It can:
			// the shared ordering may be bad for an individual root. But
			// it cannot exceed the sum of the members' sizes under the
			// shared optimum's own ordering.
			var sumUnder uint64
			for _, f := range roots {
				for _, w := range Profile(f, shared.Ordering, OBDD, nil) {
					sumUnder += w
				}
			}
			if shared.MinCost > sumUnder {
				t.Fatalf("shared %d exceeds the per-root sum %d under its own ordering", shared.MinCost, sumUnder)
			}
		}
		_ = max
	}
}

func TestSharedAdderForest(t *testing.T) {
	// All outputs of a 3-bit adder in one forest: the known-good
	// interleaved ordering must be optimal or near; the shared optimum is
	// well below the sum of per-output optima (sharing pays).
	bits := 3
	var roots []*truthtable.Table
	for i := 0; i < bits; i++ {
		roots = append(roots, adderSumBit(bits, i))
	}
	roots = append(roots, adderCarry(bits))
	shared := OptimalOrderingShared(roots, nil)
	var sum uint64
	for _, f := range roots {
		sum += OptimalOrdering(f, nil).MinCost
	}
	if shared.MinCost >= sum {
		t.Errorf("adder forest does not share: %d ≥ %d", shared.MinCost, sum)
	}
	// Profile must sum to MinCost.
	var psum uint64
	for _, w := range shared.Profile {
		psum += w
	}
	if psum != shared.MinCost {
		t.Errorf("shared profile sum %d != MinCost %d", psum, shared.MinCost)
	}
}

func adderSumBit(bits, i int) *truthtable.Table {
	return truthtable.FromFunc(2*bits, func(x []bool) bool {
		var a, b uint64
		for j := 0; j < bits; j++ {
			if x[j] {
				a |= 1 << uint(j)
			}
			if x[bits+j] {
				b |= 1 << uint(j)
			}
		}
		return (a+b)>>uint(i)&1 == 1
	})
}

func adderCarry(bits int) *truthtable.Table {
	return adderSumBit(bits, bits)
}

// refForest builds the shared forest of roots under ord with the
// reference builder, which shares no code with compaction: one memo
// across the roots counts each distinct (level, subfunction) node once.
// It returns the per-level widths, bottom-up, and their total.
func refForest(roots []*truthtable.Table, ord truthtable.Ordering, rule Rule) ([]uint64, uint64) {
	b := &refBuilder{rule: rule, memo: map[string]uint32{}, next: 2, widths: make([]uint64, len(ord))}
	for _, f := range roots {
		b.build(f, ord)
	}
	return b.widths, uint64(b.nodes)
}

// TestSharedProfileMatchesBDDManagerUnion is the structural cross-check
// of the concatenated shared layout: under a random ordering, the shared
// per-level widths equal the reference builder's joint node counts, for
// both rules, 1–4 roots (one case repeating a root) and n 0–6.
func TestSharedProfileMatchesBDDManagerUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	rootCases := []struct {
		roots int
		dup   bool // the last root repeats the first
	}{{1, false}, {2, false}, {3, false}, {4, false}, {3, true}}
	for _, rule := range []Rule{OBDD, ZDD} {
		for _, rc := range rootCases {
			for n := 0; n <= 6; n++ {
				roots := randomRoots(n, rc.roots, rng)
				if rc.dup {
					roots[len(roots)-1] = roots[0]
				}
				ord := truthtable.RandomOrdering(n, rng)
				want, _ := refForest(roots, ord, rule)
				if got := SharedProfile(roots, ord, rule); !slices.Equal(got, want) {
					t.Fatalf("%s n=%d roots=%d dup=%v ord=%v: shared profile %v != reference %v",
						rule, n, rc.roots, rc.dup, ord, got, want)
				}
			}
		}
	}
}

func TestSharedPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"no roots":        func() { OptimalOrderingShared(nil, nil) },
		"mixed vars":      func() { OptimalOrderingShared([]*truthtable.Table{truthtable.New(2), truthtable.New(3)}, nil) },
		"profile empty":   func() { SharedProfile(nil, nil, OBDD) },
		"profile perm":    func() { SharedProfile([]*truthtable.Table{truthtable.New(2)}, truthtable.Ordering{0, 0}, OBDD) },
		"brute no roots":  func() { BruteForceShared(nil, OBDD) },
		"engine no roots": func() { mustResult(OptimalOrderingSharedParallel(nil, nil, nil)) },
		"engine mixed vars": func() {
			mustResult(OptimalOrderingSharedParallel(nil, []*truthtable.Table{truthtable.New(3), truthtable.New(4)}, nil))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSharedMeterLeakFree(t *testing.T) {
	rng := rand.New(rand.NewSource(128))
	m := &Meter{}
	OptimalOrderingShared(randomRoots(5, 3, rng), &SolveOptions{Meter: m})
	if m.LiveCells != 0 {
		t.Errorf("LiveCells = %d after shared run", m.LiveCells)
	}
}

// TestSharedEngineEarlyStop pins the engine's early-stop contract on the
// shared problem: a pre-canceled context, a node budget and a cell budget
// each stop the run with the sentinel error and a nil result, and leave
// the meter with no live cells.
func TestSharedEngineEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(129))
	roots := randomRoots(8, 3, rng)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name   string
		ctx    context.Context
		budget Budget
		want   error
	}{
		{"pre-canceled", canceled, Budget{}, ErrCanceled},
		{"max-nodes", nil, Budget{MaxNodes: 40}, ErrBudgetExceeded},
		{"max-cells", nil, Budget{MaxCells: 1000}, ErrBudgetExceeded},
	} {
		for _, workers := range []int{1, 2} {
			m := &Meter{}
			res, err := OptimalOrderingSharedParallel(tc.ctx, roots, &SolveOptions{Meter: m, Budget: tc.budget, Workers: workers})
			if !errors.Is(err, tc.want) {
				t.Errorf("%s w=%d: err = %v, want %v", tc.name, workers, err, tc.want)
			}
			if res != nil {
				t.Errorf("%s w=%d: res = %+v, want nil", tc.name, workers, res)
			}
			if m.LiveCells != 0 {
				t.Errorf("%s w=%d: LiveCells = %d after the stop, want 0", tc.name, workers, m.LiveCells)
			}
		}
	}
}

// TestSharedEngineCellBudgetBoundary pins where MaxCells stops the shared
// engine. At one worker the schedule is deterministic, so the metered
// peak of an unlimited run is the smallest cell budget under which the
// same run finishes: a budget of exactly the peak succeeds, one cell less
// stops it.
func TestSharedEngineCellBudgetBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(130))
	for _, nRoots := range []int{2, 3} {
		roots := randomRoots(7, nRoots, rng)
		free := &Meter{}
		want := mustResult(OptimalOrderingSharedParallel(nil, roots, &SolveOptions{Meter: free, Workers: 1}))
		peak := free.PeakCells

		at := &Meter{}
		got, err := OptimalOrderingSharedParallel(nil, roots, &SolveOptions{Meter: at, Workers: 1, Budget: Budget{MaxCells: peak}})
		if err != nil {
			t.Fatalf("roots=%d MaxCells=%d (the peak): %v", nRoots, peak, err)
		}
		if got.MinCost != want.MinCost || at.PeakCells != peak {
			t.Errorf("roots=%d: budgeted run cost %d peak %d, unlimited cost %d peak %d",
				nRoots, got.MinCost, at.PeakCells, want.MinCost, peak)
		}

		below := &Meter{}
		res, err := OptimalOrderingSharedParallel(nil, roots, &SolveOptions{Meter: below, Workers: 1, Budget: Budget{MaxCells: peak - 1}})
		if !errors.Is(err, ErrBudgetExceeded) || res != nil {
			t.Errorf("roots=%d MaxCells=%d (peak-1): res %v err %v, want nil and ErrBudgetExceeded", nRoots, peak-1, res, err)
		}
		if below.LiveCells != 0 {
			t.Errorf("roots=%d: LiveCells = %d after the stop, want 0", nRoots, below.LiveCells)
		}
	}
}
