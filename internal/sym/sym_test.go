package sym

import (
	"math"
	"math/rand"
	"testing"

	"obddopt/internal/bitops"
	"obddopt/internal/core"
	"obddopt/internal/funcs"
	"obddopt/internal/truthtable"
)

func TestSymmetricPairBasics(t *testing.T) {
	// x0 ∧ x1 is symmetric in (0,1); x0 ∧ ¬x1 is not.
	and := truthtable.Var(2, 0).And(truthtable.Var(2, 1))
	if !truthtable.SymmetricPair(and, 0, 1) {
		t.Errorf("AND should be symmetric")
	}
	andn := truthtable.Var(2, 0).And(truthtable.Var(2, 1).Not())
	if truthtable.SymmetricPair(andn, 0, 1) {
		t.Errorf("x0∧¬x1 should not be symmetric")
	}
	if !truthtable.SymmetricPair(and, 1, 1) {
		t.Errorf("reflexive symmetry must hold")
	}
}

func TestSymmetricPairPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("no panic on bad index")
		}
	}()
	truthtable.SymmetricPair(truthtable.New(2), 0, 5)
}

func TestGroupsOfSymmetricFunctions(t *testing.T) {
	for name, f := range map[string]*truthtable.Table{
		"parity6":   funcs.Parity(6),
		"majority5": funcs.Majority(5),
		"threshold": funcs.Threshold(6, 2),
	} {
		if !TotallySymmetric(f) {
			t.Errorf("%s should be totally symmetric: groups %v", name, truthtable.Groups(f))
		}
	}
}

func TestGroupsOfAchillesHeel(t *testing.T) {
	// The pairs {2i, 2i+1} are the symmetry groups.
	f := funcs.AchillesHeel(3)
	groups := truthtable.Groups(f)
	if len(groups) != 3 {
		t.Fatalf("achilles groups = %v", groups)
	}
	for i, g := range groups {
		want := bitops.Mask(0b11) << uint(2*i)
		if g != want {
			t.Errorf("group %d = %#b, want %#b", i, g, want)
		}
	}
}

func TestGroupsOfAdder(t *testing.T) {
	// The carry of an adder is symmetric in each (a_i, b_i) pair.
	bits := 3
	f := funcs.AdderCarry(bits)
	groups := truthtable.Groups(f)
	if len(groups) != bits {
		t.Fatalf("adder carry groups = %v", groups)
	}
	for i, g := range groups {
		want := bitops.Mask(0).With(i).With(bits + i)
		if g != want {
			t.Errorf("group %d = %#b, want %#b", i, g, want)
		}
	}
}

func TestGroupsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 20; trial++ {
		n := 1 + trial%7
		f := truthtable.Random(n, rng)
		groups := truthtable.Groups(f)
		var union bitops.Mask
		for _, g := range groups {
			if g&union != 0 {
				t.Fatalf("groups overlap: %v", groups)
			}
			union |= g
		}
		if union != bitops.FullMask(n) {
			t.Fatalf("groups do not cover: %v", groups)
		}
	}
}

func TestGroupOrderingsYieldEqualSizes(t *testing.T) {
	// Permuting within a group never changes the diagram size — the
	// defining property the heuristic exploits.
	f := funcs.AdderCarry(3)
	groups := truthtable.Groups(f)
	rng := rand.New(rand.NewSource(132))
	base := flatten(groups, []int{0, 1, 2})
	baseCost := core.SizeUnder(f, base, core.OBDD, nil)
	for trial := 0; trial < 10; trial++ {
		// Shuffle members within each group, keep group order.
		var ord truthtable.Ordering
		for _, g := range groups {
			members := g.Members(nil)
			rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
			ord = append(ord, members...)
		}
		if core.SizeUnder(f, ord, core.OBDD, nil) != baseCost {
			t.Fatalf("within-group permutation changed the size")
		}
	}
}

func TestEffectiveOrderings(t *testing.T) {
	// Parity over 6 vars: one group of 6 → a single effective ordering.
	if got := EffectiveOrderings(truthtable.Groups(funcs.Parity(6))); got != 1 {
		t.Errorf("parity effective orderings = %v, want 1", got)
	}
	// Achilles 3 pairs: 6!/2!³ = 90.
	if got := EffectiveOrderings(truthtable.Groups(funcs.AchillesHeel(3))); math.Abs(got-90) > 1e-9 {
		t.Errorf("achilles effective orderings = %v, want 90", got)
	}
	// No symmetry: n! unchanged.
	singles := []bitops.Mask{1, 2, 4}
	if got := EffectiveOrderings(singles); got != 6 {
		t.Errorf("singleton groups = %v, want 6", got)
	}
}

func TestGroupSiftFindsOptimaOnStructured(t *testing.T) {
	for name, f := range map[string]*truthtable.Table{
		"achilles4":  funcs.AchillesHeel(4),
		"adder4":     funcs.AdderCarry(4),
		"comparator": funcs.Comparator(4),
	} {
		res := GroupSift(f, core.OBDD)
		opt := core.OptimalOrdering(f, nil).MinCost
		if res.MinCost != opt {
			t.Errorf("%s: group sift %d, optimal %d", name, res.MinCost, opt)
		}
		if !res.Ordering.Valid() {
			t.Errorf("%s: invalid ordering", name)
		}
	}
}

func TestGroupSiftSoundOnRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(133))
	for trial := 0; trial < 10; trial++ {
		n := 4 + trial%4
		f := truthtable.Random(n, rng)
		res := GroupSift(f, core.OBDD)
		if res.MinCost < core.OptimalOrdering(f, nil).MinCost {
			t.Fatalf("group sift beat the optimum")
		}
		// The reported cost must be realized by the ordering.
		widths := core.Profile(f, res.Ordering, core.OBDD, nil)
		var sum uint64
		for _, w := range widths {
			sum += w
		}
		if sum != res.MinCost {
			t.Fatalf("group sift misreports cost")
		}
	}
}

func TestGroupSiftCheaperThanPlainSiftOnSymmetric(t *testing.T) {
	// On the Achilles-heel function group sifting needs far fewer oracle
	// evaluations than per-variable sifting (4 blocks vs 8 variables).
	f := funcs.AchillesHeel(4)
	res := GroupSift(f, core.OBDD)
	// Plain sifting: n passes over n positions ≥ n·(n−1) evaluations.
	if res.Evaluations >= 8*7 {
		t.Errorf("group sift used %d evaluations, expected fewer than plain sifting's 56", res.Evaluations)
	}
}

func TestTotallySymmetricRandomUnlikely(t *testing.T) {
	// A random 6-variable function is essentially never totally symmetric.
	rng := rand.New(rand.NewSource(134))
	f := truthtable.Random(6, rng)
	if TotallySymmetric(f) {
		t.Errorf("random function reported totally symmetric — suspicious")
	}
}
