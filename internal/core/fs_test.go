package core

import (
	"math/rand"
	"testing"

	"obddopt/internal/bitops"
	"obddopt/internal/truthtable"
)

// achilles builds f = x0·x1 + x2·x3 + … over 2k variables, the Fig. 1
// ordering-sensitivity function.
func achilles(pairs int) *truthtable.Table {
	n := 2 * pairs
	return truthtable.FromFunc(n, func(x []bool) bool {
		for i := 0; i < n; i += 2 {
			if x[i] && x[i+1] {
				return true
			}
		}
		return false
	})
}

func TestOptimalOrderingAchilles(t *testing.T) {
	// The minimum OBDD of the Fig. 1 function with k pairs has 2k
	// nonterminal nodes (size 2k+2).
	for pairs := 1; pairs <= 4; pairs++ {
		f := achilles(pairs)
		res := OptimalOrdering(f, nil)
		wantCost := uint64(2 * pairs)
		if res.MinCost != wantCost {
			t.Errorf("pairs=%d: MinCost = %d, want %d", pairs, res.MinCost, wantCost)
		}
		if res.Size != wantCost+2 {
			t.Errorf("pairs=%d: Size = %d, want %d", pairs, res.Size, wantCost+2)
		}
		if !res.Ordering.Valid() {
			t.Errorf("pairs=%d: invalid ordering %v", pairs, res.Ordering)
		}
		// Profile must sum to MinCost.
		var sum uint64
		for _, w := range res.Profile {
			sum += w
		}
		if sum != res.MinCost {
			t.Errorf("pairs=%d: profile sum %d != MinCost %d", pairs, sum, res.MinCost)
		}
	}
}

func TestAchillesBadOrderingExponential(t *testing.T) {
	// Under the blocked ordering (x1, x3, …, x2k−1, x2, x4, …) the OBDD
	// has size 2^{k+1} (Fig. 1 right, k pairs).
	for pairs := 2; pairs <= 4; pairs++ {
		f := achilles(pairs)
		rootFirst := make([]int, 0, 2*pairs)
		for i := 0; i < 2*pairs; i += 2 {
			rootFirst = append(rootFirst, i)
		}
		for i := 1; i < 2*pairs; i += 2 {
			rootFirst = append(rootFirst, i)
		}
		ord := truthtable.FromRootFirst(rootFirst)
		size := SizeUnder(f, ord, OBDD, nil)
		want := uint64(1) << uint(pairs+1)
		if size != want {
			t.Errorf("pairs=%d: blocked-ordering size = %d, want %d", pairs, size, want)
		}
	}
}

func TestOptimalOrderingTinyFunctions(t *testing.T) {
	// n=0: constants.
	for _, v := range []bool{false, true} {
		res := OptimalOrdering(truthtable.Const(0, v), nil)
		if res.MinCost != 0 || res.Size != 1 || res.Terminals != 1 {
			t.Errorf("const-%v: %+v", v, res)
		}
	}
	// Single variable x0: one node, two terminals.
	res := OptimalOrdering(truthtable.Var(1, 0), nil)
	if res.MinCost != 1 || res.Size != 3 {
		t.Errorf("x0: MinCost=%d Size=%d", res.MinCost, res.Size)
	}
	// Constant function of 3 variables: zero nonterminals.
	res = OptimalOrdering(truthtable.Const(3, true), nil)
	if res.MinCost != 0 || res.Size != 1 {
		t.Errorf("const3: MinCost=%d Size=%d", res.MinCost, res.Size)
	}
}

func TestParityOrderingInvariant(t *testing.T) {
	// XOR of n variables: every ordering yields the same OBDD of n
	// nonterminal nodes... actually parity needs 2 nodes per level except
	// the root: 2n−1 nonterminals.
	for n := 2; n <= 6; n++ {
		f := truthtable.FromFunc(n, func(x []bool) bool {
			p := false
			for _, v := range x {
				p = p != v
			}
			return p
		})
		res := OptimalOrdering(f, nil)
		want := uint64(2*n - 1)
		if res.MinCost != want {
			t.Errorf("parity n=%d: MinCost = %d, want %d", n, res.MinCost, want)
		}
		// Parity is totally symmetric: a random ordering gives the same size.
		rng := rand.New(rand.NewSource(int64(n)))
		size := SizeUnder(f, truthtable.RandomOrdering(n, rng), OBDD, nil)
		if size != want+2 {
			t.Errorf("parity n=%d: random-order size = %d, want %d", n, size, want+2)
		}
	}
}

func TestFSAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n := 2 + trial%5 // n in 2..6
		f := truthtable.Random(n, rng)
		fs := OptimalOrdering(f, nil)
		bf := BruteForce(f, nil)
		if fs.MinCost != bf.MinCost {
			t.Fatalf("n=%d trial=%d: FS MinCost %d != brute force %d (f=%s)",
				n, trial, fs.MinCost, bf.MinCost, f.Hex())
		}
		// Both orderings must realize the optimal size.
		if got := SizeUnder(f, fs.Ordering, OBDD, nil); got != fs.Size {
			t.Fatalf("FS ordering does not realize its size: %d vs %d", got, fs.Size)
		}
		if got := SizeUnder(f, bf.Ordering, OBDD, nil); got != bf.Size {
			t.Fatalf("BF ordering does not realize its size: %d vs %d", got, bf.Size)
		}
	}
}

func TestBruteForcePruningEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 3 + trial%3
		f := truthtable.Random(n, rng)
		plain := BruteForce(f, nil)
		pruned := BruteForce(f, &SolveOptions{Prune: true})
		if plain.MinCost != pruned.MinCost {
			t.Fatalf("pruning changed the optimum: %d vs %d", plain.MinCost, pruned.MinCost)
		}
	}
}

func TestAllThreeVariableFunctions(t *testing.T) {
	// Exhaustive check over all 2^8 three-variable functions: FS equals
	// brute force (experiment E7's exhaustive core).
	for bitsVal := 0; bitsVal < 256; bitsVal++ {
		f := truthtable.New(3)
		for idx := uint64(0); idx < 8; idx++ {
			f.Set(idx, bitsVal>>idx&1 == 1)
		}
		fs := OptimalOrdering(f, nil)
		bf := BruteForce(f, nil)
		if fs.MinCost != bf.MinCost {
			t.Fatalf("function %02x: FS %d != BF %d", bitsVal, fs.MinCost, bf.MinCost)
		}
	}
}

func TestOptimalIsLowerBoundOverSampledOrderings(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 15; trial++ {
		n := 4 + trial%4
		f := truthtable.Random(n, rng)
		res := OptimalOrdering(f, nil)
		for s := 0; s < 20; s++ {
			ord := truthtable.RandomOrdering(n, rng)
			if size := SizeUnder(f, ord, OBDD, nil); size < res.Size {
				t.Fatalf("ordering %v beats the claimed optimum: %d < %d", ord, size, res.Size)
			}
		}
	}
}

func TestCompactionDistinguishesLevels(t *testing.T) {
	// f = x̄2·x0 + x2·x1 has subfunctions x0 and x1, both with child pair
	// (false, true). A compaction that deduplicated on (u0,u1) across
	// levels would merge them and undercount. The correct minimum OBDD
	// has 3 nonterminal nodes.
	f := truthtable.FromFunc(3, func(x []bool) bool {
		if x[2] {
			return x[1]
		}
		return x[0]
	})
	res := OptimalOrdering(f, nil)
	if res.MinCost != 3 {
		t.Errorf("mux MinCost = %d, want 3", res.MinCost)
	}
	// Under the ordering with x2 at the root, levels 1 and 2 hold x0 and
	// x1 nodes with identical child pairs; both must be counted.
	ord := truthtable.FromRootFirst([]int{2, 1, 0})
	widths := Profile(f, ord, OBDD, nil)
	if widths[0] != 1 || widths[1] != 1 || widths[2] != 1 {
		t.Errorf("mux profile = %v, want [1 1 1]", widths)
	}
}

func TestProfileMatchesSizeUnder(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		n := 3 + trial%4
		f := truthtable.Random(n, rng)
		ord := truthtable.RandomOrdering(n, rng)
		widths := Profile(f, ord, OBDD, nil)
		var sum uint64
		for _, w := range widths {
			sum += w
		}
		if SizeUnder(f, ord, OBDD, nil) != sum+2 {
			t.Fatalf("SizeUnder inconsistent with Profile")
		}
	}
}

func TestMeterCounts(t *testing.T) {
	m := &Meter{}
	f := achilles(2)
	OptimalOrdering(f, &SolveOptions{Meter: m})
	n := f.NumVars()
	// Cell ops: Σ_k C(n,k)·k·2^{n−k}. For n=4: Σ = 4·8 + 12·2·4 + ... compute.
	var want uint64
	for k := 1; k <= n; k++ {
		want += bitops.Binomial(n, k) * uint64(k) << uint(n-k)
	}
	if m.CellOps != want {
		t.Errorf("CellOps = %d, want %d", m.CellOps, want)
	}
	if m.Compactions == 0 || m.PeakCells == 0 {
		t.Errorf("meter fields not populated: %+v", m)
	}
	if m.LiveCells != 0 {
		t.Errorf("LiveCells = %d after run, want 0 (leak)", m.LiveCells)
	}
}

func TestProfilePanicsOnBadOrdering(t *testing.T) {
	f := achilles(1)
	defer func() {
		if recover() == nil {
			t.Errorf("Profile with non-permutation did not panic")
		}
	}()
	Profile(f, truthtable.Ordering{0, 0}, OBDD, nil)
}
