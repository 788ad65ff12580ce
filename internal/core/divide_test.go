package core

import (
	"math/rand"
	"testing"

	"obddopt/internal/bitops"
	"obddopt/internal/quantum"
	"obddopt/internal/truthtable"
)

func TestDnCEqualsFS(t *testing.T) {
	rng := rand.New(rand.NewSource(1001))
	for trial := 0; trial < 20; trial++ {
		n := 4 + trial%5 // 4..8
		f := truthtable.Random(n, rng)
		fs := OptimalOrdering(f, nil)
		dnc := DivideAndConquer(f, nil)
		if fs.MinCost != dnc.MinCost {
			t.Fatalf("n=%d: DnC %d != FS %d (f=%s)", n, dnc.MinCost, fs.MinCost, f.Hex())
		}
		if got := SizeUnder(f, dnc.Ordering, OBDD, nil); got != dnc.Size {
			t.Fatalf("DnC ordering does not realize its claimed size")
		}
	}
}

func TestDnCEqualsFSWithSingleSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 10; trial++ {
		n := 5 + trial%3
		f := truthtable.Random(n, rng)
		fs := OptimalOrdering(f, nil)
		dnc := DivideAndConquer(f, &SolveOptions{Alphas: []float64{0.4}})
		if fs.MinCost != dnc.MinCost {
			t.Fatalf("n=%d single split: DnC %d != FS %d", n, dnc.MinCost, fs.MinCost)
		}
	}
}

func TestDnCThreeSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n := 8
	f := truthtable.Random(n, rng)
	fs := OptimalOrdering(f, nil)
	dnc := DivideAndConquer(f, &SolveOptions{Alphas: []float64{0.2, 0.45, 0.7}})
	if fs.MinCost != dnc.MinCost {
		t.Fatalf("three splits: DnC %d != FS %d", dnc.MinCost, fs.MinCost)
	}
}

func TestDnCZDDRule(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		n := 5 + trial%3
		f := truthtable.Random(n, rng)
		fs := OptimalOrdering(f, &SolveOptions{Rule: ZDD})
		dnc := DivideAndConquer(f, &SolveOptions{Rule: ZDD})
		if fs.MinCost != dnc.MinCost {
			t.Fatalf("ZDD n=%d: DnC %d != FS %d", n, dnc.MinCost, fs.MinCost)
		}
	}
}

func TestDnCDegeneratesToFSOnTinyInputs(t *testing.T) {
	// For n ≤ 2 the default fractions round out of range and DnC must
	// fall back to FS.
	for n := 0; n <= 2; n++ {
		f := truthtable.Var(maxInt(n, 1), 0)
		if n == 0 {
			f = truthtable.Const(0, true)
		}
		fs := OptimalOrdering(f, nil)
		dnc := DivideAndConquer(f, nil)
		if fs.MinCost != dnc.MinCost {
			t.Errorf("n=%d fallback mismatch", n)
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestDnCWithDurrHoyerSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	qm := &quantum.Meter{}
	f := truthtable.Random(7, rng)
	fs := OptimalOrdering(f, nil)
	dnc := DivideAndConquer(f, &SolveOptions{
		Minimizer: &quantum.DurrHoyer{Rng: rng, Meter: qm},
	})
	if fs.MinCost != dnc.MinCost {
		t.Fatalf("Dürr–Høyer simulation broke exactness: %d != %d", dnc.MinCost, fs.MinCost)
	}
	if qm.Invocations == 0 || qm.Queries <= 0 {
		t.Errorf("quantum meter not populated: %+v", qm)
	}
	if qm.OracleEvals == 0 {
		t.Errorf("oracle evals not counted")
	}
}

func TestDnCNoisyMinimizerStaysValid(t *testing.T) {
	// With ε = 1 the minimizer errs whenever it can; the result must
	// still be a valid ordering whose size matches its own claim, and at
	// least the FS optimum (Theorem 1's degradation mode).
	rng := rand.New(rand.NewSource(13))
	suboptimal := 0
	for trial := 0; trial < 10; trial++ {
		f := truthtable.Random(6, rng)
		fs := OptimalOrdering(f, nil)
		dnc := DivideAndConquer(f, &SolveOptions{
			Minimizer: &quantum.Noisy{Eps: 1, Rng: rng},
		})
		if !dnc.Ordering.Valid() {
			t.Fatalf("noisy DnC produced invalid ordering %v", dnc.Ordering)
		}
		if got := SizeUnder(f, dnc.Ordering, OBDD, nil); got != dnc.Size {
			t.Fatalf("noisy DnC misreports its own size: %d vs %d", got, dnc.Size)
		}
		if dnc.MinCost < fs.MinCost {
			t.Fatalf("noisy DnC beat the optimum — impossible")
		}
		if dnc.MinCost > fs.MinCost {
			suboptimal++
		}
	}
	if suboptimal == 0 {
		t.Errorf("ε=1 noise never produced a suboptimal result across 10 trials; injection seems inert")
	}
}

func TestDnCMeterLeakFree(t *testing.T) {
	m := &Meter{}
	f := achilles(3)
	DivideAndConquer(f, &SolveOptions{Meter: m})
	if m.LiveCells != 0 {
		t.Errorf("LiveCells = %d after DnC, want 0 (table leak)", m.LiveCells)
	}
	if m.PeakCells == 0 || m.CellOps == 0 {
		t.Errorf("meter not populated: %+v", m)
	}
}

func TestNormalizeSizes(t *testing.T) {
	cases := []struct {
		n      int
		alphas []float64
		want   []int
	}{
		{10, []float64{0.2, 0.4}, []int{2, 4}},
		{10, []float64{0.18, 0.22}, []int{2}}, // collision collapses
		{3, []float64{0.05, 0.9999}, []int{}}, // 0.05·3 rounds to 0; 0.9999·3 rounds to 3 = n
		{8, []float64{0.192754, 0.334571}, []int{2, 3}},
	}
	for _, c := range cases {
		got := normalizeSizes(c.n, c.alphas)
		if len(got) != len(c.want) {
			t.Errorf("normalizeSizes(%d, %v) = %v, want %v", c.n, c.alphas, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("normalizeSizes(%d, %v) = %v, want %v", c.n, c.alphas, got, c.want)
			}
		}
	}
}

func TestSubsetsWithin(t *testing.T) {
	L := bitops.Mask(0b101100) // members 2,3,5
	subs := subsetsWithin(L, 2)
	if len(subs) != 3 {
		t.Fatalf("expected 3 2-subsets, got %d", len(subs))
	}
	for _, s := range subs {
		if s&^L != 0 || s.Count() != 2 {
			t.Errorf("bad subset %#b of %#b", s, L)
		}
	}
}

// The composition ladder of Section 4 (Lemmas 11/12) is DivideAndConquer
// at Depth ≥ 1: the extension subroutine Γ is itself OptOBDD_Γ.

func TestLadderAllDepthsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(172))
	for trial := 0; trial < 6; trial++ {
		n := 6 + trial%3
		f := truthtable.Random(n, rng)
		want := OptimalOrdering(f, nil).MinCost
		for depth := 0; depth <= 2; depth++ {
			got := DivideAndConquer(f, &SolveOptions{Depth: depth})
			if got.MinCost != want {
				t.Fatalf("n=%d depth=%d: %d != FS %d", n, depth, got.MinCost, want)
			}
			if v := SizeUnder(f, got.Ordering, OBDD, nil); v != got.Size {
				t.Fatalf("n=%d depth=%d: ordering does not realize size", n, depth)
			}
		}
	}
}

func TestLadderZDD(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	f := truthtable.Random(7, rng)
	want := OptimalOrdering(f, &SolveOptions{Rule: ZDD}).MinCost
	for depth := 0; depth <= 1; depth++ {
		got := DivideAndConquer(f, &SolveOptions{Rule: ZDD, Depth: depth})
		if got.MinCost != want {
			t.Fatalf("depth=%d: ZDD ladder %d != FS %d", depth, got.MinCost, want)
		}
	}
}

func TestLadderQueriesGrowWithDepth(t *testing.T) {
	// Deeper composition invokes minimum finding inside the extension
	// calls, so the metered query count (and invocation count) grows
	// with depth on the same instance — the structural signature of
	// Theorem 13's tower.
	rng := rand.New(rand.NewSource(174))
	f := truthtable.Random(8, rng)
	var prevInvocations uint64
	for depth := 0; depth <= 2; depth++ {
		qm := &quantum.Meter{}
		DivideAndConquer(f, &SolveOptions{
			Depth:     depth,
			Minimizer: &quantum.Exact{Eps: 1e-6, Meter: qm},
		})
		if qm.Invocations <= prevInvocations {
			t.Errorf("depth %d: invocations %d did not grow (prev %d)",
				depth, qm.Invocations, prevInvocations)
		}
		prevInvocations = qm.Invocations
	}
}

func TestLadderMeterLeakFree(t *testing.T) {
	rng := rand.New(rand.NewSource(175))
	f := truthtable.Random(7, rng)
	for depth := 0; depth <= 2; depth++ {
		m := &Meter{}
		DivideAndConquer(f, &SolveOptions{Depth: depth, Meter: m})
		if m.LiveCells != 0 {
			t.Fatalf("depth %d: LiveCells %d after run", depth, m.LiveCells)
		}
	}
}

func TestLadderNoisyStaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(176))
	f := truthtable.Random(6, rng)
	opt := OptimalOrdering(f, nil).MinCost
	res := DivideAndConquer(f, &SolveOptions{
		Minimizer: &quantum.Noisy{Eps: 1, Rng: rng},
	})
	if !res.Ordering.Valid() {
		t.Fatalf("noisy ladder produced invalid ordering")
	}
	if res.MinCost < opt {
		t.Fatalf("noisy ladder beat the optimum")
	}
	if got := SizeUnder(f, res.Ordering, OBDD, nil); got != res.Size {
		t.Fatalf("noisy ladder misreports size")
	}
}

func TestLadderTinyInput(t *testing.T) {
	f := truthtable.Var(2, 1)
	res := DivideAndConquer(f, &SolveOptions{Depth: 2})
	if res.MinCost != 1 {
		t.Fatalf("tiny ladder MinCost %d", res.MinCost)
	}
}
