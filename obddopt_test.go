package obddopt

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"obddopt/internal/truthtable"
)

// mustSolve runs the unified Solve facade and fails the test on error —
// the migration shim for the old always-succeeding entry points.
func mustSolve(t *testing.T, f *Table, opts ...Option) *Result {
	t.Helper()
	res, err := Solve(context.Background(), f, opts...)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return res
}

func TestQuickstartFlow(t *testing.T) {
	f := MustParseExpr("x1 & x2 | x3 & x4 | x5 & x6", 6)
	res := mustSolve(t, f)
	if res.Size != 8 {
		t.Fatalf("Fig. 1 optimal size = %d, want 8", res.Size)
	}
	if got := res.Ordering.String(); !strings.HasPrefix(got, "(") {
		t.Errorf("ordering renders oddly: %s", got)
	}
	m, root := BuildBDD(f, res.Ordering)
	if m.Size(root) != res.Size {
		t.Errorf("materialized diagram size %d != %d", m.Size(root), res.Size)
	}
}

func TestParseExprErrors(t *testing.T) {
	if _, err := ParseExpr("x1 &", 2); err == nil {
		t.Errorf("bad formula should error")
	}
	if _, err := ParseExpr("x5", 2); err == nil {
		t.Errorf("too few variables should error")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("MustParseExpr should panic")
		}
	}()
	MustParseExpr("x1 &", 2)
}

func TestFacadeAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := truthtable.Random(5, rng)
	a := mustSolve(t, f, WithSolver("fs"))
	b := mustSolve(t, f, WithSolver("brute"))
	c := mustSolve(t, f, WithSolver("dnc"))
	if a.MinCost != b.MinCost || a.MinCost != c.MinCost {
		t.Fatalf("facade algorithms disagree: %d %d %d", a.MinCost, b.MinCost, c.MinCost)
	}
	if SizeUnder(f, a.Ordering, OBDD) != a.Size {
		t.Errorf("SizeUnder inconsistent")
	}
	widths := Profile(f, a.Ordering, OBDD)
	var sum uint64
	for _, w := range widths {
		sum += w
	}
	if sum != a.MinCost {
		t.Errorf("Profile sum %d != MinCost %d", sum, a.MinCost)
	}
}

func TestFacadeZDDAndMulti(t *testing.T) {
	f := MustParseExpr("x1 & !x2 | x3", 3)
	z := mustSolve(t, f, WithRule(ZDD))
	if z.Rule != ZDD {
		t.Errorf("rule not propagated")
	}
	mt := truthtable.MultiFromFunc(3, func(x []bool) int {
		c := 0
		for _, v := range x {
			if v {
				c++
			}
		}
		return c
	})
	res := OptimalOrderingMulti(mt)
	if res.MinCost != 6 || res.Terminals != 4 {
		t.Errorf("weight-3 MTBDD: %d nodes %d terminals", res.MinCost, res.Terminals)
	}
}

func TestFacadeHeuristics(t *testing.T) {
	f := MustParseExpr("x1 & x2 | x3 & x4", 4)
	s := Sift(f, OBDD, 0)
	w := WindowPermute(f, OBDD, 2)
	opt := mustSolve(t, f).MinCost
	if s.MinCost < opt || w.MinCost < opt {
		t.Errorf("heuristics beat the optimum")
	}
}

func TestTableHelpers(t *testing.T) {
	f := FromFunc(2, func(x []bool) bool { return x[0] != x[1] })
	hex := f.Hex()
	back, err := ParseTableHex(hex)
	if err != nil || !back.Equal(f) {
		t.Errorf("hex round trip failed: %v", err)
	}
	if NewTable(3).CountOnes() != 0 {
		t.Errorf("NewTable not empty")
	}
	mgr := NewBDDManager(2, nil)
	if mgr.NumVars() != 2 {
		t.Errorf("manager facade wrong")
	}
}

func TestMeterExposed(t *testing.T) {
	m := &Meter{}
	f := MustParseExpr("x1 ^ x2 ^ x3", 3)
	mustSolve(t, f, WithSolver("fs"), WithMeter(m))
	if m.CellOps == 0 {
		t.Errorf("meter not counting through the facade")
	}
}

func TestFacadeExtendedAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := truthtable.Random(6, rng)
	want := mustSolve(t, f).MinCost
	if got := mustSolve(t, f, WithSolver("bnb")).MinCost; got != want {
		t.Errorf("facade B&B %d != %d", got, want)
	}
	if got := mustSolve(t, f, WithSolver("parallel"), WithSchedule(Schedule{Workers: 2})).MinCost; got != want {
		t.Errorf("facade parallel %d != %d", got, want)
	}
	if got := Anneal(f, OBDD, &AnnealOptions{Rng: rng, Steps: 200}).MinCost; got < want {
		t.Errorf("facade anneal beat the optimum")
	}
	gs := GroupSift(f, OBDD)
	if gs.MinCost < want {
		t.Errorf("facade group sift beat the optimum")
	}
	m := NewReorderableManager(6, nil)
	root := m.FromTruthTable(f)
	if _, opt := m.ExactReorder(root); opt.MinCost != want {
		t.Errorf("facade reorderable manager exact reorder wrong")
	}
}
