package core

import (
	"math/rand"
	"testing"

	"obddopt/internal/truthtable"
)

// This file contains an independent reference implementation of
// decision-diagram construction — a memoized top-down recursion over truth
// tables — used to validate the table-compaction engine. It shares no code
// with the compaction path (it never splices indices; it materializes
// cofactor tables).

type refBuilder struct {
	rule Rule
	// memo maps (level, hex of subfunction) → node ID.
	memo  map[string]uint32
	next  uint32
	nodes int
	// widths, when non-nil, counts the created nodes per level in the
	// bottom-up Profile convention: a node testing ord[i] lands in
	// widths[i].
	widths []uint64
}

// refSize returns the number of nonterminal nodes of the diagram of f
// under the bottom-up ordering ord, by explicit recursive construction.
func refSize(f *truthtable.Table, ord truthtable.Ordering, rule Rule) int {
	b := &refBuilder{rule: rule, memo: map[string]uint32{}, next: 2}
	b.build(f, ord)
	return b.nodes
}

// build returns the node ID representing f, whose remaining variables are
// ord (bottom-up; the variable read first is ord[len-1]).
func (b *refBuilder) build(f *truthtable.Table, ord truthtable.Ordering) uint32 {
	if len(ord) == 0 {
		if f.Bit(0) {
			return 1
		}
		return 0
	}
	key := itoa(len(ord)) + "|" + f.Hex()
	if id, ok := b.memo[key]; ok {
		return id
	}
	topPos := len(ord) - 1
	top := ord[topPos]
	// Cofactoring removes variable top; variables above it in f's index
	// space shift down, so the remaining ordering must be renumbered.
	rest := make(truthtable.Ordering, topPos)
	for i, v := range ord[:topPos] {
		if v > top {
			v--
		}
		rest[i] = v
	}
	f0, f1 := f.Cofactor(top, false), f.Cofactor(top, true)
	lo := b.build(f0, rest)
	hi := b.build(f1, rest)
	var id uint32
	skip := false
	switch b.rule {
	case OBDD:
		skip = lo == hi
	case ZDD:
		skip = hi == 0
	}
	if skip {
		id = lo
	} else {
		id = b.next
		b.next++
		b.nodes++
		if b.widths != nil {
			b.widths[topPos]++
		}
	}
	b.memo[key] = id
	return id
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func TestCompactionMatchesReferenceOBDD(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 60; trial++ {
		n := 1 + trial%6
		f := truthtable.Random(n, rng)
		ord := truthtable.RandomOrdering(n, rng)
		widths := Profile(f, ord, OBDD, nil)
		var sum uint64
		for _, w := range widths {
			sum += w
		}
		want := refSize(f, ord, OBDD)
		if int(sum) != want {
			t.Fatalf("n=%d f=%s ord=%v: compaction %d != reference %d",
				n, f.Hex(), ord, sum, want)
		}
	}
}

func TestCompactionMatchesReferenceZDD(t *testing.T) {
	rng := rand.New(rand.NewSource(4096))
	for trial := 0; trial < 60; trial++ {
		n := 1 + trial%6
		f := truthtable.Random(n, rng)
		ord := truthtable.RandomOrdering(n, rng)
		widths := Profile(f, ord, ZDD, nil)
		var sum uint64
		for _, w := range widths {
			sum += w
		}
		want := refSize(f, ord, ZDD)
		if int(sum) != want {
			t.Fatalf("n=%d f=%s ord=%v: ZDD compaction %d != reference %d",
				n, f.Hex(), ord, sum, want)
		}
	}
}

func TestZDDKnownValues(t *testing.T) {
	// ZDD of the characteristic function of {∅} (f = all variables false)
	// is the bare 1-terminal: zero nonterminal nodes, any n.
	for n := 1; n <= 4; n++ {
		f := truthtable.FromFunc(n, func(x []bool) bool {
			for _, v := range x {
				if v {
					return false
				}
			}
			return true
		})
		res := OptimalOrdering(f, &SolveOptions{Rule: ZDD})
		if res.MinCost != 0 {
			t.Errorf("ZDD({∅}) n=%d: MinCost = %d, want 0", n, res.MinCost)
		}
	}
	// f = x0 over one variable: one ZDD node. f = ¬x0: zero nodes (the
	// zero-suppressed skip applies at the root).
	if res := OptimalOrdering(truthtable.Var(1, 0), &SolveOptions{Rule: ZDD}); res.MinCost != 1 {
		t.Errorf("ZDD(x0): MinCost = %d, want 1", res.MinCost)
	}
	if res := OptimalOrdering(truthtable.Var(1, 0).Not(), &SolveOptions{Rule: ZDD}); res.MinCost != 0 {
		t.Errorf("ZDD(¬x0): MinCost = %d, want 0", res.MinCost)
	}
}

func TestZDDOptimalAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		n := 2 + trial%4
		f := truthtable.Random(n, rng)
		fs := OptimalOrdering(f, &SolveOptions{Rule: ZDD})
		bf := BruteForce(f, &SolveOptions{Rule: ZDD})
		if fs.MinCost != bf.MinCost {
			t.Fatalf("ZDD n=%d: FS %d != BF %d (f=%s)", n, fs.MinCost, bf.MinCost, f.Hex())
		}
	}
}

func TestMTBDDWeightFunction(t *testing.T) {
	// The weight function w(x) = Σ x_i is totally symmetric; its minimum
	// MTBDD has k(k+1)/2 … rather: level i (from the top, i vars read) has
	// i+1 nodes; total nonterminals Σ_{i=0}^{n−1} (i+1) = n(n+1)/2.
	for n := 2; n <= 5; n++ {
		w := truthtable.MultiFromFunc(n, func(x []bool) int {
			c := 0
			for _, v := range x {
				if v {
					c++
				}
			}
			return c
		})
		res := OptimalOrderingMulti(w, nil)
		want := uint64(n * (n + 1) / 2)
		if res.MinCost != want {
			t.Errorf("weight n=%d: MinCost = %d, want %d", n, res.MinCost, want)
		}
		if res.Terminals != n+1 {
			t.Errorf("weight n=%d: Terminals = %d, want %d", n, res.Terminals, n+1)
		}
		if res.Size != want+uint64(n+1) {
			t.Errorf("weight n=%d: Size = %d", n, res.Size)
		}
	}
}

func TestMTBDDReducesToOBDDOnBoolean(t *testing.T) {
	// A {0,1}-valued MultiTable must give the same minimum as the Boolean
	// path (the MTBDD generalization is conservative).
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		n := 2 + trial%4
		f := truthtable.Random(n, rng)
		if c, _ := f.IsConst(); c {
			continue
		}
		bres := OptimalOrdering(f, nil)
		mres := OptimalOrderingMulti(truthtable.FromBool(f), nil)
		if bres.MinCost != mres.MinCost {
			t.Fatalf("n=%d: Boolean %d != MTBDD %d", n, bres.MinCost, mres.MinCost)
		}
	}
}

func TestMTBDDPanicsOnZDDRule(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("OptimalOrderingMulti with ZDD rule did not panic")
		}
	}()
	OptimalOrderingMulti(truthtable.NewMulti(2), &SolveOptions{Rule: ZDD})
}
