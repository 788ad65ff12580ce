package truthtable

import (
	"math/rand"
	"testing"

	"obddopt/internal/bitops"
)

// symmetricByDefinition exchanges bits i and j of every cell index.
func symmetricByDefinition(f *Table, i, j int) bool {
	for idx := uint64(0); idx < f.Size(); idx++ {
		sw := idx&^(1<<uint(i)|1<<uint(j)) | (idx>>uint(i)&1)<<uint(j) | (idx>>uint(j)&1)<<uint(i)
		if f.Bit(idx) != f.Bit(sw) {
			return false
		}
	}
	return true
}

// blockSymmetric returns a random function of the weights of x on two
// random disjoint variable blocks and of the remaining variables
// verbatim: symmetric inside each block, asymmetric elsewhere with high
// probability.
func blockSymmetric(n int, rng *rand.Rand) *Table {
	var b1, b2 bitops.Mask
	for v := 0; v < n; v++ {
		switch rng.Intn(3) {
		case 0:
			b1 = b1.With(v)
		case 1:
			b2 = b2.With(v)
		}
	}
	rest := bitops.FullMask(n) &^ b1 &^ b2
	values := map[uint64]bool{}
	return FromFunc(n, func(x []bool) bool {
		var idx uint64
		for v, on := range x {
			if on {
				idx |= 1 << uint(v)
			}
		}
		key := uint64((bitops.Mask(idx) & b1).Count())
		key = key<<6 | uint64((bitops.Mask(idx) & b2).Count())
		key = key<<32 | idx&uint64(rest)
		if _, ok := values[key]; !ok {
			values[key] = rng.Intn(2) == 1
		}
		return values[key]
	})
}

// TestSymmetricPairMatchesDefinition checks the word-parallel detector
// against the definition on every pair, across all three word layouts
// (both bits inside a word, one inside, both across words).
func TestSymmetricPairMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	for n := 1; n <= 9; n++ {
		for trial := 0; trial < 8; trial++ {
			var f *Table
			if trial == 0 {
				f = Random(n, rng)
			} else {
				f = blockSymmetric(n, rng)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if got, want := SymmetricPair(f, i, j), symmetricByDefinition(f, i, j); got != want {
						t.Fatalf("n=%d trial %d (%s): SymmetricPair(%d,%d) = %v, definition %v", n, trial, f.Hex(), i, j, got, want)
					}
				}
			}
			// Groups is the partition into equivalence classes: members
			// of one group are symmetric, lowest members of two are not.
			var union bitops.Mask
			groups := Groups(f)
			for gi, g := range groups {
				members := g.Members(nil)
				for _, v := range members[1:] {
					if !symmetricByDefinition(f, members[0], v) {
						t.Fatalf("n=%d: group %#b joins asymmetric %d and %d", n, g, members[0], v)
					}
				}
				for _, h := range groups[:gi] {
					if symmetricByDefinition(f, h.Lowest(), g.Lowest()) {
						t.Fatalf("n=%d: groups %#b and %#b are one class", n, h, g)
					}
				}
				if g&union != 0 {
					t.Fatalf("n=%d: groups overlap at %#b", n, g)
				}
				union |= g
			}
			if union != bitops.FullMask(n) {
				t.Fatalf("n=%d: groups cover %#b", n, union)
			}
		}
	}
}
