package truthtable

import "obddopt/internal/bitops"

// Two variables are symmetric in f when exchanging them leaves f
// invariant (equivalently f|x_i=0,x_j=1 ≡ f|x_i=1,x_j=0). Symmetry is an
// equivalence relation, so the variables partition into symmetry groups.
// Detection is exact and runs on the packed words: at most O(n²·2ⁿ/64)
// word operations, and a pair stops at its first asymmetric word.

// zeroAt[i] selects the in-word positions whose index bit i is 0.
var zeroAt = [6]uint64{
	0x5555555555555555,
	0x3333333333333333,
	0x0F0F0F0F0F0F0F0F,
	0x00FF00FF00FF00FF,
	0x0000FFFF0000FFFF,
	0x00000000FFFFFFFF,
}

// SymmetricPair reports whether exchanging variables i and j leaves f
// invariant. It panics when either index is out of range.
func SymmetricPair(f *Table, i, j int) bool {
	n := f.n
	if i < 0 || i >= n || j < 0 || j >= n {
		panic("truthtable: SymmetricPair variable index out of range")
	}
	if i == j {
		return true
	}
	if i > j {
		i, j = j, i
	}
	// Every cell idx with bit i = 0 and bit j = 1 must equal its partner
	// idx ^ 1<<i ^ 1<<j; the other half of the exchange is the same test
	// read backwards, and cells with equal bits map to themselves.
	switch {
	case j < 6:
		// Both bits index inside a word: the partner sits 2^j − 2^i
		// positions lower in the same word.
		sel := zeroAt[i] &^ zeroAt[j]
		if n < 6 {
			sel &= 1<<(uint64(1)<<uint(n)) - 1
		}
		shift := uint(1)<<uint(j) - uint(1)<<uint(i)
		for _, w := range f.words {
			if (w^w<<shift)&sel != 0 {
				return false
			}
		}
	case i < 6:
		// Bit i inside the word, bit j across words: position p of a word
		// with bit j set against position p + 2^i of its partner word.
		sel, bi, bj := zeroAt[i], uint(1)<<uint(i), 1<<uint(j-6)
		for a, w := range f.words {
			if a&bj != 0 && (w^f.words[a^bj]>>bi)&sel != 0 {
				return false
			}
		}
	default:
		// Both bits index words: whole words are partners.
		bi, bj := 1<<uint(i-6), 1<<uint(j-6)
		for a, w := range f.words {
			if a&bj != 0 && a&bi == 0 && w != f.words[a^bi^bj] {
				return false
			}
		}
	}
	return true
}

// Groups returns the symmetry groups of f as variable masks, sorted by
// their smallest member. Every variable appears in exactly one group;
// variables with no symmetric partner form singleton groups.
func Groups(f *Table) []bitops.Mask {
	n := f.n
	var assigned bitops.Mask
	var groups []bitops.Mask
	for i := 0; i < n; i++ {
		if assigned.Has(i) {
			continue
		}
		g := bitops.Mask(0).With(i)
		for j := i + 1; j < n; j++ {
			if !assigned.Has(j) && SymmetricPair(f, i, j) {
				g = g.With(j)
			}
		}
		assigned |= g
		groups = append(groups, g)
	}
	return groups
}
