// Package lattice provides dense combinatorial indexing of the subset
// lattice the Friedman–Supowit dynamic program walks: each popcount
// layer k of {0, …, n−1} is a contiguous array of C(n, k) slots, and a
// k-element subset mask maps to its slot by combinadic (colexicographic)
// rank. Because colex order over fixed-popcount masks coincides with
// numeric order, Gosper enumeration (bitops.NextSubsetSameSize) visits
// the slots of a layer exactly in rank order 0, 1, 2, … — the DP can
// walk a layer with a running mask and a running index and never hash.
//
// Ranking replaces the `map[bitops.Mask]` tables the DP historically
// kept per layer: flat slices indexed by rank are cache-dense, free of
// hashing, and make the layer's memory footprint exactly the C(n, k)
// cells the paper's TABLE accounting predicts.
package lattice

import (
	"fmt"
	"math/bits"
	"sync"

	"obddopt/internal/bitops"
)

// MaxVars bounds the ranker's universe. C(64, 32) overflows uint64, but
// every layer size reachable by the O*(3^n) dynamic program (n ≤ ~30)
// fits comfortably; 64 matches the bitops.Mask width.
const MaxVars = 64

// Ranker ranks and unranks fixed-popcount subsets of {0, …, n−1}. The
// zero value is unusable; construct with New. Rankers are immutable and
// safe for concurrent use.
type Ranker struct {
	n int
	// binom[p][j] = C(p, j) for 0 ≤ p ≤ n, 0 ≤ j ≤ n. Layer sizes and
	// ranks are sums of these; n ≤ 30 keeps every entry far below 2^64.
	binom [][]uint64
}

// New returns a Ranker over the universe {0, …, n−1}.
func New(n int) *Ranker {
	if n < 0 || n > MaxVars {
		panic(fmt.Sprintf("lattice: universe size %d out of range [0,%d]", n, MaxVars)) //lint:allow nopanic documented programmer-error precondition: the DP bounds n by the mask width
	}
	b := make([][]uint64, n+1)
	for p := 0; p <= n; p++ {
		b[p] = make([]uint64, n+1)
		b[p][0] = 1
		for j := 1; j <= p; j++ {
			b[p][j] = b[p-1][j-1] + b[p-1][j]
		}
	}
	return &Ranker{n: n, binom: b}
}

var (
	cacheMu sync.Mutex
	cache   [MaxVars + 1]*Ranker
)

// For returns a process-shared Ranker for universe size n. Rankers are
// immutable, so sharing is free; For exists because the dynamic program
// re-enters with the same n many times per divide-and-conquer run and
// rebuilding the binomial table each time would be pure waste.
func For(n int) *Ranker {
	if n < 0 || n > MaxVars {
		return New(n) // panics with the canonical message
	}
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if cache[n] == nil {
		cache[n] = New(n)
	}
	return cache[n]
}

// N returns the universe size.
func (r *Ranker) N() int { return r.n }

// LayerSize returns C(n, k), the number of slots of popcount layer k.
// Out-of-range k has zero slots.
func (r *Ranker) LayerSize(k int) uint64 {
	if k < 0 || k > r.n {
		return 0
	}
	return r.binom[r.n][k]
}

// Rank returns the combinadic rank of mask within its popcount layer:
// for set bits p_1 < p_2 < … < p_k, rank = Σ_j C(p_j, j). Masks of one
// layer are ranked 0 … C(n,k)−1 in increasing numeric order.
func (r *Ranker) Rank(mask bitops.Mask) uint64 {
	var rank uint64
	j := 1
	for t := uint64(mask); t != 0; t &= t - 1 {
		p := bits.TrailingZeros64(t)
		rank += r.binom[p][j]
		j++
	}
	return rank
}

// PredRanks writes the layer-(k−1) ranks of mask's one-bit-removal
// predecessors into out and returns them: out[i] is the rank of
// mask \ {p_i} where p_1 < p_2 < … < p_k are mask's set bits. out must
// have room for popcount(mask) entries.
//
// All k ranks come out of one O(k) pass. With members p_1 < … < p_k,
// removing p_i leaves members whose combinadic weights are C(p_t, t)
// for t < i (indices unchanged) and C(p_t, t−1) for t > i (each index
// shifts down by one), so
//
//	rank(mask \ {p_i}) = Σ_{t<i} C(p_t, t) + Σ_{t>i} C(p_t, t−1)
//
// — a prefix sum plus a suffix sum over the same member list.
func (r *Ranker) PredRanks(mask bitops.Mask, out []uint64) []uint64 {
	k := mask.Count()
	out = out[:k]
	// prefix: out[i] accumulates Σ_{t<i} C(p_t, t) in place.
	var prefix uint64
	j := 1
	for t := uint64(mask); t != 0; t &= t - 1 {
		p := bits.TrailingZeros64(t)
		out[j-1] = prefix
		prefix += r.binom[p][j]
		j++
	}
	// suffix: add Σ_{t>i} C(p_t, t−1) walking members high to low.
	var suffix uint64
	j = k
	for t := uint64(mask); t != 0; {
		p := 63 - bits.LeadingZeros64(t)
		t &^= 1 << uint(p)
		out[j-1] += suffix
		suffix += r.binom[p][j-1]
		j--
	}
	return out
}

// MaxPredRank returns the largest layer-(k−1) rank among the one-bit
// removal predecessors of the layer-k mask of the given rank — the rank
// of mask \ {min member}, by the exchange argument below. It is the
// watermark the pipeline scheduler uses: a layer-k shard ending at
// this mask may start as soon as the layer-(k−1) prefix up to and
// including MaxPredRank is compacted.
//
// Two facts make the single evaluation sound:
//
//  1. For a fixed mask, rank(mask \ {p_i}) is maximized at i = 1 (the
//     smallest member): removing a smaller member leaves the larger
//     residual as a plain number, and within a layer colex rank is
//     monotone in numeric value, so the largest predecessor mask is the
//     highest-ranked one.
//  2. Monotonicity across a shard (proved in the tests exhaustively):
//     if S ≤ T numerically with equal popcount, then
//     S \ {min S} ≤ T \ {min T}, so the maximum over a rank range is
//     attained at the range's last mask.
func (r *Ranker) MaxPredRank(mask bitops.Mask) uint64 {
	return r.Rank(mask.Without(mask.Lowest()))
}

// Unrank is the inverse of Rank: it returns the k-element mask of the
// given rank within layer k. It panics when rank ≥ C(n, k).
func (r *Ranker) Unrank(k int, rank uint64) bitops.Mask {
	if k < 0 || k > r.n || rank >= r.LayerSize(k) {
		panic(fmt.Sprintf("lattice: unrank(%d, %d) out of range (layer size %d)", k, rank, r.LayerSize(k))) //lint:allow nopanic documented programmer-error precondition: rank must index into the layer
	}
	var mask bitops.Mask
	for j := k; j >= 1; j-- {
		// Largest p with C(p, j) ≤ rank; the j-th smallest member is p.
		p := j - 1
		for p+1 < MaxVars && p+1 <= r.n-1 && r.binom[p+1][j] <= rank {
			p++
		}
		mask = mask.With(p)
		rank -= r.binom[p][j]
	}
	return mask
}
