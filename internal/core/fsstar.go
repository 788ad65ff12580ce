package core

import (
	"fmt"

	"obddopt/internal/bitops"
	"obddopt/internal/truthtable"
)

// BlockResult reports a constrained minimization over Π(⟨B₁, …, B_m⟩): the
// orderings whose bottom |B₁| levels read exactly the variables of B₁ (in
// some order), the next |B₂| levels those of B₂, and so on.
type BlockResult struct {
	// Blocks echoes the requested block partition, bottom-up.
	Blocks []bitops.Mask
	// MinCost is MINCOST_⟨B₁,…,B_m⟩: the minimum number of nonterminal
	// nodes in the levels covered by the blocks, over all π ∈ Π(⟨B…⟩).
	MinCost uint64
	// BlockCosts[i] is MINCOST_⟨B₁,…,B_m⟩(B_i), block i's contribution.
	BlockCosts []uint64
	// Ordering is an optimal ordering of the covered variables,
	// bottom-up. If the blocks cover all n variables this is a complete
	// variable ordering.
	Ordering truthtable.Ordering
}

// OptimalOrderingBlocks is the composable algorithm FS* of Lemma 8
// specialized to full-block absorption: it computes FS(⟨B₁, …, B_m⟩) by
// running the subset dynamic program inside each block in turn. Lemma 7
// guarantees that optimizing each block independently, bottom-up, yields
// the exact constrained optimum: the width of a level depends only on the
// set of variables below it (Lemma 3), so a block's contribution is
// unaffected by the internal order of earlier blocks and later blocks.
//
// Blocks are given bottom-up and must be disjoint; they need not cover all
// variables (uncovered variables conceptually sit above the last block and
// contribute no cost here).
func OptimalOrderingBlocks(tt *truthtable.Table, blocks []bitops.Mask, opts *SolveOptions) *BlockResult {
	rule, m := opts.rule(), opts.meter()
	n := tt.NumVars()
	var seen bitops.Mask
	for i, b := range blocks {
		if b == 0 {
			panic(fmt.Sprintf("core: block %d is empty", i)) //lint:allow nopanic documented programmer-error precondition on the block structure
		}
		if b&seen != 0 {
			panic(fmt.Sprintf("core: block %d overlaps earlier blocks", i)) //lint:allow nopanic documented programmer-error precondition on the block structure
		}
		if b&^bitops.FullMask(n) != 0 {
			panic(fmt.Sprintf("core: block %d references variables ≥ n", i)) //lint:allow nopanic documented programmer-error precondition on the block structure
		}
		seen |= b
	}

	base := baseContext(tt)
	m.alloc(base.cells())
	cur := base
	res := &BlockResult{Blocks: blocks}
	var order []int
	for _, b := range blocks {
		st := mustResult(runDP(cur, b, b.Count(), rule, m, opts.trace(), nil))
		blockOrder := st.Reconstruct(b)
		order = append(order, blockOrder...)
		// Blocks are non-empty, so the taken context is always owned; the
		// state retires with nothing left to release but its workspace.
		next, _ := st.Take(b)
		st.Release()
		prevCost := cur.cost
		if cur != base {
			m.free(cur.cells())
		}
		cur = next
		res.BlockCosts = append(res.BlockCosts, cur.cost-prevCost)
	}
	res.MinCost = cur.cost
	res.Ordering = truthtable.Ordering(order)
	if cur != base {
		m.free(cur.cells())
	}
	m.free(base.cells())
	return res
}
