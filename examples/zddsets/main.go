// ZDD sets: represent sparse families of sets as zero-suppressed decision
// diagrams (the discrete-optimization application of Remark 2), perform
// family algebra, and use the exact dynamic program (with its two-line ZDD
// modification) to find the element ordering minimizing the ZDD.
//
// The concrete family: all maximal matchings of the path graph
// P_n — a classic frontier-style enumeration — built with ZDD set algebra.
//
//	go run ./examples/zddsets
package main

import (
	"fmt"

	"obddopt/internal/bitops"
	"obddopt/internal/core"
	"obddopt/internal/truthtable"
	"obddopt/internal/zdd"
)

func main() {
	const edges = 8 // path graph with 8 edges (9 vertices)

	// Enumerate all matchings of the path explicitly (small n), then load
	// them into a ZDD and compare orderings.
	matchings := pathMatchings(edges)
	fmt.Printf("path P_%d: %d matchings over %d edge-variables\n",
		edges+1, len(matchings), edges)

	m := zdd.New(edges, nil)
	fam := m.FromFamily(matchings)
	fmt.Printf("ZDD under natural ordering: %d nodes, %d member sets\n",
		m.CountNodes(fam), m.Count(fam))

	// Family algebra: matchings that use edge 0, and those that don't.
	withE0 := m.Intersect(fam, m.Join(m.Single(0), powerset(m, edges, 1)))
	without := m.Diff(fam, withE0)
	fmt.Printf("matchings using edge 1: %d; not using it: %d (sum %d)\n",
		m.Count(withE0), m.Count(without), m.Count(withE0)+m.Count(without))

	// Exact optimal element ordering for the characteristic function,
	// using the ZDD compaction rule of the dynamic program.
	chi := truthtable.New(edges)
	for _, s := range matchings {
		chi.Set(uint64(s), true)
	}
	res := core.OptimalOrdering(chi, &core.SolveOptions{Rule: core.ZDD})
	obdd := core.OptimalOrdering(chi, nil)
	fmt.Printf("exact minimum ZDD: %d nodes under %s\n", res.MinCost, res.Ordering)
	fmt.Printf("exact minimum OBDD of the same family: %d nodes (ZDD/OBDD = %.3f)\n",
		obdd.MinCost, float64(res.MinCost)/float64(obdd.MinCost))

	// Verify with the independent ZDD manager under the optimal ordering.
	mOpt := zdd.New(edges, res.Ordering)
	famOpt := mOpt.FromFamily(matchings)
	fmt.Printf("manager check under optimal ordering: %d nodes (agrees: %v)\n",
		mOpt.CountNodes(famOpt), mOpt.CountNodes(famOpt) == res.MinCost)
}

// pathMatchings lists all matchings of the path with the given number of
// edges: subsets of edges with no two adjacent.
func pathMatchings(edges int) []bitops.Mask {
	var out []bitops.Mask
	for s := bitops.Mask(0); s < 1<<uint(edges); s++ {
		if s&(s<<1) == 0 {
			out = append(out, s)
		}
	}
	return out
}

// powerset builds the family of all subsets of elements from..edges−1.
func powerset(m *zdd.Manager, edges, from int) zdd.Node {
	f := m.Base()
	for v := from; v < edges; v++ {
		f = m.Union(f, m.Join(f, m.Single(v)))
	}
	return f
}
