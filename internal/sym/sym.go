// Package sym exploits the symmetric variables of Boolean functions for
// heuristic ordering search. Two variables are symmetric when
// exchanging them leaves the function invariant (equivalently
// f|x_i=0,x_j=1 ≡ f|x_i=1,x_j=0); symmetry is an equivalence relation, so
// the variables partition into symmetry groups. Orderings that permute
// variables within a group yield identical diagrams, which
//
//   - shrinks the effective search space of ordering optimization
//     (orderings modulo group-internal permutations), and
//   - motivates group sifting: moving whole groups instead of single
//     variables, the classical symmetric-sifting heuristic.
//
// Detection is truthtable.Groups, the same exact detector the default
// solver uses to run its dynamic program over symmetry orbits.
package sym

import (
	"sort"

	"obddopt/internal/bitops"
	"obddopt/internal/core"
	"obddopt/internal/truthtable"
)

// TotallySymmetric reports whether all variables form one symmetry group
// (every ordering yields the same diagram).
func TotallySymmetric(f *truthtable.Table) bool {
	return len(truthtable.Groups(f)) == 1
}

// EffectiveOrderings returns the number of distinct orderings modulo
// group-internal permutations: n! / Π |g_i|!. It quantifies the search
// reduction symmetry gives (reported by experiment E18).
func EffectiveOrderings(groups []bitops.Mask) float64 {
	n := 0
	for _, g := range groups {
		n += g.Count()
	}
	r := 1.0
	for i := 2; i <= n; i++ {
		r *= float64(i)
	}
	for _, g := range groups {
		for i := 2; i <= g.Count(); i++ {
			r /= float64(i)
		}
	}
	return r
}

// Result reports a group-sifting outcome.
type Result struct {
	// Ordering is the best ordering found, bottom-up.
	Ordering truthtable.Ordering
	// MinCost is the exact nonterminal count under Ordering.
	MinCost uint64
	// Groups are the detected symmetry groups (sorted by smallest
	// member), in their final bottom-up arrangement order.
	Groups []bitops.Mask
	// Evaluations counts cost-oracle calls.
	Evaluations uint64
}

// GroupSift runs symmetric sifting: the symmetry groups of f are detected
// and then sifted as indivisible blocks — each group is moved through
// every block position (others fixed) and parked where the exact cost is
// smallest, sweeping until convergence. Within a group the member order
// is irrelevant by symmetry; members are kept in index order.
func GroupSift(f *truthtable.Table, rule core.Rule) Result {
	groups := truthtable.Groups(f)
	// arrangement is the current bottom-up list of group indices.
	arrangement := make([]int, len(groups))
	for i := range arrangement {
		arrangement[i] = i
	}
	var evals uint64
	cost := func(arr []int) uint64 {
		evals++
		ord := flatten(groups, arr)
		widths := core.Profile(f, ord, rule, nil)
		var sum uint64
		for _, w := range widths {
			sum += w
		}
		return sum
	}
	best := cost(arrangement)
	for {
		improved := false
		for gi := range groups {
			pos := indexOf(arrangement, gi)
			bestPos, bestCost := pos, best
			for target := 0; target < len(arrangement); target++ {
				if target == pos {
					continue
				}
				cand := moveTo(arrangement, pos, target)
				if c := cost(cand); c < bestCost {
					bestPos, bestCost = target, c
				}
			}
			if bestPos != pos {
				arrangement = moveTo(arrangement, pos, bestPos)
				best = bestCost
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	finalGroups := make([]bitops.Mask, len(arrangement))
	for i, gi := range arrangement {
		finalGroups[i] = groups[gi]
	}
	return Result{
		Ordering:    flatten(groups, arrangement),
		MinCost:     best,
		Groups:      finalGroups,
		Evaluations: evals,
	}
}

// flatten expands a group arrangement into a bottom-up variable ordering,
// members of each group in ascending index order.
func flatten(groups []bitops.Mask, arr []int) truthtable.Ordering {
	var ord truthtable.Ordering
	for _, gi := range arr {
		members := groups[gi].Members(nil)
		sort.Ints(members)
		ord = append(ord, members...)
	}
	return ord
}

func indexOf(arr []int, v int) int {
	for i, x := range arr {
		if x == v {
			return i
		}
	}
	panic("sym: group vanished from arrangement")
}

// moveTo returns a copy of arr with the element at from moved to to.
func moveTo(arr []int, from, to int) []int {
	out := make([]int, 0, len(arr))
	v := arr[from]
	for i, x := range arr {
		if i == from {
			continue
		}
		out = append(out, x)
	}
	out = append(out, 0)
	copy(out[to+1:], out[to:])
	out[to] = v
	return out
}
