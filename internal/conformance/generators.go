// Package conformance is the repository's verification subsystem: a
// metamorphic oracle library cross-checking every registered solver
// against the algebraic invariants the paper proves (Lemma 3 level-width
// invariance under relabeling, Lemma 4 exact-solver agreement, Lemmas
// 7/8 shared-forest consistency), a fault-injecting chaos harness for
// the obddd network service, and a golden corpus of known-optimal
// orderings replayed by cmd/bddverify.
//
// Everything in the package is deterministic from a seed: a failing
// suite, chaos run or soak prints the seed that reproduces it.
package conformance

import (
	"math/rand"

	"obddopt/internal/funcs"
	"obddopt/internal/truthtable"
)

// Family is one seeded generator of a structured truth-table family.
// The metamorphic properties hold for arbitrary Boolean functions, but
// structured families (symmetric, threshold, Achilles-heel, read-once,
// sparse) exercise solver code paths — wide levels, skipped levels,
// heavy sharing — that uniform random tables almost never reach.
type Family struct {
	// Name identifies the family in reports and violation records.
	Name string
	// MinVars and MaxVars bound the variable counts the generator
	// supports; the suite clamps its requested arity into this range.
	MinVars, MaxVars int
	// New returns a table over n variables, deterministic in rng.
	New func(n int, rng *rand.Rand) *truthtable.Table
}

// Families returns the table families the conformance suite draws from.
// The slice is freshly allocated; callers may filter or reorder it.
func Families() []Family {
	return []Family{
		{
			// Value depends only on the assignment's weight: every
			// ordering gives the same profile, so any solver that breaks
			// ties or counts levels wrongly disagrees immediately.
			Name: "symmetric", MinVars: 1, MaxVars: 16,
			New: func(n int, rng *rand.Rand) *truthtable.Table {
				spectrum := make([]bool, n+1)
				for i := range spectrum {
					spectrum[i] = rng.Intn(2) == 1
				}
				return funcs.Symmetric(n, spectrum)
			},
		},
		{
			// [Σ x_i ≥ k] for a random k — totally symmetric with O(n)
			// width per level.
			Name: "threshold", MinVars: 1, MaxVars: 16,
			New: func(n int, rng *rand.Rand) *truthtable.Table {
				return funcs.Threshold(n, 1+rng.Intn(n))
			},
		},
		{
			// The papers' Fig. 1 ordering-sensitivity function
			// x₀x₁ + x₂x₃ + …; on odd arities the last variable is
			// irrelevant, which doubles as a built-in dummy-variable case.
			Name: "achilles", MinVars: 2, MaxVars: 16,
			New: func(n int, rng *rand.Rand) *truthtable.Table {
				pairs := n / 2
				return truthtable.FromFunc(n, func(x []bool) bool {
					for i := 0; i < 2*pairs; i += 2 {
						if x[i] && x[i+1] {
							return true
						}
					}
					return false
				})
			},
		},
		{
			// A random read-once formula: each variable appears exactly
			// once in a random AND/OR chain over a random permutation.
			// Read-once functions have linear-size minimum OBDDs.
			Name: "readonce", MinVars: 1, MaxVars: 16,
			New: func(n int, rng *rand.Rand) *truthtable.Table {
				perm := rng.Perm(n)
				ops := make([]bool, n) // true = AND, false = OR
				for i := range ops {
					ops[i] = rng.Intn(2) == 1
				}
				return truthtable.FromFunc(n, func(x []bool) bool {
					acc := x[perm[0]]
					for i := 1; i < n; i++ {
						if ops[i] {
							acc = acc && x[perm[i]]
						} else {
							acc = acc || x[perm[i]]
						}
					}
					return acc
				})
			},
		},
		{
			// Random k-sparse: exactly k satisfying assignments for a
			// small random k — the regime ZDDs are built for, where the
			// zero-suppressed rule skips almost every node.
			Name: "sparse", MinVars: 1, MaxVars: 16,
			New: func(n int, rng *rand.Rand) *truthtable.Table {
				t := truthtable.New(n)
				k := 1 + rng.Intn(4)
				for i := 0; i < k; i++ {
					t.Set(uint64(rng.Intn(1<<uint(n))), true)
				}
				return t
			},
		},
		{
			// Uniformly random tables keep the structured families
			// honest: no generator bias survives this control.
			Name: "random", MinVars: 1, MaxVars: 16,
			New: truthtable.Random,
		},
	}
}
