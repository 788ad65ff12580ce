package exp

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"obddopt/internal/core"
	"obddopt/internal/dynbdd"
	"obddopt/internal/funcs"
	"obddopt/internal/quantum"
	"obddopt/internal/truthtable"
)

// E15 is the branch-and-bound ablation: the same exact optima as the
// dynamic program, with DFS-path space (Θ(2ⁿ)) instead of layer space
// (Θ(3ⁿ/√n)), at the price of more cell operations. The lower bound's
// contribution is measured by disabling it.
func E15(w io.Writer, cfg Config) error {
	minN, maxN := 4, 10
	if cfg.Quick {
		maxN = 8
	}
	rng := rand.New(rand.NewSource(cfg.seed()))
	fmt.Fprintf(w, "%3s %12s %12s %12s %10s %10s %7s\n",
		"n", "FS-ops", "BnB-ops", "BnB-noLB", "FS-peak", "BnB-peak", "agree")
	for n := minN; n <= maxN; n++ {
		f := truthtable.Random(n, rng)
		fsM, bbM, nlM := &core.Meter{}, &core.Meter{}, &core.Meter{}
		fs := core.OptimalOrdering(f, &core.SolveOptions{Meter: fsM})
		bb := core.BranchAndBound(f, &core.SolveOptions{Meter: bbM})
		core.BranchAndBound(f, &core.SolveOptions{Meter: nlM, DisableLowerBound: true})
		if fs.MinCost != bb.MinCost {
			return fmt.Errorf("E15: disagreement at n=%d", n)
		}
		fmt.Fprintf(w, "%3d %12d %12d %12d %10d %10d %7v\n",
			n, fsM.CellOps, bbM.CellOps, nlM.CellOps, fsM.PeakCells, bbM.PeakCells,
			fs.MinCost == bb.MinCost)
	}
	fmt.Fprintln(w, "(BnB-peak stays Θ(2^n): one DFS path of tables; FS-peak grows with the widest layer)")
	return nil
}

// E16 validates the quantum cost model against real amplitudes and
// exercises the in-place dynamic-reordering engine:
//
//   - statevector Grover minimum finding (exponential-cost simulation of
//     the actual algorithm) vs the fast Dürr–Høyer query model used by
//     OptOBDD — measured queries must track the metered model;
//   - dynbdd's swap-based sifting from a pessimal ordering vs the exact
//     optimum, with swap counts.
func E16(w io.Writer, cfg Config) error {
	rng := rand.New(rand.NewSource(cfg.seed()))

	// Part 1: statevector vs model.
	qubits := []int{4, 6, 8}
	if cfg.Quick {
		qubits = []int{4, 6}
	}
	fmt.Fprintf(w, "Grover statevector vs Dürr–Høyer query model (mean over 15 instances)\n")
	fmt.Fprintf(w, "%3s %8s %14s %12s %8s\n", "q", "N", "statevector-q", "model-q", "ratio")
	for _, q := range qubits {
		n := uint64(1) << uint(q)
		var sv float64
		meter := &quantum.Meter{}
		dh := &quantum.DurrHoyer{Rng: rng, Meter: meter}
		const reps = 15
		costs := make([]uint64, n)
		for r := 0; r < reps; r++ {
			for i := range costs {
				costs[i] = uint64(rng.Intn(1 << 16))
			}
			cost := func(x uint64) uint64 { return costs[x] }
			_, qs := quantum.GroverMinimum(q, cost, rng)
			sv += float64(qs)
			dh.MinIndex(n, cost)
		}
		sv /= reps
		model := meter.Queries / reps
		fmt.Fprintf(w, "%3d %8d %14.1f %12.1f %8.2f\n", q, n, sv, model, sv/model)
	}
	fmt.Fprintf(w, "reference √N: %v\n\n", []float64{4, 8, 16})

	// Part 2: in-place dynamic reordering.
	pairs := 6
	if cfg.Quick {
		pairs = 5
	}
	f := funcs.AchillesHeel(pairs)
	m := dynbdd.New(2*pairs, funcs.BlockedOrdering(pairs))
	root := m.FromTruthTable(f)
	sift := m.Sift(0)
	m2 := dynbdd.New(2*pairs, funcs.BlockedOrdering(pairs))
	root2 := m2.FromTruthTable(f)
	exact, opt := m2.ExactReorder(root2)
	fmt.Fprintf(w, "in-place reordering of the %d-pair Achilles-heel from the blocked ordering\n", pairs)
	fmt.Fprintf(w, "%-14s %10s %10s %10s\n", "method", "initial", "final", "swaps")
	fmt.Fprintf(w, "%-14s %10d %10d %10d\n", "sifting", sift.Initial, sift.Final, sift.Swaps)
	fmt.Fprintf(w, "%-14s %10d %10d %10d\n", "exact (FS)", exact.Initial, exact.Final, exact.Swaps)
	if exact.Final != opt.MinCost {
		return fmt.Errorf("E16: in-place exact reorder %d != DP optimum %d", exact.Final, opt.MinCost)
	}
	if got := m.ToTruthTable(root); !got.Equal(f) {
		return fmt.Errorf("E16: sifting changed the function")
	}
	expected := uint64(2 * pairs)
	fmt.Fprintf(w, "expected optimum %d nonterminals (2k+2 minus terminals); log2 of blocked start: %.0f\n",
		expected, math.Log2(float64(sift.Initial)))
	return nil
}
