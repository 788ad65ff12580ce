package exp

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"obddopt/internal/bitops"
	"obddopt/internal/core"
	"obddopt/internal/funcs"
	"obddopt/internal/heuristics"
	"obddopt/internal/sym"
	"obddopt/internal/truthtable"
)

// E18 measures symmetry exploitation: detected symmetry groups on the
// benchmark families, the search-space reduction n!/Π|g|! they induce,
// group sifting's quality/cost against plain sifting and the exact
// optimum, and the cell operations the default solver's DP over the
// symmetry orbits meters against Theorem 5's n·3^(n−1) for the full DP.
func E18(w io.Writer, cfg Config) error {
	rng := rand.New(rand.NewSource(cfg.seed()))
	n := 10
	if cfg.Quick {
		n = 8
	}
	type workload struct {
		name string
		tt   *truthtable.Table
	}
	workloads := []workload{
		{"achilles", funcs.AchillesHeel(n / 2)},
		{"adder-carry", funcs.AdderCarry(n / 2)},
		{"majority", funcs.Majority(n)},
		{"comparator", funcs.Comparator(n / 2)},
		{"hidden-wtd-bit", funcs.HiddenWeightedBit(n)},
		{"random", truthtable.Random(n, rng)},
	}
	fmt.Fprintf(w, "%-15s %3s %7s %12s %9s %9s %9s %11s %11s %9s %9s\n",
		"workload", "n", "groups", "eff-orders", "optimal", "gsift", "sift", "gsift-evals", "sift-evals", "thm5-ops", "solve-ops")
	for _, wl := range workloads {
		nn := wl.tt.NumVars()
		groups := truthtable.Groups(wl.tt)
		eff := sym.EffectiveOrderings(groups)
		total := bitops.Factorial(nn)
		opt := core.OptimalOrdering(wl.tt, nil).MinCost
		gs := sym.GroupSift(wl.tt, core.OBDD)
		ps := heuristics.Sift(wl.tt, core.OBDD, 0)
		thm5 := uint64(nn)
		for i := 1; i < nn; i++ {
			thm5 *= 3
		}
		m := &core.Meter{}
		res, err := core.Portfolio(context.Background(), wl.tt, &core.SolveOptions{Meter: m})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-15s %3d %7d %12.3g %9d %9d %9d %11d %11d %9d %9d\n",
			wl.name, nn, len(groups), eff, opt, gs.MinCost, ps.MinCost,
			gs.Evaluations, ps.Evaluations, thm5, m.CellOps)
		if gs.MinCost < opt {
			return fmt.Errorf("E18: group sift beat the optimum")
		}
		if res.MinCost != opt {
			return fmt.Errorf("E18: default solver cost %d, fs optimum %d", res.MinCost, opt)
		}
		_ = total
	}
	fmt.Fprintln(w, "(eff-orders = n!/Π|g|!: orderings that remain distinct after symmetry reduction)")
	fmt.Fprintln(w, "(thm5-ops = n·3^(n−1), the full DP's cell operations; solve-ops = the default solver's, over the symmetry orbits)")
	return nil
}
