package exp

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"obddopt/internal/bitops"
	"obddopt/internal/circuit"
	"obddopt/internal/core"
	"obddopt/internal/expr"
	"obddopt/internal/funcs"
	"obddopt/internal/quantum"
	"obddopt/internal/truthtable"
)

// E11 demonstrates Corollary 2: the same function supplied as a raw truth
// table, a parsed expression, a DNF, and a gate-level circuit yields
// identical optima, with the only extra cost being the O*(2^n) table
// preparation.
func E11(w io.Writer, cfg Config) error {
	bits := 3
	if cfg.Quick {
		bits = 2
	}
	n := 2 * bits

	// The comparator [a > b] in four representations.
	direct := funcs.Comparator(bits)

	src := comparatorExpr(bits)
	parsed, err := expr.Parse(src)
	if err != nil {
		return fmt.Errorf("E11: parse: %w", err)
	}
	fromExpr, err := expr.ToTruthTable(parsed, n)
	if err != nil {
		return err
	}

	circ := circuit.ComparatorGT(bits)
	fromCirc := circ.OutputTable(0)

	reps := []struct {
		name string
		tt   *truthtable.Table
	}{
		{"truth-table", direct},
		{"expression", fromExpr},
		{"circuit", fromCirc},
	}
	fmt.Fprintf(w, "function: %d-bit comparator [a > b], n = %d\n", bits, n)
	fmt.Fprintf(w, "%-12s %10s %10s %12s\n", "source", "optimal", "size", "prep-cells")
	var first uint64
	for i, rep := range reps {
		if !rep.tt.Equal(direct) {
			return fmt.Errorf("E11: representation %s compiled to a different function", rep.name)
		}
		res := core.OptimalOrdering(rep.tt, nil)
		if i == 0 {
			first = res.MinCost
		} else if res.MinCost != first {
			return fmt.Errorf("E11: optimum differs for %s", rep.name)
		}
		fmt.Fprintf(w, "%-12s %10d %10d %12d\n", rep.name, res.MinCost, res.Size, rep.tt.Size())
	}
	fmt.Fprintf(w, "all representations agree on the optimum (%d nonterminals)\n", first)
	return nil
}

// comparatorExpr builds the [a > b] formula text for two bits-wide
// operands with the funcs variable layout (x1..xbits = a, rest = b).
func comparatorExpr(bits int) string {
	var terms []string
	for i := bits - 1; i >= 0; i-- {
		// a_i > b_i while all higher bits equal.
		var conj []string
		for j := bits - 1; j > i; j-- {
			conj = append(conj, fmt.Sprintf("(x%d <-> x%d)", j+1, bits+j+1))
		}
		conj = append(conj, fmt.Sprintf("(x%d & !x%d)", i+1, bits+i+1))
		terms = append(terms, "("+strings.Join(conj, " & ")+")")
	}
	return strings.Join(terms, " | ")
}

// E12 sweeps the composable FS* over prefix sizes: for a fixed bottom
// block I the extension over J = [n]∖I costs Θ(2^{n−|I|−|J|}·3^{|J|})
// cell operations, and the block-constrained optimum is sandwiched between
// the global optimum and every sampled compatible ordering.
func E12(w io.Writer, cfg Config) error {
	n := 10
	if cfg.Quick {
		n = 8
	}
	rng := rand.New(rand.NewSource(cfg.seed()))
	f := truthtable.Random(n, rng)
	global := core.OptimalOrdering(f, nil)
	fmt.Fprintf(w, "n=%d random function, global optimum %d nonterminals\n", n, global.MinCost)
	fmt.Fprintf(w, "%4s %12s %12s %14s %14s\n", "|I|", "constrained", "vs-global", "cell-ops", "analytic")
	for k := 1; k < n; k++ {
		var I bitops.Mask
		perm := rng.Perm(n)
		for i := 0; i < k; i++ {
			I = I.With(perm[i])
		}
		J := bitops.FullMask(n) &^ I
		m := &core.Meter{}
		res := core.OptimalOrderingBlocks(f, []bitops.Mask{I, J}, &core.SolveOptions{Meter: m})
		if res.MinCost < global.MinCost {
			return fmt.Errorf("E12: constrained optimum beat global at |I|=%d", k)
		}
		// Analytic cell count for the two-block DP:
		// Σ_{j≤k} j·C(k,j)·2^{n−j} scaled + second block.
		var analytic uint64
		for j := 1; j <= k; j++ {
			analytic += bitops.Binomial(k, j) * uint64(j) << uint(n-j)
		}
		for j := 1; j <= n-k; j++ {
			analytic += bitops.Binomial(n-k, j) * uint64(j) << uint(n-k-j)
		}
		fmt.Fprintf(w, "%4d %12d %+12d %14d %14d\n",
			k, res.MinCost, int64(res.MinCost)-int64(global.MinCost), m.CellOps, analytic)
	}
	return nil
}

// E13 measures the error-injection degradation: with failure probability ε
// per minimum-finding call, the returned ordering is always valid, and the
// end-to-end non-optimality rate tracks (is bounded by a small multiple
// of) ε — Theorem 1's "valid OBDD, non-minimum with small probability".
func E13(w io.Writer, cfg Config) error {
	trials := 300
	if cfg.Quick {
		trials = 60
	}
	n := 6
	rng := rand.New(rand.NewSource(cfg.seed()))
	f := truthtable.Random(n, rng)
	opt := core.OptimalOrdering(f, nil).MinCost
	fmt.Fprintf(w, "n=%d fixed random function, optimum %d, %d trials per ε\n", n, opt, trials)
	fmt.Fprintf(w, "%8s %12s %12s %10s\n", "eps", "subopt-rate", "valid-rate", "mean-size")
	for _, eps := range []float64{0, 0.05, 0.25, 1} {
		subopt, valid := 0, 0
		var sizeSum uint64
		for trial := 0; trial < trials; trial++ {
			res := core.DivideAndConquer(f, &core.SolveOptions{
				Minimizer: &quantum.Noisy{Eps: eps, Rng: rng},
			})
			if res.Ordering.Valid() && core.SizeUnder(f, res.Ordering, core.OBDD, nil) == res.Size {
				valid++
			}
			if res.MinCost > opt {
				subopt++
			}
			if res.MinCost < opt {
				return fmt.Errorf("E13: beat the optimum — impossible")
			}
			sizeSum += res.MinCost
		}
		fmt.Fprintf(w, "%8.2f %12.3f %12.3f %10.2f\n",
			eps, float64(subopt)/float64(trials), float64(valid)/float64(trials),
			float64(sizeSum)/float64(trials))
		if valid != trials {
			return fmt.Errorf("E13: invalid ordering produced at eps=%v", eps)
		}
	}
	fmt.Fprintln(w, "validity holds at every ε; only minimality degrades (Theorem 1)")
	return nil
}

// E14 verifies the space accounting of Remark 1: the DP's peak live table
// cells match the analytic two-layer bound max_k [C(n,k)·2^{n−k} +
// C(n,k−1)·2^{n−k+1}] plus the base table (core.PeakCellsBound).
func E14(w io.Writer, cfg Config) error {
	minN, maxN := 6, 13
	if cfg.Quick {
		maxN = 10
	}
	rng := rand.New(rand.NewSource(cfg.seed()))
	fmt.Fprintf(w, "%3s %14s %14s %8s\n", "n", "peak-cells", "2-layer-bound", "peak/bound")
	for n := minN; n <= maxN; n++ {
		f := truthtable.Random(n, rng)
		m := &core.Meter{}
		core.OptimalOrdering(f, &core.SolveOptions{Meter: m})
		bound := core.PeakCellsBound(n)
		fmt.Fprintf(w, "%3d %14d %14d %8.3f\n", n, m.PeakCells, bound, float64(m.PeakCells)/float64(bound))
		if m.PeakCells > 2*bound {
			return fmt.Errorf("E14: peak cells exceed twice the analytic bound at n=%d", n)
		}
	}
	return nil
}
