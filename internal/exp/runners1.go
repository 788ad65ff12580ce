package exp

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"obddopt/internal/bitops"
	"obddopt/internal/core"
	"obddopt/internal/funcs"
	"obddopt/internal/params"
	"obddopt/internal/truthtable"
)

// E1 reproduces Fig. 1: the Achilles-heel function f = Σ x_{2i−1}x_{2i}
// under the interleaved ordering (size 2k+2), the blocked ordering (size
// 2^{k+1}), and the exact optimum found by FS (which must equal the
// interleaved size).
func E1(w io.Writer, cfg Config) error {
	maxPairs := 8
	fsPairs := 6
	if cfg.Quick {
		maxPairs, fsPairs = 5, 4
	}
	fmt.Fprintf(w, "%5s %4s %12s %12s %12s %12s\n",
		"pairs", "n", "interleaved", "blocked", "FS-optimal", "paper")
	for pairs := 1; pairs <= maxPairs; pairs++ {
		f := funcs.AchillesHeel(pairs)
		good := core.SizeUnder(f, funcs.InterleavedOrdering(pairs), core.OBDD, nil)
		bad := core.SizeUnder(f, funcs.BlockedOrdering(pairs), core.OBDD, nil)
		opt := "-"
		if pairs <= fsPairs {
			res := core.OptimalOrdering(f, nil)
			opt = fmt.Sprintf("%d", res.Size)
			if res.Size != good {
				return fmt.Errorf("E1: FS optimum %d != interleaved size %d at pairs=%d", res.Size, good, pairs)
			}
		}
		fmt.Fprintf(w, "%5d %4d %12d %12d %12s %12s\n",
			pairs, 2*pairs, good, bad, opt,
			fmt.Sprintf("%d/%d", 2*pairs+2, 1<<uint(pairs+1)))
	}
	return nil
}

// E2 reproduces Table 1 by solving the balance equations for k = 1..6.
func E2(w io.Writer, cfg Config) error {
	maxK := 6
	if cfg.Quick {
		maxK = 3
	}
	rows, err := params.Table1(maxK)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%2s %9s  %s\n", "k", "gamma_k", "alpha_1..alpha_k")
	for _, r := range rows {
		fmt.Fprintf(w, "%2d %9.5f ", r.K, r.Exponent)
		for _, a := range r.Alphas {
			fmt.Fprintf(w, " %8.6f", a)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// E3 reproduces Table 2: the composed exponents from γ = 3 down to the
// Theorem 13 bound 2.77286.
func E3(w io.Writer, cfg Config) error {
	rounds := 10
	if cfg.Quick {
		rounds = 4
	}
	rows, err := params.Table2(rounds)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%5s %10s %10s  %s\n", "round", "gamma_in", "beta_6", "alpha_1..alpha_6")
	for i, r := range rows {
		fmt.Fprintf(w, "%5d %10.5f %10.5f ", i+1, r.Gamma, r.Exponent)
		for _, a := range r.Alphas {
			fmt.Fprintf(w, " %8.6f", a)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// E4 measures the operation count of algorithm FS against the analytic
// Σ_k k·C(n,k)·2^{n−k} bound and fits the empirical exponent, which must
// approach log2 3 (Theorem 5).
func E4(w io.Writer, cfg Config) error {
	minN, maxN := 4, 14
	if cfg.Quick {
		maxN = 10
	}
	rng := rand.New(rand.NewSource(cfg.seed()))
	fmt.Fprintf(w, "%3s %14s %14s %8s %10s\n", "n", "cell-ops", "analytic", "ratio", "log2(ops)/n")
	var lastOps uint64
	for n := minN; n <= maxN; n++ {
		f := truthtable.Random(n, rng)
		m := &core.Meter{}
		core.OptimalOrdering(f, &core.SolveOptions{Meter: m})
		var analytic uint64
		for k := 1; k <= n; k++ {
			analytic += bitops.Binomial(n, k) * uint64(k) << uint(n-k)
		}
		growth := "-"
		if lastOps > 0 {
			growth = fmt.Sprintf("%.3f", float64(m.CellOps)/float64(lastOps))
		}
		fmt.Fprintf(w, "%3d %14d %14d %8s %10.4f\n",
			n, m.CellOps, analytic, growth, math.Log2(float64(m.CellOps))/float64(n))
		lastOps = m.CellOps
	}
	fmt.Fprintf(w, "reference: log2(3) = %.4f (the FS exponent); per-n ratio → 3\n", math.Log2(3))
	return nil
}

// E5 compares brute force against FS on identical inputs: both optima must
// agree; operation counts realize the n!·2^n vs 3^n separation.
func E5(w io.Writer, cfg Config) error {
	minN, maxN := 2, 8
	if cfg.Quick {
		maxN = 6
	}
	rng := rand.New(rand.NewSource(cfg.seed()))
	fmt.Fprintf(w, "%3s %12s %12s %9s %10s %10s %7s\n",
		"n", "BF-ops", "FS-ops", "ops-ratio", "BF-time", "FS-time", "agree")
	for n := minN; n <= maxN; n++ {
		f := truthtable.Random(n, rng)
		bm, fm := &core.Meter{}, &core.Meter{}
		t0 := time.Now()
		bf := core.BruteForce(f, &core.BruteForceOptions{Meter: bm})
		bfTime := time.Since(t0)
		t0 = time.Now()
		fs := core.OptimalOrdering(f, &core.SolveOptions{Meter: fm})
		fsTime := time.Since(t0)
		fmt.Fprintf(w, "%3d %12d %12d %9.2f %10s %10s %7v\n",
			n, bm.CellOps, fm.CellOps,
			float64(bm.CellOps)/float64(fm.CellOps),
			bfTime.Round(time.Microsecond), fsTime.Round(time.Microsecond),
			bf.MinCost == fs.MinCost)
		if bf.MinCost != fs.MinCost {
			return fmt.Errorf("E5: disagreement at n=%d", n)
		}
	}
	return nil
}
