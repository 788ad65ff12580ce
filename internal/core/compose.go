package core

import (
	"math"

	"obddopt/internal/bitops"
	"obddopt/internal/obs"
	"obddopt/internal/quantum"
	"obddopt/internal/truthtable"
)

// This file implements the composition ladder of Section 4 (Theorems
// 11–13): the composable quantum algorithm OptOBDD_Γ whose inner
// extension subroutine Γ is either the classical FS* (the base of the
// ladder, Lemma 11) or, recursively, another OptOBDD_Γ (the induction
// step, Lemma 12). Each composition level re-runs the divide-and-conquer
// splitting inside the extension calls, which is what drives the exponent
// down the Table 2 column 2.83728 → 2.79364 → … → 2.77286.
//
// Classically simulated, every level of the ladder returns exact optima;
// what changes is the cost structure, metered by the quantum query
// counter. CompositionDepth 0 reproduces DivideAndConquer exactly.

// LadderOptions configures the composed algorithm.
type LadderOptions struct {
	// Rule selects the diagram variant.
	Rule Rule
	// Meter, if non-nil, accumulates compaction counts.
	Meter *Meter
	// Trace, if non-nil, receives split/merge and inner-DP layer events
	// (see DnCOptions.Trace).
	Trace obs.Tracer
	// Minimizer performs minimum finding (nil = exact simulator).
	Minimizer quantum.Minimizer
	// Alphas are the division fractions (nil = DefaultAlphas).
	Alphas []float64
	// Depth is the composition depth: 0 uses classical FS* as the
	// extension subroutine Γ (Lemma 11 / plain DivideAndConquer); d > 0
	// uses a depth-(d−1) ladder as Γ (Lemma 12). The papers iterate to
	// depth 9 for Theorem 13; exact results are identical at every depth.
	Depth int
}

// DivideAndConquerComposed runs the composition ladder at the configured
// depth and returns the exact optimum (with the exact minimizer).
func DivideAndConquerComposed(tt *truthtable.Table, opts *LadderOptions) *Result {
	rule := OBDD
	var m *Meter
	var tr obs.Tracer
	alphas := DefaultAlphas
	depth := 0
	if opts != nil {
		rule = opts.Rule
		m = opts.Meter
		tr = opts.Trace
		if opts.Alphas != nil {
			alphas = opts.Alphas
		}
		depth = opts.Depth
	}
	n := tt.NumVars()
	obs.Metrics.RunsStarted.Inc()
	var minz quantum.Minimizer
	if opts != nil && opts.Minimizer != nil {
		minz = opts.Minimizer
	} else {
		minz = &quantum.Exact{Eps: math.Pow(2, -float64(n)), Trace: tr}
	}

	base := baseContext(tt)
	m.alloc(base.cells())
	full := bitops.FullMask(n)
	l := &ladder{rule: rule, m: m, tr: tr, minz: minz, alphas: alphas}
	ctx, order, owned := l.extend(base, full, depth)
	minCost := ctx.cost
	if owned {
		m.free(ctx.cells())
	}
	m.free(base.cells())
	finishMetrics(m)
	return finishResult(tt, truthtable.Ordering(order), minCost, rule)
}

type ladder struct {
	rule   Rule
	m      *Meter
	tr     obs.Tracer
	minz   quantum.Minimizer
	alphas []float64
}

// extend produces FS(⟨…, J⟩) from ctx (= FS(⟨…⟩)) by absorbing all of J:
// the role of Γ in the pseudocode. At depth 0 it is the classical FS*
// (one subset DP over J); at depth d it divides J at the α fractions,
// searches the division subsets with the minimizer, and extends
// recursively at depth d−1.
func (l *ladder) extend(ctx *fsContext, J bitops.Mask, depth int) (out *fsContext, order []int, owned bool) {
	nj := J.Count()
	if nj == 0 {
		return ctx, nil, false
	}
	sizes := normalizeSizes(nj, l.alphas)
	if depth <= 0 || len(sizes) == 0 {
		// Classical FS* extension. J is non-empty here, so the taken
		// context is always caller-owned.
		st := mustResult(runDP(ctx, J, nj, l.rule, l.m, l.tr, nil))
		order := st.Reconstruct(J)
		fin, owned := st.Take(J)
		st.Release()
		return fin, order, owned
	}

	// Preprocess: FS(⟨…, K⟩) for all K ⊆ J with |K| = sizes[0], computed
	// with the classical DP (line 3 of the pseudocode).
	pre := mustResult(runDP(ctx, J, sizes[0], l.rule, l.m, l.tr, nil))

	var solve func(L bitops.Mask, t int) (*fsContext, []int, bool)
	solve = func(L bitops.Mask, t int) (*fsContext, []int, bool) {
		if t == 0 {
			return pre.Context(L), pre.Reconstruct(L), false
		}
		s := sizes[t-1]
		if s >= L.Count() {
			return solve(L, t-1)
		}
		cands := subsetsWithin(L, s)
		if l.tr != nil {
			l.tr.Emit(obs.Event{Kind: obs.KindDnCSplit, Depth: t, Mask: uint64(L), Subsets: len(cands)})
		}
		eval := func(i uint64) uint64 {
			K := cands[i]
			ctxK, _, ownedK := solve(K, t-1)
			// The extension over L∖K is Γ: a depth−1 ladder.
			fin, _, ownedFin := l.extend(ctxK, L&^K, depth-1)
			cost := fin.cost
			if ownedFin {
				l.m.free(fin.cells())
			}
			if ownedK {
				l.m.free(ctxK.cells())
			}
			if l.m != nil {
				l.m.Evaluations++
			}
			obs.Metrics.Evaluations.Inc()
			return cost
		}
		best := l.minz.MinIndex(uint64(len(cands)), eval)
		K := cands[best]
		ctxK, orderK, ownedK := solve(K, t-1)
		fin, orderRest, ownedFin := l.extend(ctxK, L&^K, depth-1)
		if l.tr != nil {
			l.tr.Emit(obs.Event{Kind: obs.KindDnCMerge, Depth: t, Mask: uint64(K), Cost: fin.cost})
		}
		order := append(append([]int{}, orderK...), orderRest...)
		if !ownedFin {
			return ctxK, order, ownedK
		}
		if ownedK {
			l.m.free(ctxK.cells())
		}
		return fin, order, true
	}

	out, order, owned = solve(J, len(sizes))
	if !owned {
		// out is an entry of the precomputed layer; clone it so the
		// whole layer can be released uniformly.
		out = out.clone()
		l.m.alloc(out.cells()) // ownership transfers via the returned context; proven by meterbalance's carrier-return rule
		owned = true
	}
	pre.Release()
	return out, order, owned
}
