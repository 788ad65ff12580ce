package core

import (
	stdctx "context"
	"math"
	"sort"

	"obddopt/internal/bitops"
	"obddopt/internal/obs"
	"obddopt/internal/quantum"
	"obddopt/internal/truthtable"
)

// DefaultAlphas is the two-division-point parameter vector α* of the
// restatement's Appendix B, the smallest configuration that already beats
// the single split.
var DefaultAlphas = []float64{0.192754, 0.334571}

// normalizeSizes converts fractions to strictly increasing integer level
// counts in [1, n−1]. Collapsed or out-of-range entries are dropped.
func normalizeSizes(n int, alphas []float64) []int {
	var sizes []int
	for _, a := range alphas {
		s := int(math.Round(a * float64(n)))
		if s < 1 || s > n-1 {
			continue
		}
		if len(sizes) > 0 && s <= sizes[len(sizes)-1] {
			continue
		}
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	return sizes
}

// DivideAndConquer runs OptOBDD(k, α) (Theorem 10) with the configured
// minimum-finding strategy: the ordering problem is recursively split at
// the division points (Lemma 9), the bottom fragment is solved via the
// precomputed FS layer, the upper fragments via the extension
// subroutine Γ, and the division subsets are chosen by (simulated)
// quantum minimum finding. opts.Depth selects Γ: FS* at depth 0, or
// recursively OptOBDD_Γ itself — Section 4's composition ladder.
//
// With the exact simulator the result equals OptimalOrdering's at every
// depth; with the noisy simulator the returned ordering is always valid
// but may be non-minimum with the injected probability — exactly the
// guarantee of Theorem 1.
func DivideAndConquer(tt *truthtable.Table, opts *SolveOptions) *Result {
	return mustResult(DivideAndConquerCtx(nil, tt, opts))
}

// DivideAndConquerCtx is DivideAndConquer under a context and resource
// budget: every inner dynamic program, at every composition depth, polls
// the cooperative checkpoint, and the minimum-finding recursion unwinds
// — releasing all owned tables — as soon as a checkpoint fires. The
// recursion holds no complete ordering before it finishes, so an early
// stop returns a nil Result with ErrCanceled / ErrBudgetExceeded.
func DivideAndConquerCtx(ctx stdctx.Context, tt *truthtable.Table, opts *SolveOptions) (*Result, error) {
	n := tt.NumVars()
	alphas := DefaultAlphas
	if opts != nil && opts.Alphas != nil {
		alphas = opts.Alphas
	}
	if len(normalizeSizes(n, alphas)) == 0 {
		// The function is too small to split; the algorithm degenerates
		// to plain FS, as the papers' analysis assumes Ω(n) block sizes.
		return OptimalOrderingCtx(ctx, tt, opts)
	}
	rule, tr := opts.rule(), opts.trace()
	m := meterFor(opts.meter(), opts.budget())
	obs.Metrics.RunsStarted.Inc()
	var minz quantum.Minimizer
	if opts != nil && opts.Minimizer != nil {
		minz = opts.Minimizer
	} else {
		minz = &quantum.Exact{Eps: math.Pow(2, -float64(n)), Ctx: ctx, Trace: tr}
	}
	levels := 1
	if opts != nil && opts.Depth > 0 {
		levels += opts.Depth
	}

	base := baseContext(tt)
	m.alloc(base.cells())
	d := &dncRun{rule: rule, m: m, tr: tr, minz: minz, alphas: alphas, lim: newLimiter(ctx, opts.budget(), m)}
	fin, order, err := d.extend(base, bitops.FullMask(n), levels)
	m.free(base.cells())
	if err != nil {
		return nil, err
	}
	minCost := fin.cost
	m.free(fin.cells())
	finishMetrics(m)
	return finishResult(tt, truthtable.Ordering(order), minCost, rule), nil
}

// dncRun carries the shared state of one DivideAndConquer invocation.
type dncRun struct {
	rule   Rule
	m      *Meter
	tr     obs.Tracer
	minz   quantum.Minimizer
	alphas []float64
	lim    *limiter
	// err latches the first checkpoint failure observed inside a
	// minimizer-driven cost evaluation, whose uint64-only signature
	// cannot carry it; once set, further evaluations return immediately.
	err error
}

// extend produces FS(⟨…, J⟩) from ctx = FS(⟨…⟩) by absorbing all of the
// non-empty set J, returning the caller-owned context and J's bottom-up
// order: the role of Γ in the pseudocode. At levels 0, or when J is too
// small to split, it is the classical FS* (one subset DP over J, Lemma
// 11). Otherwise it divides J at the α fractions: it precomputes
// FS(⟨…, K⟩) for every K ⊆ J of the smallest division size (line 3 of
// the pseudocode), searches the division subsets with the minimizer, and
// absorbs each block above a division point with levels−1 (Lemma 12).
// ctx stays the caller's.
func (d *dncRun) extend(ctx *fsContext, J bitops.Mask, levels int) (*fsContext, []int, error) {
	nj := J.Count()
	sizes := normalizeSizes(nj, d.alphas)
	if levels == 0 || len(sizes) == 0 {
		st, err := runDP(ctx, J, nj, d.rule, d.m, d.tr, d.lim)
		if err != nil {
			return nil, nil, err
		}
		order := st.Reconstruct(J)
		fin, _ := st.Take(J) // J is non-empty, so fin is caller-owned
		st.Release()
		return fin, order, nil
	}
	pre, err := runDP(ctx, J, sizes[0], d.rule, d.m, d.tr, d.lim)
	if err != nil {
		return nil, nil, err
	}

	// solve implements Function DivideAndConquer(L, t) of the
	// pseudocode: it returns the optimal context absorbing exactly the
	// variables of L, the bottom-up order of L, and whether the caller
	// owns (must free) the context's table. sizes are strictly
	// increasing and below |J|, so every split leaves a non-empty block
	// above it.
	var solve func(L bitops.Mask, t int) (*fsContext, []int, bool, error)
	solve = func(L bitops.Mask, t int) (*fsContext, []int, bool, error) {
		if t == 0 {
			// FS(L) has been precomputed (line 7); pre keeps ownership
			// of the borrowed context.
			return pre.Context(L), pre.Reconstruct(L), false, nil
		}
		cands := subsetsWithin(L, sizes[t-1])
		if d.tr != nil {
			d.tr.Emit(obs.Event{Kind: obs.KindDnCSplit, Depth: t, Mask: uint64(L), Subsets: len(cands)})
		}
		eval := func(i uint64) uint64 {
			if d.err != nil {
				// A previous evaluation hit a checkpoint; drain the
				// remaining minimizer queries without doing work.
				return ^uint64(0)
			}
			K := cands[i]
			ctxK, _, ownedK, err := solve(K, t-1)
			if err != nil {
				d.err = err
				return ^uint64(0)
			}
			fin, _, err := d.extend(ctxK, L&^K, levels-1)
			if ownedK {
				d.m.free(ctxK.cells())
			}
			if err != nil {
				d.err = err
				return ^uint64(0)
			}
			d.m.free(fin.cells())
			if d.m != nil {
				d.m.Evaluations++
			}
			obs.Metrics.Evaluations.Inc()
			return fin.cost
		}
		best := d.minz.MinIndex(uint64(len(cands)), eval)
		if d.err != nil {
			return nil, nil, false, d.err
		}

		// Recompute the winning split to obtain its context and ordering.
		K := cands[best]
		ctxK, orderK, ownedK, err := solve(K, t-1)
		if err != nil {
			return nil, nil, false, err
		}
		fin, orderRest, err := d.extend(ctxK, L&^K, levels-1)
		if ownedK {
			d.m.free(ctxK.cells())
		}
		if err != nil {
			return nil, nil, false, err
		}
		if d.tr != nil {
			d.tr.Emit(obs.Event{Kind: obs.KindDnCMerge, Depth: t, Mask: uint64(K), Cost: fin.cost})
		}
		return fin, append(append([]int{}, orderK...), orderRest...), true, nil
	}
	fin, order, _, err := solve(J, len(sizes))
	pre.Release()
	return fin, order, err
}

// subsetsWithin lists all s-element subsets of the set L, in deterministic
// (lexicographic over member positions) order.
func subsetsWithin(L bitops.Mask, s int) []bitops.Mask {
	members := L.Members(nil)
	nm := len(members)
	var out []bitops.Mask
	bitops.SubsetsOfSize(nm, s, func(rel bitops.Mask) {
		var abs bitops.Mask
		for _, p := range rel.Members(nil) {
			abs = abs.With(members[p])
		}
		out = append(out, abs)
	})
	return out
}
