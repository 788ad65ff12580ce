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

// DnCOptions configures the divide-and-conquer algorithm OptOBDD(k, α).
type DnCOptions struct {
	// Rule selects the diagram variant (OBDD or ZDD).
	Rule Rule
	// Meter, if non-nil, accumulates table-compaction counts.
	Meter *Meter
	// Trace, if non-nil, receives split/merge recursion events, the
	// layer events of every inner dynamic program, and — when the
	// default minimizer is used — quantum query batches. A caller-
	// supplied Minimizer wires its own Trace field if batch events are
	// wanted.
	Trace obs.Tracer
	// Minimizer performs minimum finding over division-point candidates.
	// Nil selects the exact simulator (quantum.Exact with ε = 2^−n).
	Minimizer quantum.Minimizer
	// Alphas are the division fractions 0 < α₁ < … < α_k < 1 of
	// Theorems 10/13. Nil selects the two-parameter optimum of Appendix B
	// (α = 0.192754, 0.334571). Fractions are rounded to level counts and
	// deduplicated for small n.
	Alphas []float64
	// Budget bounds the run's resources; the zero value is unlimited.
	// Enforced only by DivideAndConquerCtx.
	Budget Budget
}

func (o *DnCOptions) rule() Rule {
	if o == nil {
		return OBDD
	}
	return o.Rule
}

func (o *DnCOptions) meter() *Meter {
	if o == nil {
		return nil
	}
	return o.Meter
}

func (o *DnCOptions) trace() obs.Tracer {
	if o == nil {
		return nil
	}
	return o.Trace
}

func (o *DnCOptions) budget() Budget {
	if o == nil {
		return Budget{}
	}
	return o.Budget
}

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
// precomputed FS layer, the upper fragments via FS* composition, and the
// division subsets are chosen by (simulated) quantum minimum finding.
//
// With the exact simulator the result equals OptimalOrdering's; with the
// noisy simulator the returned ordering is always valid but may be
// non-minimum with the injected probability — exactly the guarantee of
// Theorem 1.
func DivideAndConquer(tt *truthtable.Table, opts *DnCOptions) *Result {
	return mustResult(DivideAndConquerCtx(nil, tt, opts))
}

// DivideAndConquerCtx is DivideAndConquer under a context and resource
// budget: every inner dynamic program polls the cooperative checkpoint,
// and the minimum-finding recursion unwinds — releasing all owned
// tables — as soon as a checkpoint fires. The recursion holds no
// complete ordering before it finishes, so an early stop returns a nil
// Result with ErrCanceled / ErrBudgetExceeded.
func DivideAndConquerCtx(ctx stdctx.Context, tt *truthtable.Table, opts *DnCOptions) (*Result, error) {
	rule, tr := opts.rule(), opts.trace()
	m := meterFor(opts.meter(), opts.budget())
	n := tt.NumVars()
	alphas := DefaultAlphas
	if opts != nil && opts.Alphas != nil {
		alphas = opts.Alphas
	}
	sizes := normalizeSizes(n, alphas)
	if len(sizes) == 0 {
		// The function is too small to split; the algorithm degenerates
		// to plain FS, as the papers' analysis assumes Ω(n) block sizes.
		return OptimalOrderingCtx(ctx, tt, &SolveOptions{Rule: rule, Meter: m, Trace: tr, Budget: opts.budget()})
	}
	lim := newLimiter(ctx, opts.budget(), m)
	obs.Metrics.RunsStarted.Inc()
	var minz quantum.Minimizer
	if opts != nil && opts.Minimizer != nil {
		minz = opts.Minimizer
	} else {
		minz = &quantum.Exact{Eps: math.Pow(2, -float64(n)), Ctx: ctx, Trace: tr}
	}

	base := baseContext(tt)
	m.alloc(base.cells())
	full := bitops.FullMask(n)

	// Preprocessing phase (line 3 of the pseudocode): compute FS(K) for
	// every K of size sizes[0] classically and keep the whole layer.
	pre, err := runDP(base, full, sizes[0], rule, m, tr, lim)
	if err != nil {
		m.free(base.cells())
		return nil, err
	}

	d := &dncRun{rule: rule, m: m, tr: tr, minz: minz, sizes: sizes, pre: pre, lim: lim}
	fin, order, owned, err := d.solve(full, len(sizes))
	if err == nil && d.err != nil {
		// A checkpoint fired inside a minimizer-driven evaluation.
		err = d.err
	}
	if err != nil {
		if owned {
			m.free(fin.cells())
		}
		pre.Release()
		m.free(base.cells())
		return nil, err
	}
	minCost := fin.cost
	if owned {
		m.free(fin.cells())
	}
	pre.Release()
	m.free(base.cells())
	finishMetrics(m)
	return finishResult(tt, truthtable.Ordering(order), minCost, rule), nil
}

// dncRun carries the shared state of one DivideAndConquer invocation.
type dncRun struct {
	rule  Rule
	m     *Meter
	tr    obs.Tracer
	minz  quantum.Minimizer
	sizes []int
	pre   *dpState // precomputed bottom layer: FS(K) for |K| = sizes[0]
	lim   *limiter
	// err latches the first checkpoint failure observed inside a
	// minimizer-driven cost evaluation, whose uint64-only signature
	// cannot carry it; once set, further evaluations return immediately.
	err error
}

// solve implements Function DivideAndConquer(L, t) of the pseudocode: it
// returns the optimal context absorbing exactly the variables of L, the
// bottom-up order of L, and whether the caller owns (must free) the
// context's table.
func (d *dncRun) solve(L bitops.Mask, t int) (out *fsContext, order []int, owned bool, err error) {
	if t == 0 {
		// FS(L) has been precomputed (line 7); the pre state keeps
		// ownership of the borrowed context.
		return d.pre.Context(L), d.pre.Reconstruct(L), false, nil
	}
	s := d.sizes[t-1]
	if s >= L.Count() {
		// Degenerate split (small n): skip this division point.
		return d.solve(L, t-1)
	}
	// Enumerate the candidate division subsets K ⊆ L, |K| = s.
	cands := subsetsWithin(L, s)
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
		ctxK, _, ownedK, errK := d.solve(K, t-1)
		if errK != nil {
			d.err = errK
			return ^uint64(0)
		}
		st, errDP := runDP(ctxK, L&^K, (L &^ K).Count(), d.rule, d.m, d.tr, d.lim)
		if errDP != nil {
			if ownedK {
				d.m.free(ctxK.cells())
			}
			d.err = errDP
			return ^uint64(0)
		}
		cost := st.Cost(L &^ K)
		st.Release()
		if ownedK {
			d.m.free(ctxK.cells())
		}
		if d.m != nil {
			d.m.Evaluations++
		}
		obs.Metrics.Evaluations.Inc()
		return cost
	}
	bestIdx := d.minz.MinIndex(uint64(len(cands)), eval)
	if d.err != nil {
		return nil, nil, false, d.err
	}

	// Recompute the winning split to obtain its context and ordering.
	K := cands[bestIdx]
	ctxK, orderK, ownedK, err := d.solve(K, t-1)
	if err != nil {
		return nil, nil, false, err
	}
	st, err := runDP(ctxK, L&^K, (L &^ K).Count(), d.rule, d.m, d.tr, d.lim)
	if err != nil {
		if ownedK {
			d.m.free(ctxK.cells())
		}
		return nil, nil, false, err
	}
	if d.tr != nil {
		d.tr.Emit(obs.Event{Kind: obs.KindDnCMerge, Depth: t, Mask: uint64(K), Cost: st.Cost(L &^ K)})
	}
	order = append(append([]int{}, orderK...), st.Reconstruct(L&^K)...)
	fin, ownedFin := st.Take(L &^ K)
	st.Release()
	if !ownedFin {
		// Zero-layer extension: the "final" context is ctxK itself.
		return ctxK, order, ownedK, nil
	}
	if ownedK {
		d.m.free(ctxK.cells())
	}
	return fin, order, true, nil
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
