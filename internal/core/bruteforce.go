package core

import (
	stdctx "context"

	"obddopt/internal/obs"
	"obddopt/internal/truthtable"
)

// BruteForceOptions configures the exhaustive baseline.
type BruteForceOptions struct {
	// Rule selects the diagram variant (OBDD or ZDD).
	Rule Rule
	// Meter, if non-nil, accumulates operation counts.
	Meter *Meter
	// Prune enables branch-and-bound pruning: a partial ordering whose
	// accumulated cost already reaches the best known total is abandoned.
	// With Prune false the search visits every ordering prefix, realizing
	// the full O*(n!·2^n) work the papers quote for brute force.
	Prune bool
	// Budget bounds the run's resources (live cells, prefix
	// extensions); the zero value is unlimited. Enforced only by
	// BruteForceCtx.
	Budget Budget
}

func (o *BruteForceOptions) rule() Rule {
	if o == nil {
		return OBDD
	}
	return o.Rule
}

func (o *BruteForceOptions) meter() *Meter {
	if o == nil {
		return nil
	}
	return o.Meter
}

func (o *BruteForceOptions) budget() Budget {
	if o == nil {
		return Budget{}
	}
	return o.Budget
}

// BruteForce finds the exact optimal ordering by exhaustive search over all
// n! orderings, sharing work across common prefixes (a DFS over ordering
// prefixes, each step one table compaction). This is the trivial baseline
// whose O*(n!·2^n) bound both papers quote; it exists to validate FS and to
// realize experiment E5. It returns the same Result an FS run would.
func BruteForce(tt *truthtable.Table, opts *BruteForceOptions) *Result {
	return mustResult(BruteForceCtx(nil, tt, opts))
}

// BruteForceCtx is BruteForce under a context and resource budget: the
// checkpoint is polled once per prefix extension. Like the
// branch-and-bound search, an early stop returns the best incumbent
// found so far (if any complete ordering was reached) alongside the
// ErrCanceled / ErrBudgetExceeded error.
func BruteForceCtx(ctx stdctx.Context, tt *truthtable.Table, opts *BruteForceOptions) (*Result, error) {
	m := meterFor(opts.meter(), opts.budget())
	base := baseContext(tt)
	m.alloc(base.cells())
	best, order, err := bruteForce(ctx, base, opts, m)
	m.free(base.cells())
	if order == nil {
		return nil, err
	}
	return finishResult(tt, order, best, opts.rule()), err
}

// bruteForce is the exhaustive search over the orderings of a
// caller-owned base context's free variables, a DFS over ordering
// prefixes in which each extension is one compaction; BruteForceCtx and
// BruteForceShared run it. It returns the minimum cost and the first
// ordering found achieving it, or a nil ordering when the search stopped
// before completing one. The base's own cells stay the caller's to
// meter.
func bruteForce(ctx stdctx.Context, base *fsContext, opts *BruteForceOptions, m *Meter) (uint64, truthtable.Ordering, error) {
	rule := opts.rule()
	lim := newLimiter(ctx, opts.budget(), m)
	obs.Metrics.RunsStarted.Inc()
	n := base.n
	ws := acquireWorkspace()
	defer ws.release()

	best := ^uint64(0)
	found := false
	bestOrder := make(truthtable.Ordering, n)
	order := make([]int, 0, n)
	var searchOps, searchCompactions, evals uint64

	var dfs func(c *fsContext) error
	dfs = func(c *fsContext) error {
		if len(order) == n {
			if m != nil {
				m.Evaluations++
			}
			evals++
			if c.cost < best {
				best = c.cost
				copy(bestOrder, order)
				found = true
			}
			return nil
		}
		if opts != nil && opts.Prune && c.cost >= best {
			return nil
		}
		ops := c.cells() / 2
		for v := 0; v < n; v++ {
			if !c.free.Has(v) {
				continue
			}
			if err := lim.spend(1); err != nil {
				return err
			}
			next, _ := compact(c, v, rule, m, ws)
			searchOps += ops
			searchCompactions++
			order = append(order, v)
			err := dfs(next)
			order = order[:len(order)-1]
			m.free(next.cells())
			ws.recycle(next)
			if err != nil {
				return err
			}
		}
		return nil
	}
	err := dfs(base)
	obs.Metrics.CellOps.Add(searchOps)
	obs.Metrics.Compactions.Add(searchCompactions)
	obs.Metrics.Evaluations.Add(evals)
	if err == nil {
		finishMetrics(m)
	}
	if !found {
		return 0, nil, err
	}
	return best, bestOrder, err
}
