package core

import (
	stdctx "context"

	"obddopt/internal/bitops"
	"obddopt/internal/obs"
	"obddopt/internal/truthtable"
)

// BnBOptions is SolveOptions under its former branch-and-bound name,
// kept for the benchmark suite, which still names it.
type BnBOptions = SolveOptions

// BranchAndBound finds the exact optimal ordering by depth-first search
// over bottom-set prefixes with three prunings:
//
//   - dominance: a prefix reaching subset I with cost ≥ the best cost
//     already seen for I is abandoned (the memo realizes Lemma 3/4's
//     set-dependence, like the dynamic program, but lazily);
//   - incumbent: a prefix whose cost plus a lower bound on the remaining
//     levels reaches the best complete solution is abandoned;
//   - lower bound: every remaining level whose variable the current
//     residual function still depends on needs at least one node.
//
// Unlike the dynamic program, which stores whole table layers (Θ(3ⁿ)
// cells live at the peak, Remark 1), the search keeps only the tables
// along one DFS path — Θ(2ⁿ⁺¹) cells — trading recomputation for space.
// Exactness is unconditional; experiment E15 measures the trade.
func BranchAndBound(tt *truthtable.Table, opts *SolveOptions) *Result {
	return mustResult(BranchAndBoundCtx(nil, tt, opts))
}

// BranchAndBoundCtx is BranchAndBound under a context and resource
// budget: the checkpoint is polled once per node expansion, and an early
// stop unwinds the DFS releasing every path table. Unlike the dynamic
// program, the search carries a usable incumbent: when it is stopped
// after at least one complete ordering was evaluated, the returned
// Result holds the best incumbent (not proven optimal) alongside the
// ErrCanceled / ErrBudgetExceeded error.
func BranchAndBoundCtx(ctx stdctx.Context, tt *truthtable.Table, opts *SolveOptions) (*Result, error) {
	rule, tr := opts.rule(), opts.trace()
	m := meterFor(opts.meter(), opts.budget())
	lim := newLimiter(ctx, opts.budget(), m)
	obs.Metrics.RunsStarted.Inc()
	n := tt.NumVars()
	ws := acquireWorkspace()
	defer ws.release()
	base := baseContext(tt)
	m.alloc(base.cells())

	best := ^uint64(0)
	if opts != nil && opts.InitialBound > 0 {
		best = opts.InitialBound
	}
	found := false
	useLB := opts == nil || !opts.DisableLowerBound
	bestOrder := make([]int, n)
	order := make([]int, 0, n)
	memo := make(map[bitops.Mask]uint64)
	var searchOps, searchCompactions uint64

	var dfs func(c *fsContext, mask bitops.Mask) error
	dfs = func(c *fsContext, mask bitops.Mask) error {
		if seen, ok := memo[mask]; ok && c.cost >= seen {
			if tr != nil {
				tr.Emit(obs.Event{Kind: obs.KindBnBPruneMemo, Depth: len(order), Mask: uint64(mask), Cost: c.cost, Bound: seen})
			}
			return nil
		}
		memo[mask] = c.cost
		if len(order) == n {
			if m != nil {
				m.Evaluations++
			}
			obs.Metrics.Evaluations.Inc()
			if c.cost < best {
				best = c.cost
				copy(bestOrder, order)
				found = true
				if tr != nil {
					tr.Emit(obs.Event{Kind: obs.KindBnBBest, Cost: best})
				}
			}
			return nil
		}
		if c.cost >= best {
			if tr != nil {
				tr.Emit(obs.Event{Kind: obs.KindBnBPruneIncumbent, Depth: len(order), Mask: uint64(mask), Cost: c.cost, Bound: best})
			}
			return nil
		}
		if useLB {
			lb := c.cost + remainingLowerBound(c, rule)
			if lb >= best {
				if tr != nil {
					tr.Emit(obs.Event{Kind: obs.KindBnBPruneBound, Depth: len(order), Mask: uint64(mask), Cost: c.cost, Bound: lb})
				}
				return nil
			}
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
			if tr != nil {
				tr.Emit(obs.Event{Kind: obs.KindBnBExpand, Depth: len(order), Var: v, Cost: next.cost, CellOps: ops})
			}
			order = append(order, v)
			err := dfs(next, mask.With(v))
			order = order[:len(order)-1]
			m.free(next.cells())
			ws.recycle(next)
			if err != nil {
				return err
			}
		}
		return nil
	}
	err := dfs(base, 0)
	m.free(base.cells())
	obs.Metrics.CellOps.Add(searchOps)
	obs.Metrics.Compactions.Add(searchCompactions)

	if err != nil {
		// Stopped early: surface the best incumbent, if any, alongside
		// the error so callers can degrade gracefully.
		if found {
			return finishResult(tt, truthtable.Ordering(append([]int(nil), bestOrder...)), best, rule), err
		}
		return nil, err
	}
	if !found {
		// The seeded bound was at or below the true optimum, so no
		// complete ordering was ever recorded; rerun unseeded. Only a
		// positive InitialBound gets here, so opts is non-nil.
		rerun := *opts
		rerun.InitialBound = 0
		return BranchAndBoundCtx(ctx, tt, &rerun)
	}
	finishMetrics(m)
	return finishResult(tt, truthtable.Ordering(bestOrder), best, rule), nil
}

// remainingLowerBound counts the free variables whose level must hold at
// least one node under every completion, lower-bounding the remaining
// cost. For the OBDD rule a variable contributes iff the residual
// function depends on it (some table cell pair differs): dependence is
// semantic, so it survives absorbing the other variables in any order and
// forces at least one node on that variable's level. For the ZDD rule a
// dependent variable's level can still be empty (the skip condition is
// u1 == 0, not u0 == u1), so no per-variable contribution is claimed and
// only memo/incumbent pruning applies.
func remainingLowerBound(c *fsContext, rule Rule) uint64 {
	var lb uint64
	for _, v := range c.free.Members(make([]int, 0, c.free.Count())) {
		pos := bitops.RelativePosition(c.free, v)
		half := uint64(len(c.table)) / 2
		depends := false
		for idx := uint64(0); idx < half; idx++ {
			if c.table[bitops.SpliceIndex(idx, pos, 0)] != c.table[bitops.SpliceIndex(idx, pos, 1)] {
				depends = true
				break
			}
		}
		if !depends {
			continue
		}
		if rule == OBDD {
			// Dependence is semantic and preserved by absorbing other
			// variables, so a dependent variable's level is nonempty
			// under every completion.
			lb++
		}
		// For ZDD, dependence does not force a node on v's own level
		// (the skip condition is u1 == 0, not u0 == u1), so no safe
		// per-variable contribution is claimed.
	}
	return lb
}
