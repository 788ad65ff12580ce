package core

import (
	"context"
	"errors"
	"fmt"

	"obddopt/internal/bitops"
)

// This file is the cancellation-and-budget layer threaded through every
// solver loop: the sentinel errors of the Solve API, the resource Budget,
// and the limiter the loops poll at cooperative checkpoints. A nil
// *limiter disables all checking, so the legacy (context-free) entry
// points pay nothing.

// Sentinel errors of the context-aware solver API. Callers test them with
// errors.Is; the concrete error returned by a solver may wrap additional
// detail (the context cause, the exhausted budget dimension).
var (
	// ErrCanceled reports that the run stopped early because its
	// context was canceled or its deadline expired. The accompanying
	// *Result, when non-nil, is the best incumbent found before the stop
	// (exactness is NOT guaranteed).
	ErrCanceled = errors.New("obddopt: run canceled")
	// ErrBudgetExceeded reports that the run stopped early because a
	// resource budget (live DP cells, search nodes) was exhausted. The
	// accompanying *Result, when non-nil, is the best incumbent found.
	ErrBudgetExceeded = errors.New("obddopt: resource budget exceeded")
	// ErrInvalidInput reports a malformed problem (nil table, variable
	// count out of range, unknown solver or rule name).
	ErrInvalidInput = errors.New("obddopt: invalid input")
)

// Budget bounds the resources a solver run may consume. The zero value is
// unlimited. Budgets are enforced cooperatively at the same checkpoints as
// context cancellation, so enforcement granularity is one DP transition /
// one search-node expansion.
type Budget struct {
	// MaxCells caps the live table cells (the Meter.LiveCells gauge —
	// Remark 1's space measure). 0 means unlimited. Enforcing it
	// requires metering; solvers allocate a private Meter when the
	// caller did not supply one. The parallel engine carves its tables
	// from layer slabs taken whole when a layer opens, so beyond the
	// budget it may hold the uncarved rest of at most two open layers and
	// the slabs of retired ones, never a layer it did not reach (see
	// OptimalOrderingParallel).
	MaxCells uint64
	// MaxNodes caps the number of DP transitions / branch-and-bound
	// node expansions / brute-force prefix extensions. 0 means
	// unlimited. The default solver's DP over symmetry orbits makes
	// fewer transitions than the full DP on the same input, so a node
	// budget that stops the full DP may not stop it.
	MaxNodes uint64
}

// zero reports whether the budget imposes no limit.
func (b Budget) zero() bool { return b.MaxCells == 0 && b.MaxNodes == 0 }

// PeakCellsBound is the closed form of Remark 1's space bound for the
// subset dynamic program on n variables: the widest pair of adjacent
// popcount layers, max_k [C(n,k)·2^(n−k) + C(n,k−1)·2^(n−k+1)] table
// cells, plus the 2^n-cell base truth table. It is known before a run
// starts, so a MaxCells below it rules the layer-by-layer DP out up
// front.
func PeakCellsBound(n int) uint64 {
	var widest uint64
	for k := 1; k <= n; k++ {
		if v := bitops.Binomial(n, k)<<uint(n-k) + bitops.Binomial(n, k-1)<<uint(n-k+1); v > widest {
			widest = v
		}
	}
	return widest + 1<<uint(n)
}

// OrbitBounds is Theorem 5's cell count and Remark 1's two-layer peak
// for the dynamic program over the orbit lattice of a symmetry partition
// of the variables (groups as truthtable.Groups returns them), which the
// default solver walks. Its states are the canonical subsets, holding the
// lowest c_g members of each group g; a layer-k state with t nonempty
// groups makes t transitions of 2^(n−k) cells each. For the all-singleton
// partition these are Σ k·C(n,k)·2^(n−k) and PeakCellsBound(n).
func OrbitBounds(groups []bitops.Mask) (cellOps, peak uint64) {
	states, trans := orbitLayers(groups)
	n := len(states) - 1
	var widest uint64
	for k := 1; k <= n; k++ {
		cellOps += trans[k] << uint(n-k)
		if v := states[k]<<uint(n-k) + states[k-1]<<uint(n-k+1); v > widest {
			widest = v
		}
	}
	return cellOps, widest + 1<<uint(n)
}

// orbitLayers counts the orbit lattice of a partition layer by layer:
// states[k] is the number of canonical k-subsets, the x^k coefficient of
// Π_g (1 + x + … + x^|g|), and trans[k] sums their nonempty groups, the
// transitions that build layer k.
func orbitLayers(groups []bitops.Mask) (states, trans []uint64) {
	states, trans = []uint64{1}, []uint64{0}
	for _, g := range groups {
		size := g.Count()
		ns := make([]uint64, len(states)+size)
		nt := make([]uint64, len(states)+size)
		for k := range states {
			for c := 0; c <= size; c++ {
				ns[k+c] += states[k]
				nt[k+c] += trans[k]
				if c > 0 {
					nt[k+c] += states[k]
				}
			}
		}
		states, trans = ns, nt
	}
	return states, trans
}

// limiter carries the cooperative-checkpoint state of one run: the
// context, the budget, and the node counter. Methods are nil-safe; a nil
// limiter is the legacy unlimited path.
type limiter struct {
	ctx    context.Context
	budget Budget
	meter  *Meter
	nodes  uint64
}

// newLimiter returns the limiter for one run, or nil when neither
// cancellation nor budget enforcement is requested (ctx == nil and a zero
// budget), keeping the legacy fast path allocation-free.
func newLimiter(ctx context.Context, budget Budget, m *Meter) *limiter {
	if ctx == nil && budget.zero() {
		return nil
	}
	return &limiter{ctx: ctx, budget: budget, meter: m}
}

// check polls the cancellation and budget state; it is the cooperative
// checkpoint every solver loop calls once per transition/expansion.
func (l *limiter) check() error {
	if l == nil {
		return nil
	}
	if l.ctx != nil {
		select {
		case <-l.ctx.Done():
			return fmt.Errorf("%w: %v", ErrCanceled, l.ctx.Err())
		default:
		}
	}
	if l.budget.MaxCells > 0 && l.meter != nil && l.meter.LiveCells > l.budget.MaxCells {
		return fmt.Errorf("%w: live cells %d > budget %d", ErrBudgetExceeded, l.meter.LiveCells, l.budget.MaxCells)
	}
	if l.budget.MaxNodes > 0 && l.nodes > l.budget.MaxNodes {
		return fmt.Errorf("%w: %d nodes > budget %d", ErrBudgetExceeded, l.nodes, l.budget.MaxNodes)
	}
	return nil
}

// spend charges n nodes against the budget and then checks.
func (l *limiter) spend(n uint64) error {
	if l == nil {
		return nil
	}
	l.nodes += n
	return l.check()
}

// meterFor returns the meter the run should use: the caller's, or a
// private one when a cell budget demands metering the caller did not set
// up.
func meterFor(m *Meter, budget Budget) *Meter {
	if m == nil && budget.MaxCells > 0 {
		return &Meter{}
	}
	return m
}

// mustResult asserts that a context-free run cannot fail: the legacy
// wrappers call their Ctx counterparts with a background context and no
// budget, where the only error sources are disabled.
func mustResult[T any](res T, err error) T {
	if err != nil {
		panic(fmt.Sprintf("core: context-free run failed unexpectedly: %v", err)) //lint:allow nopanic impossible-error assertion: legacy context-free wrappers disable every error source
	}
	return res
}
