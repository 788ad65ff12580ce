package core

import (
	stdctx "context"

	"obddopt/internal/bitops"
	"obddopt/internal/truthtable"
)

// This file generalizes the dynamic program to multi-rooted (shared)
// decision diagrams: given m Boolean functions over the same variables,
// it finds the ordering minimizing the size of the shared forest — the
// node count of the multi-rooted DAG in which equal subfunctions of
// *different* roots are represented once. This is the quantity that
// matters for multi-output circuits, where all outputs live in one
// manager. The key observation carries over unchanged: a level's width
// (counting shared nodes once) depends only on the set of variables
// below it, so the subset DP remains exact.
//
// Mechanically, the m roots' truth tables are laid end to end in one
// context (baseContextShared), and compaction over the concatenation
// deduplicates (u0, u1) pairs across all roots jointly, preserving the
// invariant that two cells (of any roots) hold equal IDs iff their
// subfunctions are equal. Every shared entry runs a single-root driver
// on that one table: the serial DP (the reference), the work-stealing
// engine, profileAlong and the brute-force search.

// SharedResult reports a shared-forest minimization. The JSON tags keep
// it interchangeable with Result in CLI run reports.
type SharedResult struct {
	// N is the variable count; Roots the number of functions.
	N     int `json:"n"`
	Roots int `json:"roots"`
	// Rule is the diagram variant minimized.
	Rule Rule `json:"rule"`
	// MinCost is the minimum number of nonterminal nodes of the shared
	// forest.
	MinCost uint64 `json:"min_cost"`
	// Terminals counts the distinct terminal values across all roots.
	Terminals int `json:"terminals"`
	// Size is MinCost + Terminals.
	Size uint64 `json:"size"`
	// Ordering is an optimal ordering, bottom-up.
	Ordering truthtable.Ordering `json:"ordering"`
	// Profile is the shared width per level under Ordering, bottom-up.
	Profile []uint64 `json:"profile"`
}

// OptimalOrderingShared runs the subset dynamic program on the shared
// forest of the given functions, returning the exact minimum shared node
// count and an ordering achieving it. Time and space are O*(m·3^n) for m
// roots over n variables.
func OptimalOrderingShared(tts []*truthtable.Table, opts *SolveOptions) *SharedResult {
	return mustResult(OptimalOrderingSharedCtx(nil, tts, opts))
}

// OptimalOrderingSharedCtx is OptimalOrderingShared under a context and
// resource budget: the cooperative checkpoint is polled once per DP
// transition. On an early stop every layer table is released and a nil
// result is returned with ErrCanceled / ErrBudgetExceeded (the DP holds
// no incumbent before it completes).
//
// It is the serial reference for OptimalOrderingSharedParallel, which
// SolveShared runs: the fs solver's serial driver (runSerial) over the
// concatenated base of baseContextShared, one goroutine building every
// candidate table of every layer with none of the engine's scheduling
// code. The schedule options (Workers, ShardBits, Pinned) are ignored, as
// by the fs solver.
func OptimalOrderingSharedCtx(ctx stdctx.Context, tts []*truthtable.Table, opts *SolveOptions) (*SharedResult, error) {
	if len(tts) == 0 {
		panic("core: OptimalOrderingShared needs at least one root") //lint:allow nopanic documented programmer-error precondition: at least one root required
	}
	m := meterFor(opts.meter(), opts.budget())
	base := baseContextShared(tts)
	m.alloc(base.cells())
	minCost, order, err := runSerial(ctx, base, opts, m)
	m.free(base.cells())
	if err != nil {
		return nil, err
	}
	finishMetrics(m)
	return newSharedResult(tts, base, opts.rule(), minCost, order), nil
}

// baseContextShared is the base of the shared problem: the m roots'
// truth tables laid end to end in one context of m·2^n cells, root r's
// cells at offset r·2^n. The root index sits in the bits above the n
// variable bits and is never absorbed, so every absorbed variable's
// stride (at most 2^f for f free variables) stays inside one root's
// block, and one compactInto over the concatenation walks the roots in
// order with one dedup, IDs continuing across them. Equal cells
// therefore hold equal subfunctions across roots too, which is all
// compaction and the engine's class pricing rely on. Only the
// table length departs from a single root's 2^|free| cells; runDP, the
// engine, compact and profileAlong read lengths off the table.
func baseContextShared(tts []*truthtable.Table) *fsContext {
	n := tts[0].NumVars()
	size := uint64(1) << uint(n)
	table := make([]uint32, uint64(len(tts))*size)
	for r, tt := range tts {
		if tt.NumVars() != n {
			panic("core: shared roots must have the same variable count") //lint:allow nopanic documented programmer-error precondition: shared roots share one variable set
		}
		cells := table[uint64(r)*size:]
		for idx := uint64(0); idx < size; idx++ {
			if tt.Bit(idx) {
				cells[idx] = 1
			}
		}
	}
	return &fsContext{n: n, free: bitops.FullMask(n), table: table, cost: 0, nTerm: 2}
}

// OptimalOrderingSharedParallel is OptimalOrderingSharedCtx on the
// work-stealing engine of OptimalOrderingParallel, over the same
// concatenated base, under the schedule options: opts.Workers (0 selects
// GOMAXPROCS, or one inline worker for small runs, see runEngine),
// opts.ShardBits and opts.Pinned. MinCost, Ordering, Profile,
// Meter.CellOps and Meter.Compactions (one per DP transition) are
// bit-identical to the serial reference at every schedule and every n;
// LiveCells/PeakCells reflect the engine's three-layer window, so a
// Budget.MaxCells the serial two-layer DP meets can stop this one. The
// early-stop contract is OptimalOrderingParallel's: ErrCanceled /
// ErrBudgetExceeded with a nil result and every engine-owned table
// released.
func OptimalOrderingSharedParallel(ctx stdctx.Context, tts []*truthtable.Table, opts *SolveOptions) (*SharedResult, error) {
	if len(tts) == 0 {
		panic("core: OptimalOrderingSharedParallel needs at least one root") //lint:allow nopanic documented programmer-error precondition: at least one root required
	}
	m := meterFor(opts.meter(), opts.budget())
	base := baseContextShared(tts)
	m.alloc(base.cells())
	minCost, order, err := runEngine(ctx, base, singletons(base.n), opts, m)
	m.free(base.cells())
	if err != nil {
		return nil, err
	}
	finishMetrics(m)
	return newSharedResult(tts, base, opts.rule(), minCost, order), nil
}

// newSharedResult assembles a SharedResult from a solved ordering,
// profiling it along the shared base.
func newSharedResult(tts []*truthtable.Table, base *fsContext, rule Rule, minCost uint64, order truthtable.Ordering) *SharedResult {
	profile, _ := profileAlong(base, order, rule, nil)
	terminals := sharedTerminals(tts)
	return &SharedResult{
		N:         tts[0].NumVars(),
		Roots:     len(tts),
		Rule:      rule,
		MinCost:   minCost,
		Terminals: terminals,
		Size:      minCost + uint64(terminals),
		Ordering:  order,
		Profile:   profile,
	}
}

func sharedTerminals(tts []*truthtable.Table) int {
	seen0, seen1 := false, false
	for _, tt := range tts {
		ones := tt.CountOnes()
		if ones > 0 {
			seen1 = true
		}
		if ones < tt.Size() {
			seen0 = true
		}
	}
	t := 0
	if seen0 {
		t++
	}
	if seen1 {
		t++
	}
	return t
}

// SharedProfile returns the shared per-level widths of the forest of tts
// under the given ordering (no optimization), bottom-up.
func SharedProfile(tts []*truthtable.Table, order truthtable.Ordering, rule Rule) []uint64 {
	if len(tts) == 0 {
		panic("core: SharedProfile needs at least one root") //lint:allow nopanic documented programmer-error precondition: at least one root required
	}
	if len(order) != tts[0].NumVars() || !order.Valid() {
		panic("core: SharedProfile ordering is not a permutation") //lint:allow nopanic documented programmer-error precondition: the ordering must be a permutation
	}
	widths, _ := profileAlong(baseContextShared(tts), order, rule, nil)
	return widths
}

// SharedSizeUnder returns the total shared-forest size under the ordering.
func SharedSizeUnder(tts []*truthtable.Table, order truthtable.Ordering, rule Rule) uint64 {
	widths := SharedProfile(tts, order, rule)
	var total uint64
	for _, w := range widths {
		total += w
	}
	return total + uint64(sharedTerminals(tts))
}

// BruteForceShared exhaustively searches all orderings for the minimum
// shared forest (validation baseline for OptimalOrderingShared): the
// search of BruteForce, without pruning, over the concatenated base.
func BruteForceShared(tts []*truthtable.Table, rule Rule) *SharedResult {
	if len(tts) == 0 {
		panic("core: BruteForceShared needs at least one root") //lint:allow nopanic documented programmer-error precondition: at least one root required
	}
	base := baseContextShared(tts)
	// Without a context or budget the search cannot stop early.
	best, order, _ := bruteForce(nil, base, &SolveOptions{Rule: rule}, nil)
	return newSharedResult(tts, base, rule, best, order)
}
