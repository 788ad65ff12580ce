package core

import (
	stdctx "context"
	"time"

	"obddopt/internal/bitops"
	"obddopt/internal/obs"
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
// Mechanically, a shared context carries one table per root over the same
// free-variable cells; compaction deduplicates (u0, u1) pairs across all
// roots jointly, preserving the invariant that two cells (of any roots)
// hold equal IDs iff their subfunctions are equal. The serial DP below
// runs on these per-root contexts and is the reference; the engine entry
// (OptimalOrderingSharedParallel) runs the same DP on one concatenated
// table.

// sharedContext is the multi-rooted analogue of context.
type sharedContext struct {
	n      int
	free   bitops.Mask
	tables [][]uint32
	cost   uint64
	nTerm  uint32
}

func (c *sharedContext) nextID() uint32 { return c.nTerm + uint32(c.cost) }

func (c *sharedContext) cells() uint64 {
	return uint64(len(c.tables)) * uint64(len(c.tables[0]))
}

func baseSharedContext(tts []*truthtable.Table) *sharedContext {
	n := tts[0].NumVars()
	tables := make([][]uint32, len(tts))
	for r, tt := range tts {
		if tt.NumVars() != n {
			panic("core: shared roots must have the same variable count") //lint:allow nopanic documented programmer-error precondition: shared roots share one variable set
		}
		tbl := make([]uint32, tt.Size())
		for idx := uint64(0); idx < tt.Size(); idx++ {
			if tt.Bit(idx) {
				tbl[idx] = 1
			}
		}
		tables[r] = tbl
	}
	return &sharedContext{n: n, free: bitops.FullMask(n), tables: tables, cost: 0, nTerm: 2}
}

// recycleShared returns a shared context's table blocks to the
// workspace's arena; the metering-side m.free stays at the call site.
func (ws *workspace) recycleShared(c *sharedContext) {
	for _, t := range c.tables {
		ws.ar.PutU32(t)
	}
	c.tables = nil
}

// compactShared absorbs variable v across all roots with one dedup table
// shared by every root: cross-root equal subfunctions must collapse to a
// single ID. The dedup scratch is reset once and IDs continue across the
// per-root kernel calls, reproducing the papers' joint NODE set. The
// result's tables are drawn from ws's arena; the caller returns them with
// ws.recycleShared (plus the matching m.free) when done.
func compactShared(c *sharedContext, v int, rule Rule, m *Meter, ws *workspace) (*sharedContext, uint64) {
	if !c.free.Has(v) {
		panic("core: compactShared on non-free variable") //lint:allow nopanic internal invariant: compacting a non-free variable is a DP-driver bug
	}
	pos := bitops.RelativePosition(c.free, v)
	size := uint64(len(c.tables[0])) / 2
	next := &sharedContext{
		n:      c.n,
		free:   c.free.Without(v),
		tables: make([][]uint32, len(c.tables)),
		cost:   c.cost,
		nTerm:  c.nTerm,
	}
	resetDedup(&ws.dd, size*uint64(len(c.tables)), c.nextID())
	var width uint64
	for r, tbl := range c.tables {
		out := ws.ar.GetU32(size)
		width += compactInto(out, tbl, pos, rule, c.nextID()+uint32(width), &ws.dd)
		next.tables[r] = out
		m.addCells(size)
	}
	next.cost += width
	m.alloc(next.cells()) // ownership transfers via the returned context; proven by meterbalance's carrier-return rule
	return next, width
}

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
// resource budget: the cooperative checkpoint is polled once per table
// compaction. On an early stop every layer table is released and a nil
// result is returned with ErrCanceled / ErrBudgetExceeded (the DP holds
// no incumbent before it completes).
//
// It is the serial reference for OptimalOrderingSharedParallel, which
// SolveShared runs: one goroutine builds every candidate table of every
// layer, one compaction per root per transition, and the schedule
// options (Workers, ShardBits, Pinned) are ignored, as by the fs solver.
func OptimalOrderingSharedCtx(ctx stdctx.Context, tts []*truthtable.Table, opts *SolveOptions) (*SharedResult, error) {
	if len(tts) == 0 {
		panic("core: OptimalOrderingShared needs at least one root") //lint:allow nopanic documented programmer-error precondition: at least one root required
	}
	rule, tr := opts.rule(), opts.trace()
	m := meterFor(opts.meter(), opts.budget())
	lim := newLimiter(ctx, opts.budget(), m)
	obs.Metrics.RunsStarted.Inc()
	n := tts[0].NumVars()
	ws := acquireWorkspace()
	defer ws.release()
	base := baseSharedContext(tts)
	m.alloc(base.cells())

	// abort releases everything the DP owns — the partial next layer and
	// the current layer (including the base, which this function
	// allocated) — so the meter's live-cell gauge returns to its
	// pre-call value.
	abort := func(layer, next map[bitops.Mask]*sharedContext) {
		for _, c := range next {
			m.free(c.cells())
			ws.recycleShared(c)
		}
		for mask, c := range layer {
			if mask != 0 || c != base {
				m.free(c.cells())
				ws.recycleShared(c)
			}
		}
		m.free(base.cells())
	}

	bestLast := make(map[bitops.Mask]int)
	layer := map[bitops.Mask]*sharedContext{0: base}
	for k := 1; k <= n; k++ {
		var layerStart time.Time
		if tr != nil {
			layerStart = time.Now()
			tr.Emit(obs.Event{Kind: obs.KindLayerStart, K: k, Subsets: len(layer)})
		}
		var layerOps, transitions uint64
		next := make(map[bitops.Mask]*sharedContext)
		for prevMask, prevCtx := range layer {
			ops := prevCtx.cells() / 2
			for v := 0; v < n; v++ {
				if prevMask.Has(v) {
					continue
				}
				if err := lim.spend(1); err != nil {
					abort(layer, next)
					return nil, err
				}
				cand, w := compactShared(prevCtx, v, rule, m, ws)
				layerOps += ops
				transitions++
				if tr != nil {
					tr.Emit(obs.Event{Kind: obs.KindCompaction, K: k, Var: v, Cost: w, CellOps: ops})
				}
				key := prevMask.With(v)
				if cur, ok := next[key]; !ok || cand.cost < cur.cost ||
					(cand.cost == cur.cost && v < bestLast[key]) {
					if ok {
						m.free(cur.cells())
						ws.recycleShared(cur)
					}
					next[key] = cand
					bestLast[key] = v
				} else {
					m.free(cand.cells())
					ws.recycleShared(cand)
				}
			}
		}
		for mask, c := range layer {
			if mask != 0 || c != base {
				m.free(c.cells())
				ws.recycleShared(c)
			}
		}
		layer = next
		obs.Metrics.CellOps.Add(layerOps)
		obs.Metrics.Compactions.Add(transitions)
		if tr != nil {
			ev := obs.Event{
				Kind:    obs.KindLayerEnd,
				K:       k,
				Subsets: len(next),
				CellOps: layerOps,
				Elapsed: time.Since(layerStart),
			}
			if m != nil {
				ev.LiveCells, ev.PeakCells = m.LiveCells, m.PeakCells
			}
			tr.Emit(ev)
		}
	}
	full := bitops.FullMask(n)
	minCost := layer[full].cost
	m.free(layer[full].cells())
	if layer[full] != base {
		ws.recycleShared(layer[full])
		m.free(base.cells())
	}
	finishMetrics(m)

	order := make(truthtable.Ordering, n)
	mask := full
	for i := n - 1; i >= 0; i-- {
		v, ok := bestLast[mask]
		if !ok {
			panic("core: shared DP missing parent pointer") //lint:allow nopanic internal invariant: the DP records a parent pointer for every kept subset
		}
		order[i] = v
		mask = mask.Without(v)
	}
	profile, _ := profileShared(tts, order, rule)
	return newSharedResult(tts, rule, minCost, order, profile), nil
}

// baseContextShared is the base of the shared problem on the engine: the
// m roots' truth tables laid end to end in one context of m·2^n cells,
// root r's cells at offset r·2^n. The root index sits in the bits above
// the n variable bits and is never absorbed, so every absorbed
// variable's stride (at most 2^f for f free variables) stays inside one
// root's block, and one compactInto over the concatenation assigns
// exactly the IDs compactShared assigns with its per-root calls sharing
// one dedup. Equal cells therefore hold equal subfunctions across roots
// too, which is all the engine's width-counting kernel relies on. Only
// the table length departs from fsContext's 2^|free| cells; the engine,
// compact and profileAlong read lengths off the table.
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
// work-stealing engine of OptimalOrderingParallel, over the concatenated
// base of baseContextShared, under the schedule options: opts.Workers
// (0 selects GOMAXPROCS), opts.ShardBits and opts.Pinned. MinCost,
// Ordering, Profile and Meter.CellOps are bit-identical to the serial
// reference at every schedule. Meter.Compactions counts one per DP
// transition rather than one per root, and LiveCells/PeakCells reflect
// the engine's three-layer window, so a Budget.MaxCells the serial
// two-layer DP meets can stop this one. The early-stop contract is
// OptimalOrderingParallel's: ErrCanceled / ErrBudgetExceeded with a nil
// result and every engine-owned table released. Inputs with n ≤ 2 run
// the serial reference, as OptimalOrderingParallel does.
func OptimalOrderingSharedParallel(ctx stdctx.Context, tts []*truthtable.Table, opts *SolveOptions) (*SharedResult, error) {
	if len(tts) == 0 {
		panic("core: OptimalOrderingSharedParallel needs at least one root") //lint:allow nopanic documented programmer-error precondition: at least one root required
	}
	if tts[0].NumVars() <= 2 {
		return OptimalOrderingSharedCtx(ctx, tts, opts)
	}
	rule := opts.rule()
	m := meterFor(opts.meter(), opts.budget())
	base := baseContextShared(tts)
	m.alloc(base.cells())
	minCost, order, err := runEngine(ctx, base, singletons(base.n), opts, m)
	m.free(base.cells())
	if err != nil {
		return nil, err
	}
	profile, _ := profileAlong(base, order, rule, nil)
	finishMetrics(m)
	return newSharedResult(tts, rule, minCost, order, profile), nil
}

// newSharedResult assembles a SharedResult from a solved ordering.
func newSharedResult(tts []*truthtable.Table, rule Rule, minCost uint64, order truthtable.Ordering, profile []uint64) *SharedResult {
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

func profileShared(tts []*truthtable.Table, order truthtable.Ordering, rule Rule) ([]uint64, uint64) {
	ws := acquireWorkspace()
	defer ws.release()
	base := baseSharedContext(tts)
	c := base
	widths := make([]uint64, 0, len(order))
	var total uint64
	for _, v := range order {
		next, w := compactShared(c, v, rule, nil, ws)
		if c != base {
			ws.recycleShared(c)
		}
		c = next
		widths = append(widths, w)
		total += w
	}
	if c != base {
		ws.recycleShared(c)
	}
	return widths, total
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
	widths, _ := profileShared(tts, order, rule)
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
// shared forest (validation baseline for OptimalOrderingShared).
func BruteForceShared(tts []*truthtable.Table, rule Rule) *SharedResult {
	if len(tts) == 0 {
		panic("core: BruteForceShared needs at least one root") //lint:allow nopanic documented programmer-error precondition: at least one root required
	}
	n := tts[0].NumVars()
	ws := acquireWorkspace()
	best := ^uint64(0)
	bestOrder := make([]int, n)
	order := make([]int, 0, n)
	var dfs func(c *sharedContext)
	dfs = func(c *sharedContext) {
		if len(order) == n {
			if c.cost < best {
				best = c.cost
				copy(bestOrder, order)
			}
			return
		}
		for v := 0; v < n; v++ {
			if !c.free.Has(v) {
				continue
			}
			next, _ := compactShared(c, v, rule, nil, ws)
			order = append(order, v)
			dfs(next)
			order = order[:len(order)-1]
			ws.recycleShared(next)
		}
	}
	dfs(baseSharedContext(tts))
	ws.release()
	profile, _ := profileShared(tts, bestOrder, rule)
	return newSharedResult(tts, rule, best, bestOrder, profile)
}
