package core

import (
	stdctx "context"
	"sort"
	"sync"
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
// hold equal IDs iff their subfunctions are equal.

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
// An explicit schedule with opts.Workers > 1 fans each popcount layer
// out over a worker pool with a deterministic merge; results stay
// bit-identical to the serial path (the keep rule is arrival-order
// independent). opts.Workers <= 1 — including the 0 default — runs
// serially.
func OptimalOrderingSharedCtx(ctx stdctx.Context, tts []*truthtable.Table, opts *SolveOptions) (*SharedResult, error) {
	if len(tts) == 0 {
		panic("core: OptimalOrderingShared needs at least one root") //lint:allow nopanic documented programmer-error precondition: at least one root required
	}
	if w := opts.workers(); w > 1 && tts[0].NumVars() > 2 {
		return optimalOrderingSharedParallel(ctx, tts, opts, w)
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
	return &SharedResult{
		N:         n,
		Roots:     len(tts),
		Rule:      rule,
		MinCost:   minCost,
		Terminals: sharedTerminals(tts),
		Size:      minCost + uint64(sharedTerminals(tts)),
		Ordering:  order,
		Profile:   profile,
	}, nil
}

// optimalOrderingSharedParallel is the worker-pool shared DP: each layer's
// transitions fan out over opts.Workers goroutines (the transitions of one
// layer are independent — they read only the previous layer), and the
// coordinator merges the candidates deterministically, sorted by
// (destination mask, absorbed variable), under the same keep rule as the
// serial loop — so results are bit-identical, including tie-breaking.
//
// Meter updates merge once per layer: lane meters contribute CellOps /
// Compactions exactly, while LiveCells/PeakCells are layer-granular (the
// whole candidate layer is accounted at the barrier). Trace events are
// layer-granular, emitted only by the coordinator. MaxNodes is charged at
// the layer barrier; MaxCells is checked after each layer's merge.
func optimalOrderingSharedParallel(ctx stdctx.Context, tts []*truthtable.Table, opts *SolveOptions, workers int) (*SharedResult, error) {
	rule, tr := opts.rule(), opts.trace()
	m := opts.meter()
	if m == nil {
		m = &Meter{} // the workspace cap below keeps the run's metered peak
	}
	lim := newLimiter(ctx, opts.budget(), m)
	obs.Metrics.RunsStarted.Inc()
	obs.Metrics.WorkerSpawns.Add(uint64(workers))
	n := tts[0].NumVars()

	wss := make([]*workspace, workers)
	for w := range wss {
		wss[w] = acquireWorkspace()
	}
	defer func() { releaseCapped(wss, m.PeakCells) }()

	base := baseSharedContext(tts)
	m.alloc(base.cells())

	// releaseLayer returns the current layer's contexts (base excluded) to
	// the meter and the coordinator's arena; it runs only between barriers,
	// after every worker has joined.
	releaseLayer := func(layer map[bitops.Mask]*sharedContext) {
		for mask, c := range layer {
			if mask != 0 || c != base {
				m.free(c.cells())
				wss[0].recycleShared(c)
			}
		}
	}

	type cand struct {
		mask bitops.Mask
		v    int
		ctx  *sharedContext
		ws   *workspace // producing worker's workspace, for recycling
	}
	bestLast := make(map[bitops.Mask]int)
	layer := map[bitops.Mask]*sharedContext{0: base}
	for k := 1; k <= n; k++ {
		var layerStart time.Time
		if tr != nil {
			layerStart = time.Now()
			tr.Emit(obs.Event{Kind: obs.KindLayerStart, K: k, Subsets: len(layer)})
		}
		// Snapshot the previous layer into a deterministic work list.
		prev := make([]bitops.Mask, 0, len(layer))
		for mask := range layer {
			prev = append(prev, mask)
		}
		sort.Slice(prev, func(i, j int) bool { return prev[i] < prev[j] })

		results := make([][]cand, workers)
		meters := make([]*Meter, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var local []cand
				lm := &Meter{}
				for i := w; i < len(prev); i += workers {
					// Cooperative checkpoint: ctx polling is safe from any
					// goroutine; budget accounting stays with the
					// coordinator at the barrier.
					if lim.stopped() {
						break
					}
					prevMask := prev[i]
					prevCtx := layer[prevMask]
					for v := 0; v < n; v++ {
						if prevMask.Has(v) {
							continue
						}
						c, _ := compactShared(prevCtx, v, rule, lm, wss[w])
						local = append(local, cand{mask: prevMask.With(v), v: v, ctx: c, ws: wss[w]})
					}
				}
				results[w] = local
				meters[w] = lm
			}(w)
		}
		wg.Wait()

		var all []cand
		for _, r := range results {
			all = append(all, r...)
		}
		// Charge the layer's transitions and poll the context once per
		// barrier; on a stop, drop every candidate before it enters the
		// caller's meter.
		if err := lim.spend(uint64(len(all))); err != nil {
			for _, c := range all {
				c.ws.recycleShared(c.ctx)
			}
			releaseLayer(layer)
			m.free(base.cells())
			return nil, err
		}
		// Deterministic merge in (mask, v) order under the serial keep
		// rule: minimum cost, ties to the smallest absorbed variable.
		sort.Slice(all, func(i, j int) bool {
			if all[i].mask != all[j].mask {
				return all[i].mask < all[j].mask
			}
			return all[i].v < all[j].v
		})
		next := make(map[bitops.Mask]*sharedContext, len(all)/k+1)
		var layerCells, keptCells, layerOps uint64
		for _, c := range all {
			layerCells += c.ctx.cells()
			if cur, ok := next[c.mask]; !ok || c.ctx.cost < cur.cost ||
				(c.ctx.cost == cur.cost && c.v < bestLast[c.mask]) {
				if ok {
					keptCells -= cur.cells()
					c.ws.recycleShared(cur)
				}
				next[c.mask] = c.ctx
				bestLast[c.mask] = c.v
				keptCells += c.ctx.cells()
			} else {
				c.ws.recycleShared(c.ctx)
			}
		}
		var layerCompactions uint64
		for _, lm := range meters {
			layerOps += lm.CellOps
			layerCompactions += lm.Compactions
		}
		for _, lm := range meters {
			m.CellOps += lm.CellOps
			m.Compactions += lm.Compactions
			m.Evaluations += lm.Evaluations
		}
		m.alloc(layerCells)
		m.free(layerCells - keptCells)
		releaseLayer(layer)
		layer = next
		obs.Metrics.CellOps.Add(layerOps)
		obs.Metrics.Compactions.Add(layerCompactions)

		// The cell budget is enforced at the layer boundary, after the
		// meter has absorbed the layer's surviving tables.
		if err := lim.check(); err != nil {
			releaseLayer(layer)
			m.free(base.cells())
			return nil, err
		}
		if tr != nil {
			tr.Emit(obs.Event{
				Kind:      obs.KindLayerEnd,
				K:         k,
				Subsets:   len(next),
				CellOps:   layerOps,
				Elapsed:   time.Since(layerStart),
				LiveCells: m.LiveCells,
				PeakCells: m.PeakCells,
			})
		}
	}

	full := bitops.FullMask(n)
	minCost := layer[full].cost
	m.free(layer[full].cells())
	wss[0].recycleShared(layer[full])
	m.free(base.cells())
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
	return &SharedResult{
		N:         n,
		Roots:     len(tts),
		Rule:      rule,
		MinCost:   minCost,
		Terminals: sharedTerminals(tts),
		Size:      minCost + uint64(sharedTerminals(tts)),
		Ordering:  order,
		Profile:   profile,
	}, nil
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
	return &SharedResult{
		N:         n,
		Roots:     len(tts),
		Rule:      rule,
		MinCost:   best,
		Terminals: sharedTerminals(tts),
		Size:      best + uint64(sharedTerminals(tts)),
		Ordering:  truthtable.Ordering(append([]int{}, bestOrder...)),
		Profile:   profile,
	}
}
