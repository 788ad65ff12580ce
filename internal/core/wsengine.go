package core

import (
	stdctx "context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"obddopt/internal/bitops"
	"obddopt/internal/core/arena"
	"obddopt/internal/core/lattice"
	"obddopt/internal/obs"
	"obddopt/internal/truthtable"
)

// This file is the layer pipeline behind the "parallel" solver: the
// subset DP of fs.go re-scheduled so that no worker ever waits at a
// popcount-layer barrier.
//
// Each popcount layer k is the dense rank range [0, C(n,k)) of the
// lattice package; the scheduler partitions it into cache-line-aligned
// shards of whole ranks. A layer-k shard may start as soon as the
// contiguous compacted prefix of layer k−1 covers the shard's
// predecessor watermark — the largest layer-(k−1) rank reachable from
// any of the shard's destinations by one-bit removal, which
// lattice.MaxPredRank evaluates in O(k) and which is monotone in the
// destination rank, so one watermark per shard (its last destination)
// suffices and shards become eligible strictly in rank order. Every
// worker claims the next eligible shard straight from its layer's shared
// counter and runs it at once, so workers run ahead into layer k+1 while
// slower shards of layer k are still compacting; the full-layer barrier
// of the old coordinator design exists only implicitly, as the last
// watermark of each layer.
//
// Each destination subset S with |S| = k has k predecessors S\{p}. The
// serial DP compacts all k candidate tables and keeps the cheapest;
// here only ONE candidate — the highest eligible member, fixed
// independently of which candidate wins, whose free position makes the
// compaction's runs longest — is compacted into a table, and every other
// candidate is priced over that table's classes without writing one.
// The kept table is used downstream only through value *equality* (the
// u0 == u1 / u1 == 0 skip tests and the dedup key), and any candidate's
// table induces the same partition of cells into classes of equal
// subfunctions over S:
//
//   - table(S)[i] == table(S)[j]  iff  the subfunctions of f at dest
//     cells i and j (cofactors over the absorbed set S) are equal — by
//     induction over layers, since compactInto assigns IDs by (u0, u1)
//     pair equality and copies skip cells verbatim, below the fresh IDs.
//   - width is a property of the class (Lemma 3): cell i creates a node
//     for candidate p iff its subfunction depends on x_p (OBDD, u0 != u1)
//     or its x_p = 1 cofactor is not 0 (ZDD, u1 != 0), and two cells
//     create the same node iff their subfunctions are equal. So p's width
//     is the number of classes whose representative cell creates a node
//     in p's predecessor table: one streaming count when the built width
//     equals the table size (every cell its own class), otherwise one
//     test per representative, collected in one pass over the labels.
//
// bases[] keeps the built table's ID ceiling, so every label a table
// holds is below the first fresh ID of a compaction reading it.
//
// Costs and tie-breaking replicate fs.go exactly (minimum cost, ties to
// the smallest member position, see Orbits below), so results are
// bit-identical to the serial solver at every worker count and shard
// size. Cell-operation metering is also identical: every candidate —
// built or priced — is charged size cells, the unit of Theorem 5.
//
// Memory: the serial DP holds two layers (Remark 1); the pipeline holds
// at most three — layer k−1 is released by the unique completer of
// layer k, and spawning is gated so layer k+1 may only start once layer
// k−1 is complete. The tables of layer k are carved from slot k mod 3 of
// a per-run ring of slabs (wsRing), so retiring a layer only returns its
// cells to the gauge. See DESIGN.md for the liveness argument.
//
// Orbits: a run walks the orbit lattice of a symmetry partition of the
// variables (the full lattice is the all-singleton partition). When
// x_i and x_j are symmetric in f, exchanging them maps f to itself, so by
// relabeling invariance and Lemma 3 MINCOST_I = MINCOST_σ(I), and every
// member of one group contributes the same candidate value at a set.
// The run therefore keeps one subset per orbit, the canonical one that
// holds the lowest members of each group: other ranks are skipped
// outright, and a canonical destination tries only the highest member
// of each group it contains, whose predecessor is canonical again.
// Every canonical rank records the mask of its minimizing candidates,
// and reconstruction picks, at each actual set, the lowest member of any
// group that minimizes at the set's canonical representative — exactly
// the full DP's parent (lowest cost, then smallest variable), since
// values depend only on the group.

// wsTask identifies one shard of one layer.
type wsTask struct {
	layer int
	shard int
}

// wsShardAlign is the shard granularity in ranks: 16 ranks keep each
// shard's slice of the per-rank cost (8 B) and base (4 B) arrays on
// whole cache lines, so adjacent shards running on different workers
// never write the same line.
const wsShardAlign = 16

// wsLayer is one popcount layer of the pipeline: the per-rank result
// arrays plus the shard-scheduling state.
type wsLayer struct {
	k         int
	count     uint64 // C(n, k) ranks
	cells     uint64 // table cells per rank: 2^(n-k)
	shardSize uint64 // ranks per shard (last shard may be short)
	nShards   int

	// watermark[s] is the number of layer-(k−1) ranks that must be
	// compacted before shard s may start: MaxPredRank(last dest of s)+1.
	// Monotone in s (lattice.MaxPredRank), so shards unlock in order.
	watermark []uint64

	// Per-rank results, written by exactly one shard each and only for
	// canonical ranks. tables[r] is the index of r's table in slab (see
	// table), readable until the completer of layer k+1 retires the
	// layer. bases[r] is the first fresh node ID for compactions reading
	// that table — the built table's ID ceiling, which exceeds
	// nTerm+costs[r] whenever the built candidate lost the cost
	// comparison. argmin[r] is the mask of the candidates reaching
	// costs[r] (truthtable.MaxVars = 30 bits fit).
	tables []uint32
	costs  []uint64
	bases  []uint32
	argmin []uint32

	// slab holds the layer's tables, cells cells each, in carving order:
	// open takes it from the ring on the first carve, and carved counts
	// the tables handed out.
	open   sync.Once
	slab   []uint32
	carved atomic.Uint64

	spawned   atomic.Int64 // shards claimed so far (next to claim)
	frontier  atomic.Int64 // contiguous completed shard prefix
	done      []atomic.Bool
	remaining atomic.Int64 // shards not yet completed
	ops       atomic.Uint64
	startNS   atomic.Int64 // layer start (trace Elapsed), unix nanos
}

// covered returns the contiguous compacted rank prefix of the layer.
func (l *wsLayer) covered() uint64 {
	c := uint64(l.frontier.Load()) * l.shardSize
	if c > l.count {
		c = l.count
	}
	return c
}

func (l *wsLayer) complete() bool { return l.remaining.Load() == 0 }

// table returns rank r's table.
func (l *wsLayer) table(r uint64) []uint32 {
	o := uint64(l.tables[r]) * l.cells
	return l.slab[o : o+l.cells : o+l.cells]
}

// wsSlabLimit caps a slab taken from the free lists at this many times
// its slot's largest layer, so a small run does not pin a large run's
// slab.
const wsSlabLimit = 16

// wsRing is a run's table storage: popcount layer k carves its tables
// from the slab in slot k mod 3. A layer takes its slot on its first
// carve, and the slot's previous layer, k−3, is dead by then: claim opens
// layer k only once layer k−2 is complete, and layer k−2's shards were
// the last readers of layer k−3. A slot keeps its slab while the next
// layer fits. Otherwise it drops the slab for the GC (layer sizes rise to
// one peak and then fall, so no later layer of the run would fit it) and
// takes, in order, the smallest free slab that holds the slot's largest
// layer, the smallest that holds the opening layer, or a fresh block of
// just the opening layer, never one above wsSlabLimit times the slot's
// largest layer. The arena is pooled: acquired on the first take, shared
// by the workers behind mu, and released holding exactly the run's slabs.
type wsRing struct {
	mu    sync.Mutex
	ar    *arena.Arena
	slabs [3][]uint32
	most  [3]uint64 // the slot's largest layer, in cells
}

// take returns the slab of slot k mod 3 for opening layer k, whose tables
// need cells in all.
func (r *wsRing) take(k int, cells uint64) []uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := k % 3
	if uint64(len(r.slabs[s])) >= cells {
		return r.slabs[s]
	}
	if r.ar == nil {
		r.ar = arena.Acquire()
	}
	if old := r.slabs[s]; old != nil && ringHook != nil {
		ringHook(r.ar, 0, old, false)
	}
	_, reuses := r.ar.Stats()
	slab := r.ar.GetSlab(r.most[s], cells, wsSlabLimit*r.most[s])
	r.slabs[s] = slab
	if ringHook != nil {
		_, now := r.ar.Stats()
		ringHook(r.ar, k, slab, now == reuses)
	}
	return slab
}

// release keeps exactly the held slabs on the ring's arena and returns
// it to the pool. Every worker must have joined.
func (r *wsRing) release() {
	if r.ar == nil {
		return
	}
	r.ar.Retain(r.slabs[:]...)
	if ringHook != nil {
		ringHook(r.ar, -1, nil, false)
	}
	arena.Release(r.ar)
	r.ar, r.slabs = nil, [3][]uint32{}
}

// ringHook, when set, sees each slab a ring takes for opening layer k
// (fresh when no free slab qualified), each one that leaves the ring,
// swapped out of its slot (k = 0), and the arena at release, once it
// holds exactly the run's slabs (k = -1). A ring's calls never overlap:
// takes hold its lock, and release runs after every worker joined. Tests
// use it to audit the slab lifecycle; it is nil otherwise.
var ringHook func(ar *arena.Arena, k int, slab []uint32, fresh bool)

// wsWorker is the goroutine-local state of one pipeline worker.
type wsWorker struct {
	ws *workspace
	// seen/gen implement classReps' distinct-label set below the wide
	// ceiling: seen is indexed directly by built-table label (< 2^16),
	// grown on demand to the next power of two above the largest label
	// seen, and a stamp is current iff it equals gen. reps keeps that
	// pass's representative buffer across destinations.
	seen     []uint32
	gen      uint32
	reps     []uint32
	predBuf  []uint64
	executed uint64
}

func (wk *wsWorker) nextGen() uint32 {
	wk.gen++
	if wk.gen == 0 {
		clear(wk.seen)
		wk.gen = 1
	}
	return wk.gen
}

// wsEngine is one pipelined DP run over the orbit lattice of a symmetry
// partition of the full variable set.
type wsEngine struct {
	n         int
	rule      Rule
	base      *fsContext
	baseCells uint64
	rk        *lattice.Ranker
	layers    []*wsLayer
	ring      wsRing
	workers   []*wsWorker
	tr        obs.Tracer

	// groups is the partition, group[v] the group holding variable v,
	// and upper the members that are not the lowest of their group —
	// the only ones a canonical test must look at (none for the full
	// lattice). states[k] counts layer k's canonical subsets.
	groups []bitops.Mask
	group  []bitops.Mask
	upper  bitops.Mask
	states []uint64

	ctx    stdctx.Context
	budget Budget
	checks bool // any of ctx / budget active

	// spawnLo is the lowest layer that may still have unclaimed shards;
	// claim scans upward from it through the 3-layer window.
	spawnLo atomic.Int64

	// live/peak gauge the engine-owned table cells (the caller-owned
	// base excluded); nodes counts DP transitions against MaxNodes.
	live  atomic.Int64
	peak  atomic.Int64
	nodes atomic.Uint64

	stop  atomic.Bool
	errMu sync.Mutex
	err   error
}

// fail records the first error and stops every worker.
func (e *wsEngine) fail(err error) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.errMu.Unlock()
	e.stop.Store(true)
}

func (e *wsEngine) failErr() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.err
}

func (e *wsEngine) gaugeAlloc(cells uint64) {
	v := e.live.Add(int64(cells))
	for { //lint:allow ctxcheckpoint bounded CAS retry on the peak gauge: each failure means another worker raised the peak, which can happen at most once per concurrent allocation
		p := e.peak.Load()
		if v <= p || e.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

func (e *wsEngine) gaugeFree(cells uint64) { e.live.Add(-int64(cells)) }

// checkpoint is the per-transition cooperative stop test: context
// cancellation and the node budget, mirroring limiter.spend(1) of the
// serial DP at the same granularity.
func (e *wsEngine) checkpoint() bool {
	if e.stop.Load() {
		return false
	}
	if !e.checks {
		return true
	}
	if e.budget.MaxNodes > 0 {
		if n := e.nodes.Add(1); n > e.budget.MaxNodes {
			e.fail(fmt.Errorf("%w: %d nodes > budget %d", ErrBudgetExceeded, n, e.budget.MaxNodes))
			return false
		}
	}
	if e.ctx != nil {
		select {
		case <-e.ctx.Done():
			e.fail(fmt.Errorf("%w: %v", ErrCanceled, e.ctx.Err()))
			return false
		default:
		}
	}
	return true
}

// checkCells enforces the live-cell budget at allocation granularity.
func (e *wsEngine) checkCells() bool {
	if e.budget.MaxCells == 0 {
		return true
	}
	if live := e.baseCells + uint64(e.live.Load()); live > e.budget.MaxCells {
		e.fail(fmt.Errorf("%w: live cells %d > budget %d", ErrBudgetExceeded, live, e.budget.MaxCells))
		return false
	}
	return true
}

// wsShardSize picks the shard granularity of a layer: with b explicit
// shard bits, 2^b ranks; otherwise about an eighth of the layer per
// worker, rounded up to the cache-line alignment so neighboring shards
// never share a line of the per-rank arrays.
func wsShardSize(count uint64, workers, shardBits int) uint64 {
	var size uint64
	if shardBits > 0 {
		size = uint64(1) << uint(shardBits)
	} else {
		size = count / uint64(workers*8)
		size = (size + wsShardAlign - 1) / wsShardAlign * wsShardAlign
		if size < wsShardAlign {
			size = wsShardAlign
		}
	}
	if size > count {
		size = count
	}
	if size == 0 {
		size = 1
	}
	return size
}

// newWSEngine lays out every layer's result arrays, shard table and
// watermarks for a run over the orbit lattice of groups, under opts'
// rule, budget, trace and shard bits. The layer-0 pseudo-layer
// wraps the caller-owned base context and is born complete.
func newWSEngine(ctx stdctx.Context, base *fsContext, groups []bitops.Mask, workers int, opts *SolveOptions) *wsEngine {
	n := base.n
	rk := lattice.For(n)
	budget := opts.budget()
	states, _ := orbitLayers(groups)
	e := &wsEngine{
		n:         n,
		rule:      opts.rule(),
		base:      base,
		baseCells: base.cells(),
		rk:        rk,
		tr:        opts.trace(),
		groups:    groups,
		group:     make([]bitops.Mask, n),
		states:    states,
		ctx:       ctx,
		budget:    budget,
		checks:    ctx != nil || !budget.zero(),
		layers:    make([]*wsLayer, n+1),
		workers:   make([]*wsWorker, workers),
	}
	for _, g := range groups {
		for t := uint64(g); t != 0; t &= t - 1 {
			e.group[bits.TrailingZeros64(t)] = g
		}
		e.upper |= g.Without(g.Lowest())
	}
	for w := range e.workers {
		e.workers[w] = &wsWorker{
			ws:      acquireWorkspace(),
			predBuf: make([]uint64, n),
		}
	}

	l0 := &wsLayer{
		k:         0,
		count:     1,
		cells:     e.baseCells,
		shardSize: 1,
		nShards:   1,
		slab:      base.table,
		tables:    []uint32{0},
		costs:     []uint64{base.cost},
		bases:     []uint32{base.nextID()},
	}
	l0.frontier.Store(1)
	e.layers[0] = l0

	for k := 1; k <= n; k++ {
		count := rk.LayerSize(k)
		size := wsShardSize(count, workers, opts.shardBits())
		nShards := int((count + size - 1) / size)
		l := &wsLayer{
			k:         k,
			count:     count,
			cells:     e.baseCells >> uint(k),
			shardSize: size,
			nShards:   nShards,
			watermark: make([]uint64, nShards),
			tables:    make([]uint32, count),
			costs:     make([]uint64, count),
			bases:     make([]uint32, count),
			argmin:    make([]uint32, count),
			done:      make([]atomic.Bool, nShards),
		}
		l.remaining.Store(int64(nShards))
		for s := 0; s < nShards; s++ {
			last := (uint64(s)+1)*size - 1
			if last >= count {
				last = count - 1
			}
			l.watermark[s] = rk.MaxPredRank(rk.Unrank(k, last)) + 1
		}
		if c := states[k] * l.cells; c > e.ring.most[k%3] {
			e.ring.most[k%3] = c
		}
		e.layers[k] = l
	}
	e.spawnLo.Store(1)
	return e
}

// canonical reports whether s is its orbit's representative: for every
// member v, the members of v's group below v are in s too.
func (e *wsEngine) canonical(s bitops.Mask) bool {
	for t := uint64(s & e.upper); t != 0; t &= t - 1 {
		v := bits.TrailingZeros64(t)
		if e.group[v]&(1<<uint(v)-1)&^s != 0 {
			return false
		}
	}
	return true
}

// canon maps s to its orbit's representative: as many members of each
// group as s holds, lowest first.
func (e *wsEngine) canon(s bitops.Mask) bitops.Mask {
	var c bitops.Mask
	for _, g := range e.groups {
		for k := (s & g).Count(); k > 0; k-- {
			c |= g & -g
			g &= g - 1
		}
	}
	return c
}

// claim claims the next eligible shard of the spawn window and returns
// it, or false when no shard is eligible yet. A layer-j shard is
// eligible when (a) layer j−2 is complete — the three-layer liveness
// window — and (b) the compacted prefix of layer j−1 covers the shard's
// predecessor watermark. Watermarks are monotone within a layer, so
// claiming through the spawned counter in rank order never skips an
// eligible shard.
func (e *wsEngine) claim() (wsTask, bool) {
	for j := int(e.spawnLo.Load()); j <= e.n; j++ {
		l := e.layers[j]
		if lo := int64(j); l.spawned.Load() >= int64(l.nShards) {
			// Fully claimed layers at the window floor advance it.
			e.spawnLo.CompareAndSwap(lo, lo+1)
			continue
		}
		if j >= 2 && !e.layers[j-2].complete() {
			break // window closed; higher layers are closed a fortiori
		}
		prev := e.layers[j-1]
		for s := l.spawned.Load(); s < int64(l.nShards) && prev.covered() >= l.watermark[s]; s = l.spawned.Load() {
			if !l.spawned.CompareAndSwap(s, s+1) {
				continue // another worker claimed shard s first
			}
			if s == 0 && e.tr != nil {
				l.startNS.Store(time.Now().UnixNano())
				e.tr.Emit(obs.Event{Kind: obs.KindLayerStart, K: j, Subsets: int(e.states[j-1])})
			}
			return wsTask{layer: j, shard: int(s)}, true
		}
	}
	return wsTask{}, false
}

// finished reports pipeline completion: the last layer has no shards
// outstanding.
func (e *wsEngine) finished() bool { return e.layers[e.n].complete() }

// run is one worker's scheduling loop: claim the next eligible shard and
// run it at once, or back off while none is eligible.
func (e *wsEngine) run(w int) {
	idle := 0
	for { //lint:allow ctxcheckpoint the scheduling loop's first action every iteration is the stop-flag test, and runShard polls the engine checkpoint (ctx + budget) once per DP transition
		if e.stop.Load() || e.finished() {
			return
		}
		if t, ok := e.claim(); ok {
			e.runShard(w, t)
			idle = 0
			continue
		}
		idle++
		if idle < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(time.Duration(idle) * time.Microsecond)
			if idle > 256 {
				idle = 256
			}
		}
	}
}

// runShard compacts every canonical destination of one shard: for each,
// one real compaction from the highest member's predecessor, then every
// other candidate priced from the built table's classes (classReps,
// classWidth). The candidates are the highest member of each group the
// destination meets — every member, on the full lattice.
func (e *wsEngine) runShard(w int, t wsTask) {
	wk := e.workers[w]
	l := e.layers[t.layer]
	prev := e.layers[t.layer-1]
	j := t.layer
	size := l.cells
	lo := uint64(t.shard) * l.shardSize
	hi := lo + l.shardSize
	if hi > l.count {
		hi = l.count
	}
	rel := e.rk.Unrank(j, lo)
	preds := wk.predBuf[:j]
	var layerOps uint64
	aborted := false

	for r := lo; r < hi; r++ {
		if r > lo {
			rel, _ = bitops.NextSubsetSameSize(rel, e.n)
		}
		if !e.canonical(rel) {
			continue // another rank of the orbit carries its value
		}
		e.rk.PredRanks(rel, preds)
		var (
			dst, reps, block     []uint32
			best                 = ^uint64(0)
			index, argmin, idCap uint32
			classed              bool
		)
		// Candidates run from the highest member down. The first is the
		// one built: its free position (the free variables below it) is
		// the largest, so its compaction walks the longest runs. The rest
		// are priced over the built table's classes: reps stays nil when
		// every cell is its own class (built width == size) and is
		// collected before the first priced candidate otherwise — into
		// block, an arena table charged against MaxCells, past 2^16 IDs.
		// The built table is carved from the layer's slab.
		for i, rest := j, uint64(rel); rest != 0; {
			p := 63 - bits.LeadingZeros64(rest)
			rest &^= 1 << uint(p)
			i--
			// i members of rel lie below p, absorbed in the predecessor,
			// so p sits at free position p−i of the predecessor's table.
			pos, pr := uint(p-i), preds[i]
			if (rel&e.group[p])>>uint(p+1) != 0 {
				continue // a higher member of p's group is the candidate
			}
			if aborted = !e.checkpoint(); aborted {
				break
			}
			var width uint64
			if dst == nil {
				id0 := prev.bases[pr]
				dst, index = e.carve(l)
				e.gaugeAlloc(size)
				if aborted = !e.checkCells(); aborted {
					break
				}
				resetDedup(&wk.ws.dd, size, id0)
				width = compactInto(dst, prev.table(pr), pos, e.rule, id0, &wk.ws.dd)
				idCap = id0 + uint32(width)
				classed = width == size
			} else {
				if !classed && idCap <= 1<<16 {
					reps = wk.classReps(dst, false, wk.reps[:0])
					wk.reps = reps
				} else if !classed {
					block = wk.ws.ar.GetU32(size)
					e.gaugeAlloc(size)
					if aborted = !e.checkCells(); aborted {
						break
					}
					reps = wk.classReps(dst, true, block[:0])
				}
				classed = true
				width = classWidth(prev.table(pr), pos, e.rule, reps)
			}
			cand := prev.costs[pr] + width
			layerOps += size
			switch {
			case cand < best:
				best, argmin = cand, 1<<uint(p)
			case cand == best:
				argmin |= 1 << uint(p)
			}
		}
		if block != nil {
			wk.ws.ar.PutU32(block)
			e.gaugeFree(size)
		}
		if aborted {
			if dst != nil {
				e.gaugeFree(size)
			}
			break
		}
		l.tables[r] = index
		l.costs[r] = best
		l.bases[r] = idCap
		l.argmin[r] = argmin
	}

	l.ops.Add(layerOps)
	wk.executed++
	if aborted {
		return // shard incomplete: frontier stalls, every worker drains
	}
	l.done[t.shard].Store(true)
	for { //lint:allow ctxcheckpoint bounded frontier advance: each CAS success moves the frontier forward over at most nShards completed shards
		f := l.frontier.Load()
		if f >= int64(l.nShards) || !l.done[f].Load() {
			break
		}
		l.frontier.CompareAndSwap(f, f+1)
	}
	if l.remaining.Add(-1) == 0 {
		e.completeLayer(j)
	}
}

// carve hands out the next table of layer l with its index in the
// layer's slab, which the layer's first carve takes from the ring.
func (e *wsEngine) carve(l *wsLayer) ([]uint32, uint32) {
	l.open.Do(func() { l.slab = e.ring.take(l.k, e.states[l.k]*l.cells) })
	i := l.carved.Add(1) - 1
	o := i * l.cells
	return l.slab[o : o+l.cells : o+l.cells], uint32(i)
}

// classReps appends to reps one representative cell per distinct label
// of the built destination table dst, that is one per class of equal
// subfunctions, and returns it. Labels below 2^16 are stamped in the
// direct-index scratch; wide labels are collected through ws.dd, keyed by
// label+1 so that label 0 is not the empty-slot key.
func (wk *wsWorker) classReps(dst []uint32, wide bool, reps []uint32) []uint32 {
	if wide {
		wk.ws.dd.Reset(uint64(len(dst)))
		for c, lb := range dst {
			if _, fresh := wk.ws.dd.FindOrAssign(uint64(lb)+1, 0); fresh {
				reps = append(reps, uint32(c))
			}
		}
		return reps
	}
	gen := wk.nextGen()
	seen := wk.seen
	for c, lb := range dst {
		if int(lb) >= len(seen) {
			seen = wk.growSeen(lb)
		}
		if seen[lb] != gen {
			seen[lb] = gen
			reps = append(reps, uint32(c))
		}
	}
	return reps
}

// growSeen extends the label scratch to the next power of two above
// label, keeping the current pass's stamps.
func (wk *wsWorker) growSeen(label uint32) []uint32 {
	seen := make([]uint32, 1<<bits.Len32(label))
	copy(seen, wk.seen)
	wk.seen = seen
	return seen
}

// classWidth returns the width of one DP candidate without building its
// table (see the soundness argument above): src is the candidate's
// predecessor table, pos its variable's free position there, and reps the
// destination's class representatives, nil when every cell is its own
// class. Nil reps take one streaming count of node-creating pairs;
// otherwise each representative's pair sits at its index with a 0 and a 1
// spliced in at pos.
func classWidth(src []uint32, pos uint, rule Rule, reps []uint32) (width uint64) {
	half := uint64(1) << pos
	// A pair creates a node iff u0&keep != u1: keep masks u0 away
	// under ZDD, whose test reads the 1-child alone.
	keep := ^uint32(0)
	if rule == ZDD {
		keep = 0
	}
	if reps == nil {
		for base := uint64(0); base < uint64(len(src)); base += 2 * half {
			u0s := src[base : base+half : base+half]
			for j, u1 := range src[base+half : base+2*half : base+2*half] {
				if u0s[j]&keep != u1 {
					width++
				}
			}
		}
		return width
	}
	for _, c := range reps {
		i := uint64(c)&(half-1) | uint64(c)>>pos<<(pos+1)
		if src[i]&keep != src[i|half] {
			width++
		}
	}
	return width
}

// completeLayer runs once per layer, on the worker that finished its
// last shard: it retires the now-unreadable previous layer (opening the
// liveness window for layer j+2) and emits the layer-granular
// observability the serial DP emits from its loop. Retiring returns the
// layer's cells to the gauge and drops the layer's hold on its slab, which
// stays in the ring for layer j+2 unless that layer swaps it out.
func (e *wsEngine) completeLayer(j int) {
	l := e.layers[j]
	if j > 1 {
		prev := e.layers[j-1]
		e.gaugeFree(prev.carved.Load() * prev.cells)
		prev.slab = nil
	}
	ops := l.ops.Load()
	obs.Metrics.CellOps.Add(ops)
	// Every transition into layer j is charged one l.cells-cell table.
	obs.Metrics.Compactions.Add(ops / l.cells)
	if e.tr != nil {
		ev := obs.Event{
			Kind:    obs.KindLayerEnd,
			K:       j,
			Subsets: int(e.states[j]),
			CellOps: ops,
			Elapsed: time.Duration(time.Now().UnixNano() - l.startNS.Load()),
		}
		ev.LiveCells = e.baseCells + uint64(e.live.Load())
		ev.PeakCells = e.baseCells + uint64(e.peak.Load())
		e.tr.Emit(ev)
	}
}

// releaseAll frees every engine-owned table still live (abort path, or
// the normal path after the final table is consumed) with the ring's
// slabs and returns the workers' workspaces to the pool. Every worker
// must have joined.
func (e *wsEngine) releaseAll() {
	e.ring.release()
	for _, wk := range e.workers {
		wk.ws.release()
		wk.ws = nil
	}
}

// engineInlineCellOps is the closed-form cell-operation count below
// which a default-schedule run (Workers 0) uses one worker on the calling
// goroutine instead of GOMAXPROCS: under it, spawning, joining and idle
// backoff cost more than a second worker saves. On a 2-core VM, one
// inline worker solved a random n = 9 table (59,049 cell operations)
// in 0.90× the time of two workers, and a random n = 10 table (196,830)
// in 1.09×, so random tables cross it between n = 9 and n = 10.
const engineInlineCellOps = 1 << 17

// runEngine is the driver of the layer pipeline over a caller-owned base
// context and the orbit lattice of groups: it runs worker 0 on the
// calling goroutine beside the others, charges m with the layers' cell
// operations and folds the engine's cell gauge into it at run
// granularity, walks the minimizing-candidate masks from the full set
// back down, and releases every engine-owned table. The base's own cells
// stay the caller's to meter. It returns the minimum cost and a bottom-up optimal
// ordering, or the engine's ErrCanceled / ErrBudgetExceeded with m's
// LiveCells back where they were. opts.Workers 0 selects one worker when
// the run's cell operations (OrbitBounds times the root count) are below
// engineInlineCellOps, and GOMAXPROCS otherwise.
func runEngine(ctx stdctx.Context, base *fsContext, groups []bitops.Mask, opts *SolveOptions, m *Meter) (uint64, truthtable.Ordering, error) {
	workers := opts.workers()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if ops, _ := OrbitBounds(groups); ops*(base.cells()>>uint(base.n)) < engineInlineCellOps {
			workers = 1
		}
	}
	obs.Metrics.RunsStarted.Inc()
	obs.Metrics.WorkerSpawns.Add(uint64(workers - 1))
	e := newWSEngine(ctx, base, groups, workers, opts)

	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e.run(w)
		}(w)
	}
	e.run(0)
	wg.Wait()

	// All workers have joined: charge the caller's meter every layer's
	// cell operations, stopped shards' included, with one transition per
	// candidate of l.cells cells, and fold the engine's cell gauge into it
	// at run granularity.
	var shards uint64
	for _, wk := range e.workers {
		shards += wk.executed
		obs.Hist(obs.HistNameShardOccupancy).Record(wk.executed)
	}
	obs.Metrics.ShardsExecuted.Add(shards)
	if m != nil {
		for _, l := range e.layers[1:] {
			ops := l.ops.Load()
			m.CellOps += ops
			m.Compactions += ops / l.cells
		}
	}
	peak := uint64(e.peak.Load())
	if err := e.failErr(); err != nil {
		e.releaseAll()
		m.alloc(peak)
		m.free(peak)
		return 0, nil, err
	}

	final := uint64(e.live.Load())
	m.alloc(peak)
	m.free(peak - final)
	minCost, order := e.layers[e.n].costs[0], e.ordering()
	e.releaseAll()
	m.free(final)
	return minCost, order, nil
}

// ordering walks a finished run's minimizing-candidate masks from the full
// set back down and returns the bottom-up optimal ordering. The full DP's
// parent at rel is its smallest member whose value is minimal; values
// depend only on the group, so that is the lowest member of rel in any
// group minimizing at rel's representative.
func (e *wsEngine) ordering() truthtable.Ordering {
	order := make(truthtable.Ordering, e.n)
	rel := bitops.FullMask(e.n)
	for j := e.n; j >= 1; j-- {
		var minGroups bitops.Mask
		for t := uint64(e.layers[j].argmin[e.rk.Rank(e.canon(rel))]); t != 0; t &= t - 1 {
			minGroups |= e.group[bits.TrailingZeros64(t)]
		}
		p := (rel & minGroups).Lowest()
		order[j-1] = p
		rel = rel.Without(p)
	}
	return order
}

// OptimalOrderingParallel runs the Friedman–Supowit dynamic program on
// the layer pipeline above, over the full subset lattice: popcount layers
// are sharded over opts.Workers goroutines (0 selects GOMAXPROCS, or one
// inline worker for small runs, see runEngine), each claiming the next
// eligible shard from the shared frontier, and workers flow into the next
// layer as soon as its predecessor watermark is covered instead of
// waiting at a layer barrier. Results — cost, ordering, tie-breaking, profile — are
// bit-identical to OptimalOrderingCtx at every worker count and shard
// size; CellOps/Compactions metering is identical too, while
// LiveCells/PeakCells reflect the pipeline's three-layer window
// (against the serial rolling two, see DESIGN.md).
//
// Cancellation and budget exhaustion are polled per DP transition; on
// an early stop every worker drains, every engine-owned table is
// released — an attached Meter ends with the caller-visible LiveCells
// it started with — and ErrCanceled / ErrBudgetExceeded is returned
// with a nil Result (the DP holds no incumbent before it completes).
//
// Tables are carved from a per-run ring of three layer slabs, each taken
// whole when its layer's first table is carved, while LiveCells (and
// Budget.MaxCells) count carved tables. A run, stopped or not, holds
// beyond that gauge only the ring's slabs, all of layers it opened: the
// uncarved rest of at most two open layers and the slabs of retired
// layers whose slots are not yet reopened. A slab swapped out of its slot
// is no longer held, and nothing is allocated for a layer the run never
// reached.
//
// opts.ShardBits overrides the shard granularity (2^b ranks per shard)
// for scheduling experiments.
func OptimalOrderingParallel(ctx stdctx.Context, tt *truthtable.Table, opts *SolveOptions) (*Result, error) {
	return optimalOrderingOrbits(ctx, tt, singletons(tt.NumVars()), opts)
}

// optimalOrderingOrbits is OptimalOrderingParallel over the orbit
// lattice of groups, a symmetry partition of tt's variables: the same
// Result, with the fewer cell operations and transitions of
// OrbitBounds(groups).
func optimalOrderingOrbits(ctx stdctx.Context, tt *truthtable.Table, groups []bitops.Mask, opts *SolveOptions) (*Result, error) {
	rule := opts.rule()
	m := meterFor(opts.meter(), opts.budget())
	base := baseContext(tt)
	m.alloc(base.cells())
	minCost, order, err := runEngine(ctx, base, groups, opts, m)
	m.free(base.cells())
	if err != nil {
		return nil, err
	}
	res := finishResult(tt, order, minCost, rule)
	finishMetrics(m)
	return res, nil
}

// singletons is the all-singleton partition of n variables, whose orbit
// lattice is the full subset lattice.
func singletons(n int) []bitops.Mask {
	groups := make([]bitops.Mask, n)
	for v := range groups {
		groups[v] = bitops.Mask(0).With(v)
	}
	return groups
}
