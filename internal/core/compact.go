// Package core implements the exact optimal-variable-ordering algorithms of
// Friedman & Supowit (DAC 1987 / IEEE TC 1990) and their generalizations:
//
//   - FS, the O*(3^n) subset dynamic program (Theorem 5 of the restatement),
//   - FS*, the composable variant that extends a partial solution FS(I) to
//     FS(I ⊔ K) for all K ⊆ J (Lemma 8),
//   - BruteForce, the trivial O*(n!·2^n) baseline the paper improves on,
//   - OptOBDD(k, α), the divide-and-conquer variant driven by (simulated)
//     quantum minimum finding (Lemma 9 and Theorems 10/13).
//
// All algorithms run on truth tables and share one primitive: table
// compaction (§2.3.2), which absorbs one variable into the solved bottom
// block of levels while counting the nodes the corresponding OBDD level
// needs. Compaction supports three node-elimination rules: OBDD (Shannon),
// ZDD (zero-suppressed, Remark 2's two-line modification), and MTBDD
// (multi-terminal, also Remark 2).
//
// Storage: every table is a flat []uint32 of 2^{|free|} cells per root.
// The hot paths never allocate tables through the garbage collector —
// they draw dirty blocks from a per-goroutine workspace (a slab arena
// plus a reusable dedup scratch, see internal/core/arena) and return them
// when a candidate is dropped or a layer retires. The Meter's cell
// accounting (alloc/free) is kept alongside and is what bddlint's
// meterbalance analyzer audits; arena recycling is invisible to it.
package core

import (
	"fmt"
	"sync"

	"obddopt/internal/bitops"
	"obddopt/internal/core/arena"
	"obddopt/internal/truthtable"
)

// Meter accumulates the operation counts the complexity claims are stated
// in. CellOps counts table-compaction cell visits — the unit in which the
// 3^n bound of Theorem 5 is measured. A nil *Meter is accepted everywhere
// and disables metering. The JSON tags define the meter section of the
// CLI `-json` run reports (see internal/obs).
type Meter struct {
	// CellOps counts individual table cells visited by compaction; the
	// classical time bound is Σ_k k·C(n,k)·2^{n−k} ≤ n·3^{n−1} cell ops.
	CellOps uint64 `json:"cell_ops"`
	// Compactions counts COMPACT invocations (DP transitions).
	Compactions uint64 `json:"compactions"`
	// LiveCells tracks the current number of table cells held by the DP;
	// PeakCells its maximum — the space bound of Remark 1.
	LiveCells uint64 `json:"live_cells"`
	PeakCells uint64 `json:"peak_cells"`
	// Evaluations counts cost-oracle evaluations performed by search
	// drivers (brute force, minimum finding).
	Evaluations uint64 `json:"evaluations"`
}

// Reset zeroes every counter, so one Meter can be reused across runs
// (benchmark loops, batched CLI invocations).
func (m *Meter) Reset() { *m = Meter{} }

func (m *Meter) addCells(n uint64) {
	if m == nil {
		return
	}
	m.CellOps += n
	m.Compactions++
}

func (m *Meter) alloc(cells uint64) {
	if m == nil {
		return
	}
	m.LiveCells += cells
	if m.LiveCells > m.PeakCells {
		m.PeakCells = m.LiveCells
	}
}

func (m *Meter) free(cells uint64) {
	if m == nil {
		return
	}
	if cells > m.LiveCells {
		m.LiveCells = 0
		return
	}
	m.LiveCells -= cells
}

// workspace bundles the goroutine-local scratch of one solver run: the
// slab arena the table blocks are drawn from and the open-addressed dedup
// table compaction keys child pairs in. Workspaces are pooled across runs
// so consecutive Solve calls reuse the same warmed slabs; they carry no
// run state (arena blocks are dirty by contract, the dedup scratch is
// reset per compaction), so reuse cannot bleed results between runs.
//
// A workspace must not be shared between goroutines; the parallel solver
// acquires one per worker.
type workspace struct {
	ar *arena.Arena
	dd arena.Dedup
}

var wsPool = sync.Pool{New: func() any { return &workspace{ar: new(arena.Arena)} }}

// acquireWorkspace returns a workspace for one run (goroutine-local use).
func acquireWorkspace() *workspace { return wsPool.Get().(*workspace) }

// release returns the workspace — slabs included — to the process-wide
// pool. The caller must not use it afterwards; blocks it handed out that
// were not Put back are simply never recycled (see arena.Arena).
func (ws *workspace) release() { wsPool.Put(ws) }

// releaseCapped returns the workspaces of one engine run to the pool,
// keeping at most peak cells on their arenas' free lists in total. The
// engine carves its tables from its ring of slabs (wsRing), so its
// workers draw only representative scratch from these arenas; what else
// they hold was left by earlier runs, of the serial solvers too, and the
// run's metered peak is all that a repeat of the run can use.
func releaseCapped(wss []*workspace, peak uint64) {
	for _, ws := range wss {
		peak -= ws.ar.Trim(peak)
	}
	if releaseHook != nil {
		releaseHook(wss)
	}
	for _, ws := range wss {
		ws.release()
	}
}

// releaseHook, when set, sees a multi-worker run's workspaces after the
// cap and before they return to the pool. Tests use it to measure what
// the pool keeps; it is nil otherwise.
var releaseHook func(wss []*workspace)

// recycle returns a context's table block to the workspace's arena. It is
// the storage-side half of releasing a context; the metering-side half
// (m.free) stays at the call site where the meterbalance analyzer can see
// it.
func (ws *workspace) recycle(c *fsContext) {
	ws.ar.PutU32(c.table)
	c.table = nil
}

// fsContext is the quadruple FS(⟨I₁, …, I_m⟩) of the papers minus the
// explicit NODE set: a partially absorbed problem state. The absorbed
// variables occupy the bottom |absorbed| levels in some optimal order; the
// table maps each assignment of the free (unabsorbed) variables to the
// canonical ID of the corresponding subfunction's node. A shared-forest
// context holds one such block per root, end to end (baseContextShared),
// and every driver runs on it as on a single root.
//
// Node IDs: 0 … nTerm−1 are terminal IDs (false=0, true=1 for Boolean
// rules); nonterminal nodes are numbered from nTerm upward in creation
// order, so nextID = nTerm + cost at all times.
type fsContext struct {
	n     int         // total number of variables of f
	free  bitops.Mask // variables not yet absorbed
	table []uint32    // 2^{|free|} cells per root: node ID per free-variable assignment
	cost  uint64      // MINCOST: nonterminal nodes in the absorbed levels
	nTerm uint32      // number of terminal IDs
}

// nextID returns the ID the next created node will receive.
func (c *fsContext) nextID() uint32 { return c.nTerm + uint32(c.cost) }

// cells returns the table length as a uint64.
func (c *fsContext) cells() uint64 { return uint64(len(c.table)) }

// baseContext builds the initial context FS(∅) from a Boolean truth table:
// the table is simply the truth table with terminal IDs 0/1 per cell (the
// one-root case of baseContextShared).
func baseContext(tt *truthtable.Table) *fsContext {
	return baseContextShared([]*truthtable.Table{tt})
}

// baseContextMulti builds the initial context from a multi-valued table
// (MTBDD minimization, Remark 2). Terminal IDs are the dense value codes.
func baseContextMulti(mt *truthtable.MultiTable) (*fsContext, []int) {
	codes, terminals := mt.Dense()
	n := mt.NumVars()
	return &fsContext{
		n:     n,
		free:  bitops.FullMask(n),
		table: codes,
		cost:  0,
		nTerm: uint32(len(terminals)),
	}, terminals
}

// pairKey packs a (u0, u1) child pair into a dedup key. Node IDs stay far
// below 2^32 (they are bounded by table size ≤ 2^30 plus terminals). The
// zero key — pair (0, 0) — is never produced for a kept node under any
// rule (OBDD/MTBDD skip u0 == u1, ZDD skips u1 == 0), which is what lets
// arena.Dedup use it as the empty-slot sentinel.
func pairKey(u0, u1 uint32) uint64 { return uint64(u0) | uint64(u1)<<32 }

// compactInto is the compaction kernel: it writes the table that absorbs
// the free-variable bit position pos of src into dst (len(dst) must be
// len(src)/2), assigning fresh node IDs from id0 upward in ascending dst
// index order, and returns the number of fresh nodes (the level width).
// The caller must Reset dd before the first call of a (possibly
// multi-root) compaction; IDs continue across calls sharing one dd.
//
// Layout: absorbing bit pos pairs src cells at stride 2^(pos+1) — each
// stride block is a contiguous run of 2^pos u0-cells followed by the
// matching run of u1-cells. The kernel walks those runs sequentially
// (three linear streams, no per-cell index splicing) and tests eight
// lanes at a time for the skip condition: a chunk whose lanes all skip is
// bulk-copied without touching the dedup table, which is the common case
// for structured functions whose subfunctions collapse early.
func compactInto(dst, src []uint32, pos uint, rule Rule, id0 uint32, dd *arena.Dedup) (width uint64) {
	if dd.Compact32() {
		switch rule {
		case OBDD:
			return compactOBDD32(dst, src, pos, id0, dd)
		case ZDD:
			return compactZDD32(dst, src, pos, id0, dd)
		default:
			panic("core: unknown rule") //lint:allow nopanic internal invariant: Rule enum is exhaustive; a new rule must extend this switch
		}
	}
	half := uint64(1) << pos
	stride := half * 2
	id := id0
	di := uint64(0)
	switch rule {
	case OBDD:
		for base := uint64(0); base < uint64(len(src)); base += stride {
			u0s := src[base : base+half : base+half]
			u1s := src[base+half : base+stride : base+stride]
			j := uint64(0)
			for ; j+8 <= half; j += 8 {
				// Word-parallel skip test: XOR-OR over eight lanes is zero
				// iff every lane has u0 == u1 (all skips).
				if (u0s[j]^u1s[j])|(u0s[j+1]^u1s[j+1])|
					(u0s[j+2]^u1s[j+2])|(u0s[j+3]^u1s[j+3])|
					(u0s[j+4]^u1s[j+4])|(u0s[j+5]^u1s[j+5])|
					(u0s[j+6]^u1s[j+6])|(u0s[j+7]^u1s[j+7]) == 0 {
					copy(dst[di:di+8], u0s[j:j+8])
					di += 8
					continue
				}
				for l := j; l < j+8; l++ {
					u0, u1 := u0s[l], u1s[l]
					if u0 == u1 {
						dst[di] = u0
						di++
						continue
					}
					if got, fresh := dd.FindOrAssign(pairKey(u0, u1), id); fresh {
						dst[di] = id
						id++
						width++
					} else {
						dst[di] = got
					}
					di++
				}
			}
			for ; j < half; j++ {
				u0, u1 := u0s[j], u1s[j]
				if u0 == u1 {
					dst[di] = u0
					di++
					continue
				}
				if got, fresh := dd.FindOrAssign(pairKey(u0, u1), id); fresh {
					dst[di] = id
					id++
					width++
				} else {
					dst[di] = got
				}
				di++
			}
		}
	case ZDD:
		for base := uint64(0); base < uint64(len(src)); base += stride {
			u0s := src[base : base+half : base+half]
			u1s := src[base+half : base+stride : base+stride]
			j := uint64(0)
			for ; j+8 <= half; j += 8 {
				// All eight lanes skip iff every u1 is the false terminal.
				if u1s[j]|u1s[j+1]|u1s[j+2]|u1s[j+3]|
					u1s[j+4]|u1s[j+5]|u1s[j+6]|u1s[j+7] == 0 {
					copy(dst[di:di+8], u0s[j:j+8])
					di += 8
					continue
				}
				for l := j; l < j+8; l++ {
					u0, u1 := u0s[l], u1s[l]
					if u1 == 0 {
						dst[di] = u0
						di++
						continue
					}
					if got, fresh := dd.FindOrAssign(pairKey(u0, u1), id); fresh {
						dst[di] = id
						id++
						width++
					} else {
						dst[di] = got
					}
					di++
				}
			}
			for ; j < half; j++ {
				u0, u1 := u0s[j], u1s[j]
				if u1 == 0 {
					dst[di] = u0
					di++
					continue
				}
				if got, fresh := dd.FindOrAssign(pairKey(u0, u1), id); fresh {
					dst[di] = id
					id++
					width++
				} else {
					dst[di] = got
				}
				di++
			}
		}
	default:
		panic("core: unknown rule") //lint:allow nopanic internal invariant: Rule enum is exhaustive; a new rule must extend this switch
	}
	return width
}

// resetDedup prepares ws.dd for a compaction of expect insertions whose
// first fresh ID is id0, selecting the packed 32-bit probe layout when
// every ID the compaction can meet provably fits in 16 bits (IDs already
// in the source table are below id0 by construction, fresh ones stay
// below id0 + expect). The threshold is exact, not heuristic: crossing
// it falls back to the wide layout with identical results.
func resetDedup(dd *arena.Dedup, expect uint64, id0 uint32) {
	if uint64(id0)+expect <= 1<<16 {
		dd.Reset32(expect)
	} else {
		dd.Reset(expect)
	}
}

// compactOBDD32 is the OBDD compaction kernel for the packed 32-bit
// dedup layout (see Dedup.Reset32): the (u0, u1) pair packs into a
// 32-bit key sharing one slot with its assigned ID, so the probe loop is
// one load per hit and one store per miss. The probe is hand-inlined —
// keeping the slot array, shift and mask in registers across the cell
// loop is worth ~1.5x end to end over calling through the Dedup methods.
// IDs are assigned in ascending dst order exactly like the wide kernel,
// so the produced tables are bit-identical.
func compactOBDD32(dst, src []uint32, pos uint, id0 uint32, dd *arena.Dedup) (width uint64) {
	slots, shift := dd.Slots32()
	mask := uint64(len(slots) - 1)
	half := uint64(1) << pos
	stride := half * 2
	id := id0
	di := uint64(0)
	for base := uint64(0); base < uint64(len(src)); base += stride {
		u0s := src[base : base+half : base+half]
		u1s := src[base+half : base+stride : base+stride]
		j := uint64(0)
		for ; j+8 <= half; j += 8 {
			// Word-parallel skip test: XOR-OR over eight lanes is zero
			// iff every lane has u0 == u1 (all skips).
			if (u0s[j]^u1s[j])|(u0s[j+1]^u1s[j+1])|
				(u0s[j+2]^u1s[j+2])|(u0s[j+3]^u1s[j+3])|
				(u0s[j+4]^u1s[j+4])|(u0s[j+5]^u1s[j+5])|
				(u0s[j+6]^u1s[j+6])|(u0s[j+7]^u1s[j+7]) == 0 {
				copy(dst[di:di+8], u0s[j:j+8])
				di += 8
				continue
			}
			for l := j; l < j+8; l++ {
				u0, u1 := u0s[l], u1s[l]
				if u0 == u1 {
					dst[di] = u0
					di++
					continue
				}
				key := u0 | u1<<16
				slot := ((uint64(key) * 0x9e3779b97f4a7c15) >> shift) & mask
				for { //lint:allow ctxcheckpoint linear probe over a table Reset32 sizes to ≥ 2x the insertions, so an empty slot is always reached within the table length

					s := slots[slot]
					if uint32(s) == key {
						dst[di] = uint32(s >> 32)
						break
					}
					if s == 0 {
						slots[slot] = uint64(key) | uint64(id)<<32
						dst[di] = id
						id++
						width++
						break
					}
					slot = (slot + 1) & mask
				}
				di++
			}
		}
		for ; j < half; j++ {
			u0, u1 := u0s[j], u1s[j]
			if u0 == u1 {
				dst[di] = u0
				di++
				continue
			}
			key := u0 | u1<<16
			slot := ((uint64(key) * 0x9e3779b97f4a7c15) >> shift) & mask
			for { //lint:allow ctxcheckpoint linear probe over a table Reset32 sizes to ≥ 2x the insertions, so an empty slot is always reached within the table length

				s := slots[slot]
				if uint32(s) == key {
					dst[di] = uint32(s >> 32)
					break
				}
				if s == 0 {
					slots[slot] = uint64(key) | uint64(id)<<32
					dst[di] = id
					id++
					width++
					break
				}
				slot = (slot + 1) & mask
			}
			di++
		}
	}
	return width
}

// compactZDD32 is compactOBDD32's ZDD twin: the skip condition is a zero
// 1-child instead of equal children.
func compactZDD32(dst, src []uint32, pos uint, id0 uint32, dd *arena.Dedup) (width uint64) {
	slots, shift := dd.Slots32()
	mask := uint64(len(slots) - 1)
	half := uint64(1) << pos
	stride := half * 2
	id := id0
	di := uint64(0)
	for base := uint64(0); base < uint64(len(src)); base += stride {
		u0s := src[base : base+half : base+half]
		u1s := src[base+half : base+stride : base+stride]
		j := uint64(0)
		for ; j+8 <= half; j += 8 {
			// All eight lanes skip iff every u1 is the false terminal.
			if u1s[j]|u1s[j+1]|u1s[j+2]|u1s[j+3]|
				u1s[j+4]|u1s[j+5]|u1s[j+6]|u1s[j+7] == 0 {
				copy(dst[di:di+8], u0s[j:j+8])
				di += 8
				continue
			}
			for l := j; l < j+8; l++ {
				u0, u1 := u0s[l], u1s[l]
				if u1 == 0 {
					dst[di] = u0
					di++
					continue
				}
				key := u0 | u1<<16
				slot := ((uint64(key) * 0x9e3779b97f4a7c15) >> shift) & mask
				for { //lint:allow ctxcheckpoint linear probe over a table Reset32 sizes to ≥ 2x the insertions, so an empty slot is always reached within the table length

					s := slots[slot]
					if uint32(s) == key {
						dst[di] = uint32(s >> 32)
						break
					}
					if s == 0 {
						slots[slot] = uint64(key) | uint64(id)<<32
						dst[di] = id
						id++
						width++
						break
					}
					slot = (slot + 1) & mask
				}
				di++
			}
		}
		for ; j < half; j++ {
			u0, u1 := u0s[j], u1s[j]
			if u1 == 0 {
				dst[di] = u0
				di++
				continue
			}
			key := u0 | u1<<16
			slot := ((uint64(key) * 0x9e3779b97f4a7c15) >> shift) & mask
			for { //lint:allow ctxcheckpoint linear probe over a table Reset32 sizes to ≥ 2x the insertions, so an empty slot is always reached within the table length

				s := slots[slot]
				if uint32(s) == key {
					dst[di] = uint32(s >> 32)
					break
				}
				if s == 0 {
					slots[slot] = uint64(key) | uint64(id)<<32
					dst[di] = id
					id++
					width++
					break
				}
				slot = (slot + 1) & mask
			}
			di++
		}
	}
	return width
}

// compact performs table compaction with respect to variable v (§2.3.2):
// it absorbs v into the solved bottom block, producing the context for
// (I ⊔ {v}) from the context for I. The returned width is the number of
// nodes the new level needs, i.e. Cost_v(f, π_(I,v)) — by Lemma 3 this is
// independent of the order chosen inside I.
//
// Node uniqueness is keyed per level: two cells of the result receive the
// same ID iff their (u0, u1) child pairs coincide, which — because the new
// nodes all test the same variable v — is exactly the (var, u0, u1) triple
// equality the NODE set of the papers encodes. Deduplicating on (u0, u1)
// across levels would wrongly merge nodes testing different variables that
// happen to share a child pair (see DESIGN.md).
//
// The input context is not modified. The result's table is drawn from
// ws's arena; the caller owns it and returns it with ws.recycle (plus the
// matching m.free) when done.
func compact(c *fsContext, v int, rule Rule, m *Meter, ws *workspace) (next *fsContext, width uint64) {
	if !c.free.Has(v) {
		panic(fmt.Sprintf("core: compact on non-free variable %d (free %#x)", v, uint64(c.free))) //lint:allow nopanic internal invariant: compacting a non-free variable is a DP-driver bug, unreachable via the public API
	}
	pos := bitops.RelativePosition(c.free, v)
	size := uint64(len(c.table)) / 2
	table := ws.ar.GetU32(size)
	m.alloc(size) // ownership transfers via the returned context; proven by meterbalance's carrier-return rule
	resetDedup(&ws.dd, size, c.nextID())
	width = compactInto(table, c.table, pos, rule, c.nextID(), &ws.dd)
	m.addCells(size)
	return &fsContext{
		n:     c.n,
		free:  c.free.Without(v),
		table: table,
		cost:  c.cost + width,
		nTerm: c.nTerm,
	}, width
}

// profileAlong absorbs the free variables of c in the order given
// (bottom-up) and returns the width of each produced level. It is the
// Cost_j evaluator used for brute force, heuristics and verification.
// order must list exactly the free variables of c. The returned final
// context's table is a fresh block the caller may free but not recycle.
func profileAlong(c *fsContext, order []int, rule Rule, m *Meter) (widths []uint64, final *fsContext) {
	ws := acquireWorkspace()
	cur := c
	widths = make([]uint64, 0, len(order))
	for _, v := range order {
		next, w := compact(cur, v, rule, m, ws)
		if cur != c {
			m.free(cur.cells())
			ws.recycle(cur)
		}
		cur = next
		widths = append(widths, w)
	}
	ws.release()
	return widths, cur
}
