// Package obs is the unified instrumentation layer of the repository: a
// nil-safe tracing interface threaded through every solver, a process-wide
// metrics registry published via expvar, and the consumer ends (live
// progress rendering, structured run reports, a pprof/expvar debug server).
//
// Design constraints, in order:
//
//  1. Zero cost when off. Solvers hold a Tracer interface value and guard
//     every emission with a nil check; an unset Trace field adds one
//     predictable branch per layer, nothing per cell. Global counters are
//     updated at layer granularity (one atomic add per DP layer), never
//     per cell.
//  2. Race freedom. The parallel dynamic program emits events only from
//     its coordinating goroutine; the bundled Tracer implementations
//     (Recorder, Progress, Collector) are additionally safe for concurrent
//     Emit calls so custom fan-outs stay correct under -race.
//  3. One schema. The same RunReport shape backs `optobdd -json`,
//     `bddbench -json` and `bddstats -json`, so downstream tooling (and
//     the ordering-learning literature that consumes per-run features)
//     parses one format.
//
// Events map one-to-one onto the quantities the papers' complexity claims
// are stated in: KindLayerEnd carries the per-layer cell-operation count
// whose total Theorem 5 bounds by n·3^{n−1}, and the live/peak cell gauges
// realize Remark 1's two-layer space argument. See DESIGN.md's
// "Observability" note for the full mapping.
package obs

import (
	"fmt"
	"time"
)

// EventKind discriminates trace events.
type EventKind uint8

const (
	// KindLayerStart marks the start of one subset-DP layer: K is the
	// layer cardinality k, Subsets the size of the completed layer k−1.
	KindLayerStart EventKind = iota
	// KindLayerEnd marks a completed DP layer: K, Subsets (kept subsets),
	// CellOps (table cells visited by this layer's compactions), the
	// meter's LiveCells/PeakCells if metering, and wall-clock Elapsed.
	KindLayerEnd
	// KindCompaction is one table compaction inside a DP layer: K, Var
	// (the absorbed variable), Cost (the produced level width) and
	// CellOps (cells visited). High-volume; emitted only by the serial
	// dynamic program.
	KindCompaction
	// KindBnBExpand is one branch-and-bound child expansion: Depth, Var,
	// Cost (child context cost) and CellOps.
	KindBnBExpand
	// KindBnBPruneMemo is a subtree abandoned by the dominance memo.
	KindBnBPruneMemo
	// KindBnBPruneIncumbent is a subtree abandoned by the incumbent test.
	KindBnBPruneIncumbent
	// KindBnBPruneBound is a subtree abandoned by the lower bound; Bound
	// carries the bounding value.
	KindBnBPruneBound
	// KindBnBBest is an incumbent improvement: Cost is the new best.
	KindBnBBest
	// KindDnCSplit is a divide-and-conquer division: Depth is the
	// division level t, Mask the variable set being split, Subsets the
	// candidate division-subset count.
	KindDnCSplit
	// KindDnCMerge records the chosen division subset: Mask is the
	// winning subset K, Cost the optimal cost of the merged solution.
	KindDnCMerge
	// KindHeurPass is one heuristic improvement sweep: K is the pass
	// number, Cost the best cost after the pass, Evals the oracle
	// evaluations so far.
	KindHeurPass
	// KindHeurSwap is an accepted heuristic move: Var the moved variable
	// (or transposition position), K the target position, Cost the
	// resulting cost.
	KindHeurSwap
	// KindQuantumBatch is one (simulated) quantum minimum-finding call:
	// Evals is the candidate-set size, Queries the metered quantum oracle
	// queries, Cost the found minimum.
	KindQuantumBatch
	// KindLaneResult marks one engine of the portfolio finishing: Lane
	// names it ("heuristic", or the registered solver the portfolio
	// dispatched to, "parallel" or "bnb"), Cost carries the cost it
	// achieved (when it produced a result) and Elapsed its wall-clock
	// time. An engine stopped without a result carries no Cost.
	KindLaneResult
	// KindRaceWon marked the portfolio's race deciding (Lane the winner,
	// Cost the optimum, Elapsed the race). The portfolio now dispatches
	// instead of racing and nothing emits it; the kind stays so that
	// trace consumers that still count it keep compiling.
	KindRaceWon
)

var kindNames = [...]string{
	KindLayerStart:        "layer_start",
	KindLayerEnd:          "layer_end",
	KindCompaction:        "compaction",
	KindBnBExpand:         "bnb_expand",
	KindBnBPruneMemo:      "bnb_prune_memo",
	KindBnBPruneIncumbent: "bnb_prune_incumbent",
	KindBnBPruneBound:     "bnb_prune_bound",
	KindBnBBest:           "bnb_best",
	KindDnCSplit:          "dnc_split",
	KindDnCMerge:          "dnc_merge",
	KindHeurPass:          "heur_pass",
	KindHeurSwap:          "heur_swap",
	KindQuantumBatch:      "quantum_batch",
	KindLaneResult:        "lane_result",
	KindRaceWon:           "race_won",
}

// String returns the snake_case event name used in JSON reports.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its string name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// Event is one trace record. It is a flat union: which fields are
// meaningful depends on Kind (see the kind constants). Events are passed
// by value so emitting one allocates nothing.
type Event struct {
	Kind      EventKind     `json:"kind"`
	K         int           `json:"k,omitempty"`
	Var       int           `json:"var,omitempty"`
	Depth     int           `json:"depth,omitempty"`
	Mask      uint64        `json:"mask,omitempty"`
	Subsets   int           `json:"subsets,omitempty"`
	CellOps   uint64        `json:"cell_ops,omitempty"`
	Cost      uint64        `json:"cost,omitempty"`
	Bound     uint64        `json:"bound,omitempty"`
	LiveCells uint64        `json:"live_cells,omitempty"`
	PeakCells uint64        `json:"peak_cells,omitempty"`
	Evals     uint64        `json:"evals,omitempty"`
	Queries   float64       `json:"queries,omitempty"`
	Elapsed   time.Duration `json:"elapsed_ns,omitempty"`
	// Lane names the portfolio lane for the Lane* kinds ("heuristic", or
	// a registered solver name); empty for all other kinds.
	Lane string `json:"lane,omitempty"`
}

// Tracer receives trace events. Implementations used with the parallel
// solvers or shared across goroutines must be safe for concurrent Emit
// calls (all implementations in this package are). A nil Tracer disables
// tracing; solvers check for nil before building an Event, so the off
// path costs one branch.
type Tracer interface {
	Emit(Event)
}

// Multi fans events out to every non-nil tracer. It returns nil when no
// tracer remains, so the result can be stored directly in an options
// struct and keep the nil fast path.
func Multi(tracers ...Tracer) Tracer {
	var live []Tracer
	for _, t := range tracers {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiTracer(live)
}

type multiTracer []Tracer

func (m multiTracer) Emit(ev Event) {
	for _, t := range m {
		t.Emit(ev)
	}
}
