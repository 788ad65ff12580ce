// Package obddopt finds provably optimal variable orderings for binary
// decision diagrams. It implements the Friedman–Supowit exact dynamic
// program (DAC 1987): given the truth table of a Boolean function over n
// variables — or any representation evaluable in polynomial time — it
// computes a variable ordering minimizing the size of the reduced ordered
// BDD, in O*(3^n) time and space, far below the trivial O*(n!·2^n)
// enumeration. The same engine minimizes zero-suppressed BDDs (ZDDs) and
// multi-terminal BDDs (MTBDDs), and a divide-and-conquer variant driven by
// simulated quantum minimum finding reproduces the structure of the
// quantum speedup literature built on this dynamic program.
//
// # Quick start
//
//	f := obddopt.MustParseExpr("x1 & x2 | x3 & x4 | x5 & x6", 6)
//	res, err := obddopt.Solve(context.Background(), f)
//	if err != nil {
//	    log.Fatal(err)
//	}
//	fmt.Println(res.Size, res.Ordering) // 8 (x1, x2, x3, x4, x5, x6)
//
// Solve runs the portfolio by default — the parallel dynamic program, or
// seeded branch-and-bound when the cell budget is below the DP's
// closed-form peak — and honors context cancellation, deadlines
// (WithDeadline) and resource budgets (WithBudget); WithSolver selects a
// single strategy. The same
// engine is served over HTTP by cmd/obddd — Dial returns a Client whose
// Solve keeps this exact error contract across the wire.
//
// This package is a facade over the implementation packages under
// internal/: the type aliases below expose the full public surface.
//
// Conventions: variables are 0-based in code (the formula syntax uses the
// papers' 1-based x1, x2, …); orderings are stored bottom-up —
// Ordering[0] is the variable read last, adjacent to the terminals — and
// rendered root-first by their String method, matching the papers.
package obddopt

import (
	"fmt"
	"io"

	"obddopt/internal/bdd"
	"obddopt/internal/bitops"
	"obddopt/internal/core"
	"obddopt/internal/dynbdd"
	"obddopt/internal/expr"
	"obddopt/internal/heuristics"
	"obddopt/internal/obs"
	"obddopt/internal/sym"
	"obddopt/internal/truthtable"
)

// Table is the truth table of a Boolean function (see
// internal/truthtable): the canonical input representation of the exact
// algorithms.
type Table = truthtable.Table

// MultiTable is the truth table of a multi-valued function, the MTBDD
// minimization input.
type MultiTable = truthtable.MultiTable

// Ordering is a variable ordering, stored bottom-up.
type Ordering = truthtable.Ordering

// Result reports an exact minimization: minimum size, an optimal ordering
// and the per-level width profile.
type Result = core.Result

// Meter accumulates operation counts (table-compaction cells, peak space).
type Meter = core.Meter

// Rule selects the diagram variant being minimized.
type Rule = core.Rule

// The supported diagram rules.
const (
	OBDD = core.OBDD
	ZDD  = core.ZDD
)

// NewTable returns the all-false function over n variables.
func NewTable(n int) *Table { return truthtable.New(n) }

// FromFunc builds a truth table by evaluating f on all 2^n assignments —
// the O*(2^n) preparation step that extends the algorithms to any
// polynomial-time-evaluable representation (Corollary 2 of the
// literature).
func FromFunc(n int, f func(x []bool) bool) *Table { return truthtable.FromFunc(n, f) }

// ParseTableHex parses the "n:hexdigits" truth-table literal produced by
// (*Table).Hex.
func ParseTableHex(s string) (*Table, error) { return truthtable.ParseHex(s) }

// ParseExpr compiles a Boolean formula over x1, x2, … (operators ! & ^ |
// -> <->, constants 0/1, parentheses) to its truth table over n variables.
func ParseExpr(src string, n int) (*Table, error) {
	e, err := expr.Parse(src)
	if err != nil {
		return nil, err
	}
	return expr.ToTruthTable(e, n)
}

// MustParseExpr is ParseExpr that panics on error, for fixed literals.
func MustParseExpr(src string, n int) *Table {
	t, err := ParseExpr(src, n)
	if err != nil {
		panic(fmt.Sprintf("obddopt: %v", err))
	}
	return t
}

// OptimalOrderingMulti minimizes a multi-terminal decision diagram for a
// multi-valued function (the papers' Remark 2 generalization). It accepts
// the same functional options as Solve that apply to a single serial DP
// run: WithMeter, WithTrace (WithRule must stay at the OBDD default — the
// MTBDD generalization has no ZDD analogue).
func OptimalOrderingMulti(mt *MultiTable, opts ...Option) *Result {
	var cfg solveConfig
	for _, o := range opts {
		o(&cfg)
	}
	return core.OptimalOrderingMulti(mt, &cfg.opts)
}

// SharedResult reports a multi-rooted (shared-forest) minimization; see
// SolveShared.
type SharedResult = core.SharedResult

// SharedSizeUnder returns the total shared-forest size of the functions
// under the given ordering.
func SharedSizeUnder(tts []*Table, order Ordering, rule Rule) uint64 {
	return core.SharedSizeUnder(tts, order, rule)
}

// Profile returns the per-level widths of the diagram of tt under an
// arbitrary ordering (no optimization), bottom-up.
func Profile(tt *Table, order Ordering, rule Rule) []uint64 {
	return core.Profile(tt, order, rule, nil)
}

// SizeUnder returns the total diagram size of tt under the ordering.
func SizeUnder(tt *Table, order Ordering, rule Rule) uint64 {
	return core.SizeUnder(tt, order, rule, nil)
}

// HeuristicResult reports a heuristic ordering search outcome.
type HeuristicResult = heuristics.Result

// Sift runs Rudell-style sifting (exact cost oracle, heuristic search);
// maxPasses 0 means run to convergence.
func Sift(tt *Table, rule Rule, maxPasses int) HeuristicResult {
	return heuristics.Sift(tt, rule, maxPasses)
}

// WindowPermute runs window permutation with window width w ∈ {2, 3, 4}.
func WindowPermute(tt *Table, rule Rule, w int) HeuristicResult {
	return heuristics.Window(tt, rule, w)
}

// AnnealOptions configures simulated annealing over orderings.
type AnnealOptions = heuristics.AnnealOptions

// Anneal runs simulated annealing on the ordering space (random
// transpositions, geometric cooling, exact cost evaluation).
func Anneal(tt *Table, rule Rule, opts *AnnealOptions) HeuristicResult {
	return heuristics.Anneal(tt, rule, opts)
}

// VarSet is a set of variables encoded as a bitmask (bit i = variable i),
// used for symmetry groups and quantification.
type VarSet = bitops.Mask

// SymmetryGroups returns the symmetry groups of f (variables whose
// exchange leaves f invariant) as variable sets sorted by smallest
// member. Orderings differing only inside a group yield identical
// diagrams.
func SymmetryGroups(f *Table) []VarSet { return truthtable.Groups(f) }

// GroupSiftResult reports a symmetric-sifting outcome.
type GroupSiftResult = sym.Result

// GroupSift runs symmetric sifting: symmetry groups are detected and
// sifted as indivisible blocks, typically matching plain sifting's
// quality at a fraction of the evaluations on structured functions.
func GroupSift(f *Table, rule Rule) GroupSiftResult { return sym.GroupSift(f, rule) }

// Tracer receives typed solver events (DP layers, compactions,
// branch-and-bound nodes, divide-and-conquer splits, heuristic passes,
// quantum query batches); attach one via Options.Trace or the per-solver
// option structs. A nil tracer costs nothing.
type Tracer = obs.Tracer

// TraceEvent is one typed solver event; see internal/obs for the kinds
// and field conventions.
type TraceEvent = obs.Event

// RunReport is the machine-readable run summary emitted by the CLI
// `-json` modes and assembled by NewRunCollector.
type RunReport = obs.RunReport

// NewTraceRecorder returns a Tracer that buffers every event in memory,
// for tests and offline analysis.
func NewTraceRecorder() *obs.Recorder { return &obs.Recorder{} }

// NewProgressTracer returns a Tracer that renders coarse live progress
// (layer completions, incumbent improvements) to w.
func NewProgressTracer(w io.Writer) Tracer { return obs.NewProgress(w) }

// NewRunCollector returns a Tracer folding the event stream into a
// RunReport as it arrives; call Report when the run finishes.
func NewRunCollector() *obs.Collector { return obs.NewCollector() }

// MultiTracer fans events out to several tracers; nil entries are
// skipped and an empty call returns nil.
func MultiTracer(tracers ...Tracer) Tracer { return obs.Multi(tracers...) }

// StartDebugServer serves net/http/pprof and expvar metrics
// (/debug/vars, including the process-wide "obddopt" counter map) on
// addr, returning the bound address. Pass "localhost:0" for an
// OS-assigned port.
func StartDebugServer(addr string) (string, error) { return obs.StartDebugServer(addr) }

// BDDManager is a shared-node BDD package (unique table, memoized ITE,
// quantification, satisfiability counting, DOT export).
type BDDManager = bdd.Manager

// BDDNode identifies a node within a BDDManager.
type BDDNode = bdd.Node

// NewBDDManager returns a BDD manager over n variables under the given
// bottom-up ordering (nil = variable 0 at the root).
func NewBDDManager(n int, order Ordering) *BDDManager { return bdd.New(n, order) }

// ReorderableManager is a dynamically reorderable BDD manager (CUDD-style
// reference-counted nodes with in-place adjacent-level swaps): see
// internal/dynbdd. Roots stay valid across reordering.
type ReorderableManager = dynbdd.Manager

// NewReorderableManager returns a reorderable manager over n variables
// under the given bottom-up ordering (nil = variable 0 at the root).
// Typical flow:
//
//	m := obddopt.NewReorderableManager(f.NumVars(), start)
//	root := m.FromTruthTable(f)
//	m.Sift(0)              // in-place heuristic reordering
//	m.ExactReorder(root)   // in-place provably optimal reordering
func NewReorderableManager(n int, order Ordering) *ReorderableManager {
	return dynbdd.New(n, order)
}

// BuildBDD constructs the reduced OBDD of tt in a fresh manager under the
// given ordering and returns the manager and root — the way to
// materialize the minimum diagram found by Solve:
//
//	res, err := obddopt.Solve(ctx, f)
//	// handle err
//	m, root := obddopt.BuildBDD(f, res.Ordering)
func BuildBDD(tt *Table, order Ordering) (*BDDManager, BDDNode) {
	m := bdd.New(tt.NumVars(), order)
	return m, m.FromTruthTable(tt)
}
