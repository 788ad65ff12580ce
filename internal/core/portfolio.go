package core

import (
	stdctx "context"
	"sort"
	"sync"
	"time"

	"obddopt/internal/obs"
	"obddopt/internal/quantum"
	"obddopt/internal/truthtable"
)

// This file is the named-solver registry behind the top-level Solve API
// and its default solver, the portfolio: a deterministic dispatch to the
// Friedman–Supowit dynamic program (predictable n·3^(n−1) work and a
// closed-form peak, Theorem 5 and Remark 1), or — only under a cell
// budget that peak cannot meet — to branch-and-bound seeded by the
// heuristic phase. The heuristic phase otherwise runs only after an
// early stop, to hand back a valid but unproven incumbent.

// SolveOptions is the option set shared by every solver. Fields
// irrelevant to a given solver (Workers for the serial DP, Seeder for
// anything but the portfolio, Alphas for anything but divide-and-conquer)
// are ignored.
type SolveOptions struct {
	// Rule selects the diagram variant (OBDD or ZDD).
	Rule Rule
	// Meter, if non-nil, accumulates operation counts. The portfolio
	// passes it to the engine it dispatches to.
	Meter *Meter
	// Trace, if non-nil, receives the solver's events; the portfolio
	// additionally emits one lane_result event for the engine it ran and
	// one for the heuristic phase when that ran. Implementations must be
	// safe for concurrent Emit calls (all of internal/obs's are): the
	// parallel DP's workers emit layer events from their goroutines.
	Trace obs.Tracer
	// Budget bounds the run's resources; the zero value is unlimited.
	// The portfolio also dispatches on MaxCells (see Portfolio).
	Budget Budget
	// Workers is the goroutine count of the pipelined DP engine, as run
	// by the parallel solver, the portfolio and
	// OptimalOrderingSharedParallel; 0 selects GOMAXPROCS, or one worker
	// on the calling goroutine when the run is small (see runEngine).
	Workers int
	// ShardBits overrides the engine scheduler's shard granularity: when
	// positive, each popcount layer is split into shards of 2^ShardBits
	// ranks. 0 (the default) sizes shards automatically from the layer size
	// and worker count. Scheduling tests set it to exercise shard seams,
	// at one worker too.
	ShardBits int
	// Seeder overrides the heuristic seeding phase of the portfolio; nil
	// selects DefaultSeeder.
	Seeder Seeder
	// InitialBound seeds branch-and-bound's incumbent with a known upper
	// bound on MinCost (e.g. from a heuristic); 0 means start unbounded.
	// A tight seed can prune most of the search.
	InitialBound uint64
	// DisableLowerBound turns off branch-and-bound's dependence-count
	// lower bound, leaving only memo/incumbent pruning (for ablation
	// measurements).
	DisableLowerBound bool
	// Prune enables brute force's branch-and-bound pruning: a partial
	// ordering whose accumulated cost already reaches the best known
	// total is abandoned. With Prune false the search visits every
	// ordering prefix, realizing the full O*(n!·2^n) work the papers
	// quote for brute force.
	Prune bool
	// Minimizer performs divide-and-conquer's minimum finding over
	// division-point candidates. Nil selects the exact simulator
	// (quantum.Exact with ε = 2^−n), which also receives Trace's quantum
	// query batches; a caller-supplied Minimizer wires its own Trace
	// field if batch events are wanted.
	Minimizer quantum.Minimizer
	// Alphas are divide-and-conquer's division fractions
	// 0 < α₁ < … < α_k < 1 of Theorems 10/13. Nil selects DefaultAlphas.
	// Fractions are rounded to level counts and deduplicated for small n.
	Alphas []float64
	// Depth is divide-and-conquer's composition depth (Section 4). At 0
	// the extension subroutine Γ that absorbs each block above a
	// division point is the classical FS* (Lemma 11); at d > 0 it is a
	// depth-(d−1) OptOBDD_Γ (Lemma 12), which divides the block again.
	// The papers iterate to depth 9 for Theorem 13; exact results are
	// identical at every depth. Negative values act as 0.
	Depth int
}

func (o *SolveOptions) rule() Rule {
	if o == nil {
		return OBDD
	}
	return o.Rule
}

func (o *SolveOptions) meter() *Meter {
	if o == nil {
		return nil
	}
	return o.Meter
}

func (o *SolveOptions) trace() obs.Tracer {
	if o == nil {
		return nil
	}
	return o.Trace
}

func (o *SolveOptions) budget() Budget {
	if o == nil {
		return Budget{}
	}
	return o.Budget
}

func (o *SolveOptions) workers() int {
	if o == nil {
		return 0
	}
	return o.Workers
}

func (o *SolveOptions) shardBits() int {
	if o == nil {
		return 0
	}
	return o.ShardBits
}

// Seeder is a heuristic ordering pass: it returns an ordering of tt's
// variables, the diagram cost (nonterminals) under that ordering, and
// whether it produced anything. It must respect ctx — stopping early and
// returning its best-so-far — and must tolerate a nil tracer.
type Seeder func(ctx stdctx.Context, tt *truthtable.Table, rule Rule, tr obs.Tracer) (truthtable.Ordering, uint64, bool)

// DefaultSeeder is the heuristic phase the portfolio uses when
// SolveOptions.Seeder is nil. The heuristics package installs its
// Sift→Anneal pipeline here from an init function — a package hook in
// the database/sql-driver style, needed because heuristics imports core
// and core cannot import it back. A nil DefaultSeeder (heuristics not
// linked in) skips the seeding phase.
var DefaultSeeder Seeder

// Solver is a registered solving strategy behind one name of the Solve
// API. Implementations honor ctx and opts.Budget cooperatively and
// return ErrCanceled / ErrBudgetExceeded on early stops, with a non-nil
// *Result alongside the error when a usable incumbent exists.
type Solver func(ctx stdctx.Context, tt *truthtable.Table, opts *SolveOptions) (*Result, error)

var (
	solverMu  sync.RWMutex
	solverReg = make(map[string]Solver)
)

// RegisterSolver makes a solving strategy available under name (as used
// by Solve's WithSolver option and the CLIs' -solver flag). It panics if
// the name is empty, the solver nil, or the name already taken — the
// same contract as database/sql.Register.
func RegisterSolver(name string, s Solver) {
	solverMu.Lock()
	defer solverMu.Unlock()
	if name == "" || s == nil {
		panic("core: RegisterSolver with empty name or nil solver") //lint:allow nopanic database/sql-style registration contract: misregistration is a linker-time programmer error
	}
	if _, dup := solverReg[name]; dup {
		panic("core: RegisterSolver called twice for " + name) //lint:allow nopanic database/sql-style registration contract: misregistration is a linker-time programmer error
	}
	solverReg[name] = s
}

// LookupSolver returns the solver registered under name.
func LookupSolver(name string) (Solver, bool) {
	solverMu.RLock()
	defer solverMu.RUnlock()
	s, ok := solverReg[name]
	return s, ok
}

// SolverNames lists the registered solver names, sorted.
func SolverNames() []string {
	solverMu.RLock()
	defer solverMu.RUnlock()
	names := make([]string, 0, len(solverReg))
	for n := range solverReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterSolver("fs", OptimalOrderingCtx)
	RegisterSolver("parallel", OptimalOrderingParallel)
	RegisterSolver("bnb", BranchAndBoundCtx)
	RegisterSolver("dnc", DivideAndConquerCtx)
	RegisterSolver("brute", func(ctx stdctx.Context, tt *truthtable.Table, opts *SolveOptions) (*Result, error) {
		return BruteForceCtx(ctx, tt, &SolveOptions{Rule: opts.rule(), Meter: opts.meter(), Budget: opts.budget(), Prune: true})
	})
	RegisterSolver("portfolio", Portfolio)
}

// Portfolio is the registered "portfolio" solver, the default of Solve
// and /v1/solve. It dispatches on closed forms the paper gives before a
// run starts instead of racing solvers to learn which finishes first.
// It first detects tt's symmetry groups (truthtable.Groups); the
// Friedman–Supowit DP over their orbit lattice does OrbitBounds' cell
// operations (Theorem 5's n·3^(n−1) when every group is a singleton) and
// holds at most its peak of live cells (Remark 1; PeakCellsBound(n) for
// singletons).
//
//   - The pipelined DP engine runs at every n, over the orbit lattice,
//     under the caller's Workers/ShardBits schedule.
//     Its result is bit-identical to OptimalOrderingParallel's.
//   - Branch-and-bound, seeded one above the heuristic phase's cost,
//     runs instead only when Budget.MaxCells is below the orbit peak:
//     the DP cannot finish there, while the search holds only one DFS
//     path of tables, about 2^(n+1) cells.
//
// The result of a nil error is exact — both engines are exact. On
// cancellation or budget exhaustion the heuristic seeder runs (unless it
// already seeded branch-and-bound) and its ordering, or
// branch-and-bound's incumbent when better, comes back alongside the
// error: a valid ordering whose optimality is not proven. The seeder
// sees the caller's ctx, so after a deadline it stops at its first
// check and the incumbent is usually its starting ordering.
func Portfolio(ctx stdctx.Context, tt *truthtable.Table, opts *SolveOptions) (*Result, error) {
	var o SolveOptions
	if opts != nil {
		o = *opts
	}
	if o.Meter == nil {
		o.Meter = &Meter{} // the lane histograms need the engine's counts
	}
	m := o.Meter

	groups := truthtable.Groups(tt)
	engine := "parallel"
	if o.Budget.MaxCells > 0 {
		if _, peak := OrbitBounds(groups); o.Budget.MaxCells < peak {
			engine = "bnb"
		}
	}
	var inc *Result
	if engine == "bnb" {
		inc = seed(ctx, tt, &o)
	}

	cells0 := m.CellOps
	start := time.Now()
	var res *Result
	var err error
	if engine == "bnb" {
		if inc != nil {
			// One above the incumbent, so an optimal incumbent is still
			// rediscovered (and thereby proven) rather than pruned away.
			o.InitialBound = inc.MinCost + 1
		}
		res, err = BranchAndBoundCtx(ctx, tt, &o)
	} else {
		res, err = optimalOrderingOrbits(ctx, tt, groups, &o)
	}
	elapsed := time.Since(start)
	obs.Hist(obs.HistNameLaneWall, "lane", engine).RecordDuration(elapsed)
	obs.Hist(obs.HistNameLaneCells, "lane", engine).Record(m.CellOps - cells0)
	obs.Hist(obs.HistNameLanePeak, "lane", engine).Record(m.PeakCells)
	if o.Trace != nil {
		ev := obs.Event{Kind: obs.KindLaneResult, Lane: engine, Elapsed: elapsed}
		if res != nil {
			ev.Cost = res.MinCost
		}
		o.Trace.Emit(ev)
	}
	if err == nil {
		return res, nil
	}
	if inc == nil {
		inc = seed(ctx, tt, &o)
	}
	if res == nil || (inc != nil && inc.MinCost < res.MinCost) {
		res = inc
	}
	return res, err
}

// seed runs the heuristic phase (o.Seeder, else DefaultSeeder) and
// returns its ordering as a Result, or nil when no seeder is installed or
// it produced nothing.
func seed(ctx stdctx.Context, tt *truthtable.Table, o *SolveOptions) *Result {
	seeder := o.Seeder
	if seeder == nil {
		seeder = DefaultSeeder
	}
	if seeder == nil {
		return nil
	}
	start := time.Now()
	order, cost, ok := seeder(ctx, tt, o.Rule, o.Trace)
	if o.Trace != nil {
		ev := obs.Event{Kind: obs.KindLaneResult, Lane: "heuristic", Elapsed: time.Since(start)}
		if ok {
			ev.Cost = cost
		}
		o.Trace.Emit(ev)
	}
	if !ok {
		return nil
	}
	return finishResult(tt, order, cost, o.Rule)
}
