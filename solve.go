package obddopt

import (
	"context"
	"fmt"
	"time"

	"obddopt/internal/artifact"
	"obddopt/internal/core"
	_ "obddopt/internal/heuristics" // installs the portfolio's default heuristic seeder
	"obddopt/internal/obs"
	"obddopt/internal/truthtable"
)

// This file is the unified entry point of the package: one Solve call
// behind which every solving strategy — the Friedman–Supowit dynamic
// program, its parallel variant, branch-and-bound, divide-and-conquer,
// brute force, and the portfolio dispatching between them — is selected
// by name, configured by functional options, and supervised by a context
// deadline and a resource budget.

// Sentinel errors of the Solve API; test with errors.Is.
var (
	// ErrCanceled reports that the run stopped early because its context
	// was canceled or its deadline expired. The *Result returned
	// alongside it, when non-nil, is the best incumbent found before the
	// stop — a valid ordering whose optimality is NOT proven.
	ErrCanceled = core.ErrCanceled
	// ErrBudgetExceeded reports that the run stopped early because a
	// resource budget (live DP cells, search nodes) was exhausted; the
	// incumbent contract matches ErrCanceled's.
	ErrBudgetExceeded = core.ErrBudgetExceeded
	// ErrInvalidInput reports a malformed problem: nil table, variable
	// count out of range, or an unknown solver name.
	ErrInvalidInput = core.ErrInvalidInput
)

// Budget bounds the resources a Solve run may consume; the zero value is
// unlimited. Enforcement is cooperative, at the same checkpoints as
// context cancellation.
type Budget = core.Budget

// Option configures one Solve call.
type Option func(*solveConfig)

type solveConfig struct {
	solver   string
	opts     core.SolveOptions
	deadline time.Duration
}

// WithSolver selects the solving strategy by registered name: "fs" (the
// serial dynamic program), "parallel", "bnb", "dnc", "brute" or
// "portfolio" (the default: the parallel DP, or seeded branch-and-bound
// when WithBudget's MaxCells is below the DP's closed-form peak).
// SolverNames lists what is available.
func WithSolver(name string) Option {
	return func(c *solveConfig) { c.solver = name }
}

// WithRule selects the diagram variant to minimize (OBDD, the default,
// or ZDD).
func WithRule(rule Rule) Option {
	return func(c *solveConfig) { c.opts.Rule = rule }
}

// WithDeadline bounds the run's wall-clock time: after d the solver
// stops cooperatively and Solve returns ErrCanceled, carrying the best
// incumbent when one exists. It composes with (tightens, never loosens)
// any deadline already on the ctx passed to Solve.
func WithDeadline(d time.Duration) Option {
	return func(c *solveConfig) { c.deadline = d }
}

// WithBudget bounds the run's resources (live DP cells, search nodes);
// exhaustion surfaces as ErrBudgetExceeded, carrying the best incumbent
// when one exists.
func WithBudget(b Budget) Option {
	return func(c *solveConfig) { c.opts.Budget = b }
}

// WithTrace attaches a Tracer to the run. The parallel DP's workers
// emit layer events from their own goroutines, so the implementation
// must be safe for concurrent Emit calls (all tracers in this package
// are). The portfolio adds one lane_result event naming the engine it
// ran, and one for the heuristic phase when that ran.
func WithTrace(tr Tracer) Option {
	return func(c *solveConfig) { c.opts.Trace = tr }
}

// WithMeter attaches a Meter accumulating the run's operation counts.
// The portfolio passes it to the engine it dispatches to.
func WithMeter(m *Meter) Option {
	return func(c *solveConfig) { c.opts.Meter = m }
}

// Schedule configures the pipeline scheduler behind the parallel solver
// paths: worker count and shard granularity. Each worker claims the next
// eligible shard from the shared frontier and runs it at once. The zero
// value is the automatic default (GOMAXPROCS workers, or one inline
// worker for small runs; auto-sized shards).
type Schedule struct {
	// Workers is the goroutine count of the parallel dynamic program,
	// SolveShared's included; 0 selects GOMAXPROCS, or one inline worker
	// for small runs.
	Workers int
	// ShardBits overrides the shard granularity of the pipelined DP:
	// when positive, each popcount layer is split into shards of
	// 2^ShardBits lattice ranks. 0 sizes shards automatically from the
	// layer size and worker count. Scheduling-experiment knob; the
	// default is right for production use.
	ShardBits int
}

// WithSchedule configures the parallel scheduler: worker count and shard
// granularity. It applies to the "parallel" solver, to the
// portfolio (which runs that engine), and to SolveShared, which runs the
// same engine over the roots' concatenated tables.
func WithSchedule(s Schedule) Option {
	return func(c *solveConfig) {
		c.opts.Workers = s.Workers
		c.opts.ShardBits = s.ShardBits
	}
}

// SolverNames lists the registered solver names, sorted — the valid
// arguments to WithSolver and the CLIs' -solver flag.
func SolverNames() []string { return core.SolverNames() }

// NewTableChecked returns the all-false function over n variables, or
// ErrInvalidInput when n is outside [0, 30] — the error-returning
// counterpart of NewTable for untrusted input.
func NewTableChecked(n int) (*Table, error) {
	t, err := truthtable.NewChecked(n)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	return t, nil
}

// Solve finds an optimal variable ordering for tt under the configured
// strategy. With no options it runs the portfolio solver on OBDDs: the
// pipelined Friedman–Supowit dynamic program, whose work (Theorem 5)
// and peak space (Remark 1) are known before it starts. Only when
// WithBudget's MaxCells is below that peak does it run branch-and-bound
// instead, seeded by a heuristic phase (sifting, then simulated
// annealing).
//
// A nil error guarantees Result.MinCost is the exact optimum. On
// cancellation, deadline expiry or budget exhaustion, Solve returns
// ErrCanceled / ErrBudgetExceeded — and, when the strategy holds one, a
// non-nil *Result with the best incumbent found, so callers can degrade
// to a valid (merely unproven) ordering. The portfolio always holds one:
// after an early stop it runs the heuristic phase under the same
// context, so after a deadline that phase stops at its first check and
// the incumbent is usually its starting (identity) ordering:
//
//	res, err := obddopt.Solve(ctx, f,
//	    obddopt.WithDeadline(100*time.Millisecond))
//	if errors.Is(err, obddopt.ErrCanceled) && res != nil {
//	    // use res.Ordering, exactness not proven
//	}
func Solve(ctx context.Context, tt *Table, opts ...Option) (*Result, error) {
	cfg := solveConfig{solver: "portfolio"}
	for _, o := range opts {
		o(&cfg)
	}
	if tt == nil {
		return nil, fmt.Errorf("%w: nil truth table", ErrInvalidInput)
	}
	solver, ok := core.LookupSolver(cfg.solver)
	if !ok {
		return nil, fmt.Errorf("%w: unknown solver %q (have %v)", ErrInvalidInput, cfg.solver, SolverNames())
	}
	ctx, cancel := applyDeadline(ctx, cfg.deadline)
	defer cancel()
	// Every Solve call runs under a request-scoped span: the caller's (a
	// server handler that already minted a request ID) or a fresh one, so
	// the run is attributable end to end. Span events and the per-solver
	// wall-time histogram are run-granular — they never touch the solver's
	// per-cell hot path.
	ctx, sp := obs.EnsureSpan(ctx)
	sp.Event("solver_start:" + cfg.solver) //lint:allow tracesafe EnsureSpan mints a span when the context has none, so sp is never nil
	start := time.Now()
	res, err := solver(ctx, tt, &cfg.opts)
	obs.Hist(obs.HistNameSolverWall, "solver", cfg.solver).RecordDuration(time.Since(start))
	if m := cfg.opts.Meter; m != nil {
		obs.Hist(obs.HistNameSolverCells, "solver", cfg.solver).Record(m.CellOps)
		obs.Hist(obs.HistNameSolverPeak, "solver", cfg.solver).Record(m.PeakCells)
	}
	sp.Event("solver_done:" + cfg.solver) //lint:allow tracesafe EnsureSpan mints a span when the context has none, so sp is never nil
	return res, err
}

// SolveArtifact is Solve additionally returning the solved function's
// compact OBDD artifact: the reduced diagram under the proven-optimal
// ordering, in the canonical level-indexed encoding of
// Artifact.Encode. It accepts the same options as Solve except that
// WithRule(ZDD) is ErrInvalidInput — artifacts are defined for the
// OBDD rule only. On early stops (ErrCanceled / ErrBudgetExceeded) the
// incumbent result comes back with a nil artifact: an unproven
// ordering's diagram is not a canonical artifact.
func SolveArtifact(ctx context.Context, tt *Table, opts ...Option) (*Result, *Artifact, error) {
	probe := solveConfig{}
	for _, o := range opts {
		o(&probe)
	}
	if probe.opts.Rule != core.OBDD {
		return nil, nil, fmt.Errorf("%w: artifacts are defined for the OBDD rule only", ErrInvalidInput)
	}
	res, err := Solve(ctx, tt, opts...)
	if err != nil {
		return res, nil, err
	}
	a, err := artifact.Build(tt, res.Ordering)
	if err != nil {
		return res, nil, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	return res, a, nil
}

// SolveShared is Solve for the multi-rooted (shared-forest) problem: the
// ordering minimizing the node count of the shared diagram of several
// functions over the same variables.
//
// Only the Friedman–Supowit dynamic program solves the shared problem.
// SolveShared runs it on the pipelined engine of the "parallel"
// solver, with the m roots' truth tables laid end to end in one base
// table, so it accepts a subset of Solve's options: WithRule,
// WithDeadline, WithBudget, WithMeter, WithTrace and WithSchedule
// (Workers 0 selects GOMAXPROCS, or one inline worker for small runs,
// as in Solve; every schedule is bit-identical to the serial shared DP),
// plus WithSolver("fs") as an explicit no-op. Any other WithSolver name
// returns ErrInvalidInput — an option that cannot take effect is
// rejected, never silently ignored. The early-stop contract matches
// Solve's, except the dynamic program carries no incumbent, so an early
// stop always returns a nil result with the error. As for the parallel
// solver, the engine's three-layer window can stop a run whose
// Budget.MaxCells the serial two-layer DP would meet.
func SolveShared(ctx context.Context, tts []*Table, opts ...Option) (*SharedResult, error) {
	var cfg solveConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.solver != "" && cfg.solver != "fs" {
		return nil, fmt.Errorf("%w: SolveShared supports only the dynamic program; WithSolver(%q) cannot take effect (omit the option or pass \"fs\")",
			ErrInvalidInput, cfg.solver)
	}
	if len(tts) == 0 {
		return nil, fmt.Errorf("%w: no truth tables", ErrInvalidInput)
	}
	n := -1
	for _, tt := range tts {
		if tt == nil {
			return nil, fmt.Errorf("%w: nil truth table", ErrInvalidInput)
		}
		if n >= 0 && tt.NumVars() != n {
			return nil, fmt.Errorf("%w: shared roots must have the same variable count", ErrInvalidInput)
		}
		n = tt.NumVars()
	}
	ctx, cancel := applyDeadline(ctx, cfg.deadline)
	defer cancel()
	return core.OptimalOrderingSharedParallel(ctx, tts, &cfg.opts)
}

// applyDeadline layers the WithDeadline option onto the caller's
// context. A nil ctx is normalized to context.Background before any
// other handling — previously a nil ctx with no deadline flowed through
// untouched and crashed the solver's first checkpoint.
func applyDeadline(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}
