// Package cliutil holds the flag plumbing shared by the command-line
// tools: the -solver selection resolved through core's named-solver
// registry, the -deadline / budget flags feeding the cancellable Solve
// API, and the -rule parser. Keeping it in one place guarantees optobdd
// and bddbench accept the same names with the same semantics.
package cliutil

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"obddopt/internal/core"
	_ "obddopt/internal/heuristics" // installs the portfolio's default seeder
	"obddopt/internal/obs"
	"obddopt/internal/server"
)

// SolverFlags is the shared flag block for choosing and bounding a
// solver run. Register it on a FlagSet (or flag.CommandLine), then call
// Resolve / Context / Budget after parsing.
type SolverFlags struct {
	Solver   string
	Deadline time.Duration
	MaxCells uint64
	MaxNodes uint64
	// The parallel schedule (see core.SolveOptions): worker count and
	// shard granularity of the pipelined DP.
	Workers   int
	ShardBits int
}

// Register declares the shared flags on fs. defaultSolver is the value
// used when -solver is not given (empty keeps the flag optional so a
// legacy alias like optobdd's -algo can take precedence).
func (f *SolverFlags) Register(fs *flag.FlagSet, defaultSolver string) {
	fs.StringVar(&f.Solver, "solver", defaultSolver,
		"solver: "+strings.Join(core.SolverNames(), " | "))
	fs.DurationVar(&f.Deadline, "deadline", 0,
		"wall-clock limit; on expiry the run stops with the best incumbent (0 = none)")
	fs.Uint64Var(&f.MaxCells, "max-cells", 0,
		"budget: max live DP table cells (0 = unlimited)")
	fs.Uint64Var(&f.MaxNodes, "max-nodes", 0,
		"budget: max DP transitions / search-node expansions (0 = unlimited)")
	fs.IntVar(&f.Workers, "workers", 0,
		"parallel schedule: worker goroutines (0 = GOMAXPROCS)")
	fs.IntVar(&f.ShardBits, "shard-bits", 0,
		"parallel schedule: 2^bits lattice ranks per shard (0 = auto)")
}

// Schedule copies the -workers / -shard-bits flags into opts.
func (f *SolverFlags) Schedule(opts *core.SolveOptions) {
	opts.Workers = f.Workers
	opts.ShardBits = f.ShardBits
}

// Resolve looks the chosen solver up in the registry, returning the
// solver, its normalized name, and a listing error on unknown names.
func (f *SolverFlags) Resolve() (core.Solver, string, error) {
	name := strings.ToLower(f.Solver)
	s, ok := core.LookupSolver(name)
	if !ok {
		return nil, name, fmt.Errorf("unknown solver %q (have %s)",
			f.Solver, strings.Join(core.SolverNames(), ", "))
	}
	return s, name, nil
}

// Context returns the run context implied by -deadline; the caller must
// invoke the cancel function when the run ends.
func (f *SolverFlags) Context() (context.Context, context.CancelFunc) {
	if f.Deadline <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), f.Deadline)
}

// Budget returns the resource budget implied by the -max-* flags.
func (f *SolverFlags) Budget() core.Budget {
	return core.Budget{MaxCells: f.MaxCells, MaxNodes: f.MaxNodes}
}

// ServeFlags is the flag block sizing the obddd network service's
// admission control and result cache. Register it on a FlagSet, then
// pass Config() to server.New after parsing.
type ServeFlags struct {
	Addr            string
	Workers         int
	QueueDepth      int
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	MaxCells        uint64
	MaxNodes        uint64
	MaxVars         int
	CacheMB         int64
	RetryAfter      time.Duration
	DrainTimeout    time.Duration
	AccessLog       bool
}

// Register declares the serving flags on fs. Zero values defer to the
// server's production defaults (workers = GOMAXPROCS, queue = 4×workers,
// 30s deadline cap, 64 MiB cache).
func (f *ServeFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Addr, "addr", ":8344", "listen address")
	fs.IntVar(&f.Workers, "workers", 0,
		"max concurrent solver runs (0 = GOMAXPROCS)")
	fs.IntVar(&f.QueueDepth, "queue", 0,
		"max requests waiting for a worker before 429 (0 = 4x workers)")
	fs.DurationVar(&f.DefaultDeadline, "default-deadline", 0,
		"deadline applied to requests that set none (0 = the -max-deadline cap)")
	fs.DurationVar(&f.MaxDeadline, "max-deadline", 0,
		"cap on per-request deadlines (0 = 30s, negative = uncapped)")
	fs.Uint64Var(&f.MaxCells, "max-cells", 0,
		"cap on per-request live DP cell budgets (0 = uncapped)")
	fs.Uint64Var(&f.MaxNodes, "max-nodes", 0,
		"cap on per-request node-expansion budgets (0 = uncapped)")
	fs.IntVar(&f.MaxVars, "max-vars", 0,
		"largest accepted variable count (0 = the engine limit)")
	fs.Int64Var(&f.CacheMB, "cache-mb", 0,
		"result cache size in MiB (0 = 64, negative = disabled)")
	fs.DurationVar(&f.RetryAfter, "retry-after", 0,
		"Retry-After hint on 429 responses (0 = 1s)")
	fs.DurationVar(&f.DrainTimeout, "drain-timeout", 10*time.Second,
		"max wait for in-flight solves on shutdown")
	fs.BoolVar(&f.AccessLog, "access-log", false,
		"write one JSON access-log line per request to stderr (request ID, route, status, queue wait, solve time, cache outcome)")
}

// Config resolves the flags to a server configuration; tr (optional)
// receives every request's solver events, and accessLog is the sink
// -access-log enables (typically os.Stderr; ignored unless the flag is
// set).
func (f *ServeFlags) Config(tr obs.Tracer, accessLog io.Writer) server.Config {
	cfg := server.Config{
		Workers:         f.Workers,
		QueueDepth:      f.QueueDepth,
		DefaultDeadline: f.DefaultDeadline,
		MaxDeadline:     f.MaxDeadline,
		MaxBudget:       core.Budget{MaxCells: f.MaxCells, MaxNodes: f.MaxNodes},
		MaxVars:         f.MaxVars,
		CacheBytes:      f.CacheMB << 20,
		RetryAfter:      f.RetryAfter,
		Trace:           tr,
	}
	if f.AccessLog {
		cfg.AccessLog = accessLog
	}
	return cfg
}

// ParseRule maps a -rule flag value to the diagram rule; unknown names
// surface core's typed *UnknownRuleError.
func ParseRule(name string) (core.Rule, error) {
	return core.ParseRule(name)
}
