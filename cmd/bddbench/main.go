// Command bddbench regenerates the evaluation tables and figures
// (experiments E1–E14 of DESIGN.md) and benchmarks individual solvers
// from the named-solver registry.
//
// Usage:
//
//	bddbench            # list experiments
//	bddbench -exp E4    # run one experiment at full size
//	bddbench -exp all   # run everything (minutes)
//	bddbench -exp all -quick -seed 7
//	bddbench -exp E2 -json          # machine-readable per-experiment reports
//	bddbench -exp all -progress     # live per-experiment status on stderr
//	bddbench -exp E5 -debug-addr localhost:6060
//	bddbench -solver portfolio -n 12 -reps 3      # time one solver
//	bddbench -solver fs -n 14 -deadline 100ms     # deadline behavior
//	bddbench -trajectory -json > BENCH.json       # solver x n sweep artifact
//	bddbench -compare old.json new.json           # diff artifacts; nonzero on regression or min_cost mismatch
//
// Observability: -json wraps each experiment in a run report (schema
// internal/obs.RunReport) carrying wall time, the experiment's table text
// in `details`, and the delta of the process-wide obs metrics counters
// (cell ops, compactions, evaluations, …) attributable to that
// experiment; the reports are emitted as one JSON array on stdout.
// -progress announces each experiment on stderr as it starts and
// finishes. -debug-addr serves net/http/pprof and expvar (/debug/vars).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"obddopt/internal/cliutil"
	"obddopt/internal/core"
	"obddopt/internal/exp"
	"obddopt/internal/obs"
	"obddopt/internal/truthtable"
)

func main() {
	var (
		expID     = flag.String("exp", "", "experiment ID (E1..E18) or 'all'")
		seed      = flag.Int64("seed", 1, "random seed for workload generation")
		quick     = flag.Bool("quick", false, "shrink problem sizes (CI-friendly)")
		jsonOut   = flag.Bool("json", false, "emit one JSON run report per experiment (array on stdout)")
		progress  = flag.Bool("progress", false, "announce each experiment on stderr")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof and /debug/vars on this address")
		benchN    = flag.Int("n", 10, "variable count for -solver benchmark mode")
		reps      = flag.Int("reps", 3, "random functions per -solver benchmark run")
		ruleName  = flag.String("rule", "obdd", "diagram rule for -solver benchmark mode: obdd | zdd")

		trajectory = flag.Bool("trajectory", false, "sweep every registered solver over growing n under -time-cap; with -json, emit the trajectory artifact")
		compare    = flag.Bool("compare", false, "diff two trajectory artifacts given as positional args (old.json new.json); exit nonzero past -threshold")
		timeCap    = flag.Duration("time-cap", 0, "per-run wall cap in -trajectory mode (0 = 2s, or 300ms with -quick)")
		threshold  = flag.Float64("threshold", 1.5, "-compare regression threshold: flag points whose ns/op grew more than this factor")
		nsAdvisory = flag.Bool("ns-advisory", false, "-compare: report ns/op regressions without failing; only max-feasible-n drops exit nonzero")
		maxN       = flag.Int("max-n", 0, "largest variable count swept in -trajectory mode (0 = 16)")
	)
	var solverFlags cliutil.SolverFlags
	solverFlags.Register(flag.CommandLine, "")
	flag.Parse()
	if *debugAddr != "" {
		addr, err := obs.StartDebugServer(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bddbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bddbench: debug server on http://%s/debug/pprof/ and /debug/vars\n", addr)
	}
	var err error
	switch {
	case *compare:
		args := flag.Args()
		if len(args) != 2 {
			err = errors.New("-compare needs exactly two positional arguments: old.json new.json (flags must precede them)")
		} else {
			err = runCompare(os.Stdout, args[0], args[1], *threshold, *nsAdvisory)
		}
	case *trajectory:
		rule, rerr := cliutil.ParseRule(*ruleName)
		if rerr != nil {
			err = rerr
		} else {
			cfg := resolveTrajectoryConfig(*seed, *quick, *timeCap, *maxN, rule)
			err = runTrajectory(os.Stdout, os.Stderr, cfg, *jsonOut, *progress)
		}
	case solverFlags.Solver != "":
		err = runSolverBench(os.Stdout, solverFlags, *benchN, *reps, *ruleName, *seed)
	default:
		err = runMain(os.Stdout, os.Stderr, *expID, *seed, *quick, *jsonOut, *progress)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bddbench:", err)
		os.Exit(1)
	}
}

// runSolverBench is the -solver benchmark mode: it times one registered
// solver on reps uniformly random functions of n variables — the same
// registry and flag semantics as optobdd's -solver, so solvers can be
// compared across tools on identical names. Runs that hit the -deadline
// or budget count as timeouts; an incumbent-carrying timeout still
// reports its (unproven) cost.
func runSolverBench(stdout io.Writer, flags cliutil.SolverFlags, n, reps int, ruleName string, seed int64) error {
	solver, name, err := flags.Resolve()
	if err != nil {
		return err
	}
	rule, err := cliutil.ParseRule(ruleName)
	if err != nil {
		return err
	}
	if n < 1 || n > truthtable.MaxVars {
		return fmt.Errorf("-n %d out of range [1,%d]", n, truthtable.MaxVars)
	}
	if reps < 1 {
		return fmt.Errorf("-reps must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	fmt.Fprintf(stdout, "solver %s, rule %s, %d random functions of n=%d (seed %d)\n",
		name, rule, reps, n, seed)
	var total time.Duration
	for i := 0; i < reps; i++ {
		tt := truthtable.Random(n, rng)
		ctx, cancel := flags.Context()
		start := time.Now()
		runOpts := &core.SolveOptions{Rule: rule, Budget: flags.Budget()}
		flags.Schedule(runOpts)
		res, runErr := solver(ctx, tt, runOpts)
		elapsed := time.Since(start)
		cancel()
		total += elapsed
		switch {
		case runErr == nil:
			fmt.Fprintf(stdout, "  rep %d: cost %d in %v\n", i+1, res.MinCost, elapsed.Round(time.Microsecond))
		case res != nil:
			fmt.Fprintf(stdout, "  rep %d: stopped early (%v), incumbent cost %d after %v\n",
				i+1, shortErr(runErr), res.MinCost, elapsed.Round(time.Microsecond))
		default:
			fmt.Fprintf(stdout, "  rep %d: stopped early (%v), no incumbent, after %v\n",
				i+1, shortErr(runErr), elapsed.Round(time.Microsecond))
		}
	}
	fmt.Fprintf(stdout, "mean wall time: %v\n", (total / time.Duration(reps)).Round(time.Microsecond))
	return nil
}

// shortErr collapses wrapped sentinel errors to their bare names for
// compact benchmark lines.
func shortErr(err error) error {
	switch {
	case errors.Is(err, core.ErrCanceled):
		return core.ErrCanceled
	case errors.Is(err, core.ErrBudgetExceeded):
		return core.ErrBudgetExceeded
	default:
		return err
	}
}

// runMain dispatches one invocation; factored out of main for testing.
func runMain(stdout, stderr io.Writer, expID string, seed int64, quick, jsonOut, progress bool) error {
	cfg := exp.Config{Seed: seed, Quick: quick}
	if expID == "" {
		fmt.Fprintln(stdout, "available experiments (run with -exp <id> or -exp all):")
		for _, id := range exp.IDs() {
			desc, _ := exp.Describe(id)
			fmt.Fprintf(stdout, "  %-4s %s\n", id, desc)
		}
		return nil
	}

	ids := []string{expID}
	if expID == "all" {
		ids = exp.IDs()
	}

	var reports []*obs.RunReport
	for _, id := range ids {
		if progress {
			desc, _ := exp.Describe(id)
			fmt.Fprintf(stderr, "[bddbench] %s: %s ...\n", id, desc)
		}
		out := stdout
		var buf bytes.Buffer
		if jsonOut {
			out = &buf
		}
		before := obs.MetricsSnapshot()
		start := time.Now()
		err := exp.Run(id, out, cfg)
		elapsed := time.Since(start)
		if err != nil {
			if expID == "all" {
				return fmt.Errorf("%s: %w", id, err)
			}
			return err
		}
		if progress {
			fmt.Fprintf(stderr, "[bddbench] %s: done in %s\n", id, elapsed.Round(time.Millisecond))
		}
		if jsonOut {
			desc, _ := exp.Describe(id)
			reports = append(reports, &obs.RunReport{
				Tool:      "bddbench",
				Algorithm: id,
				ElapsedMS: float64(elapsed) / float64(time.Millisecond),
				Metrics:   obs.MetricsDelta(before, obs.MetricsSnapshot()),
				Details: map[string]string{
					"description": desc,
					"output":      buf.String(),
				},
			})
		} else if expID == "all" {
			fmt.Fprintln(stdout)
		}
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(reports)
	}
	return nil
}
