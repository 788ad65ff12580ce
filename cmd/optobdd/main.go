// Command optobdd computes an exact optimal variable ordering for a
// Boolean function using any registered solver: the Friedman–Supowit
// dynamic program (serial or parallel), branch-and-bound, divide-and-
// conquer, brute force, or the portfolio — the parallel DP, or
// heuristic-seeded branch-and-bound when -max-cells is below the DP's
// closed-form peak.
//
// Usage examples:
//
//	optobdd -expr 'x1 & x2 | x3 & x4 | x5 & x6' -n 6
//	optobdd -hex '3:e8' -solver brute
//	optobdd -circuit adder.ckt -output 2 -rule zdd -meter
//	optobdd -pla benchmark.pla -output 0 -solver bnb
//	optobdd -expr 'x1 ^ x2 ^ x3' -dot out.dot
//	optobdd -expr 'x1 & x2 | x3 & x4' -progress -json
//	optobdd -hex '4:cafe' -debug-addr localhost:6060
//	optobdd -expr '…' -n 14 -solver portfolio -deadline 100ms
//
// The function is given as exactly one of -expr (formula over x1, x2, …),
// -hex (truth-table literal "n:hexdigits"), -circuit (netlist file, see
// internal/circuit), or -pla (Berkeley/espresso two-level cover); -output
// selects the primary output for multi-output sources.
//
// Cancellation and budgets: -deadline bounds wall-clock time; -max-cells
// and -max-nodes bound space and work. When a limit stops the run early,
// solvers that carry an incumbent (bnb, brute, portfolio) report the best
// ordering found — flagged as not proven optimal — and the process exits
// zero; solvers without one (fs, parallel, dnc) fail with the error. The
// portfolio's incumbent after a deadline is the heuristic seeder's, which
// sees the same expired deadline and usually returns its starting
// ordering.
//
// Observability: -progress streams per-layer DP progress to stderr as the
// run advances; -json replaces the human-readable summary with one JSON
// run report (schema internal/obs.RunReport) on stdout; -debug-addr
// serves net/http/pprof and expvar metrics (/debug/vars) while running.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"obddopt/internal/circuit"
	"obddopt/internal/cliutil"
	"obddopt/internal/core"
	"obddopt/internal/expr"
	"obddopt/internal/obs"
	"obddopt/internal/pla"
	"obddopt/internal/truthtable"

	obddopt "obddopt"
)

// config carries all flag values plus the output streams, so tests can
// drive the tool end to end without touching process-global state.
type config struct {
	exprSrc  string
	nVars    int
	hexSrc   string
	circFile string
	plaFile  string
	outIdx   int
	algo     string // deprecated alias of flags.Solver
	ruleName string
	meter    bool
	dotFile  string
	bddFile  string
	progress bool
	jsonOut  bool
	flags    cliutil.SolverFlags
	stdout   io.Writer
	stderr   io.Writer
}

// solverName resolves the -solver / legacy -algo pair: -solver wins,
// then -algo, then the historical default "fs".
func (c *config) solverName() string {
	if s := strings.ToLower(c.flags.Solver); s != "" {
		return s
	}
	if s := strings.ToLower(c.algo); s != "" {
		return s
	}
	return "fs"
}

func main() {
	var cfg config
	flag.StringVar(&cfg.exprSrc, "expr", "", "Boolean formula over x1, x2, … (operators ! & ^ | -> <->)")
	flag.IntVar(&cfg.nVars, "n", 0, "variable count for -expr (default: highest variable used)")
	flag.StringVar(&cfg.hexSrc, "hex", "", "truth-table literal in n:hexdigits form")
	flag.StringVar(&cfg.circFile, "circuit", "", "netlist file (see internal/circuit format)")
	flag.StringVar(&cfg.plaFile, "pla", "", "PLA (espresso) file")
	flag.IntVar(&cfg.outIdx, "output", 0, "primary output index for -circuit")
	flag.StringVar(&cfg.algo, "algo", "", "deprecated alias of -solver")
	cfg.flags.Register(flag.CommandLine, "")
	flag.StringVar(&cfg.ruleName, "rule", "obdd", "diagram rule: obdd | zdd")
	flag.BoolVar(&cfg.meter, "meter", false, "print operation counts")
	flag.StringVar(&cfg.dotFile, "dot", "", "write the minimum diagram in Graphviz format to this file")
	flag.StringVar(&cfg.bddFile, "emit-bdd", "", "write the minimum diagram as a compact binary OBDD artifact to this file")
	flag.BoolVar(&cfg.progress, "progress", false, "stream per-layer progress to stderr")
	flag.BoolVar(&cfg.jsonOut, "json", false, "emit a JSON run report on stdout instead of the text summary")
	shared := flag.Bool("shared", false, "optimize all outputs of a -circuit/-pla source as one shared forest")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and /debug/vars on this address (e.g. localhost:6060)")
	flag.Parse()
	cfg.stdout, cfg.stderr = os.Stdout, os.Stderr

	if *debugAddr != "" {
		addr, err := obs.StartDebugServer(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "optobdd:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "optobdd: debug server on http://%s/debug/pprof/ and /debug/vars\n", addr)
	}

	var err error
	if *shared {
		err = cfg.runShared()
	} else {
		err = cfg.run()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "optobdd:", err)
		os.Exit(1)
	}
}

// tracer assembles the run's tracer chain: a Collector when a JSON report
// is requested, a live Progress renderer when -progress is set. The
// returned Tracer is nil when neither is active (the zero-cost path).
func (c *config) tracer() (*obs.Collector, obs.Tracer) {
	var chain []obs.Tracer
	var col *obs.Collector
	if c.jsonOut {
		col = obs.NewCollector()
		chain = append(chain, col)
	}
	if c.progress {
		chain = append(chain, obs.NewProgress(c.stderr))
	}
	return col, obs.Multi(chain...)
}

// emitReport fills the run-identification fields and writes the report as
// indented JSON to stdout.
func (c *config) emitReport(rep *obs.RunReport, elapsed time.Duration) error {
	rep.Tool = "optobdd"
	rep.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	rep.Metrics = obs.MetricsSnapshot()
	enc := json.NewEncoder(c.stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func (c *config) run() error {
	tt, err := loadFunction(c.exprSrc, c.nVars, c.hexSrc, c.circFile, c.plaFile, c.outIdx)
	if err != nil {
		return err
	}

	rule, err := parseRule(c.ruleName)
	if err != nil {
		return err
	}

	name := c.solverName()
	solver, ok := core.LookupSolver(name)
	if !ok {
		return fmt.Errorf("unknown solver %q (have %s)", name, strings.Join(core.SolverNames(), ", "))
	}

	col, tr := c.tracer()
	meter := &core.Meter{}
	ctx, cancel := c.flags.Context()
	defer cancel()
	start := time.Now()
	runOpts := &core.SolveOptions{
		Rule:   rule,
		Meter:  meter,
		Trace:  tr,
		Budget: c.flags.Budget(),
	}
	c.flags.Schedule(runOpts)
	res, runErr := solver(ctx, tt, runOpts)
	elapsed := time.Since(start)
	if runErr != nil {
		if res == nil {
			return runErr
		}
		// Degrade gracefully: report the incumbent, flagged as unproven.
		fmt.Fprintf(c.stderr, "optobdd: %v — reporting best incumbent, optimality NOT proven\n", runErr)
	}

	if c.jsonOut {
		rep := col.Report()
		rep.Algorithm = name
		rep.Rule = res.Rule.String()
		rep.N = res.N
		rep.Meter = meter
		rep.Result = res
		if runErr != nil {
			rep.Details = map[string]string{"stopped_early": runErr.Error()}
		}
		if err := c.emitReport(rep, elapsed); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(c.stdout, "function:        %d variables, %d satisfying assignments\n", tt.NumVars(), tt.CountOnes())
		fmt.Fprintf(c.stdout, "solver:          %s\n", name)
		fmt.Fprintf(c.stdout, "rule:            %s\n", res.Rule)
		sizeLabel, ordLabel := "minimum size:   ", "optimal ordering"
		if runErr != nil {
			sizeLabel, ordLabel = "incumbent size: ", "best ordering   "
		}
		fmt.Fprintf(c.stdout, "%s %s (read first → last)\n", ordLabel, res.Ordering)
		fmt.Fprintf(c.stdout, "%s %d nodes (%d nonterminal + %d terminal)\n", sizeLabel, res.Size, res.MinCost, res.Terminals)
		fmt.Fprintf(c.stdout, "level widths:    %v (bottom-up)\n", res.Profile)
		if c.meter {
			fmt.Fprintf(c.stdout, "meter:           %d cell ops, %d compactions, peak %d cells, %d evaluations\n",
				meter.CellOps, meter.Compactions, meter.PeakCells, meter.Evaluations)
		}
	}
	if c.dotFile != "" {
		if rule != core.OBDD {
			return fmt.Errorf("-dot supports the OBDD rule only")
		}
		m, root := obddopt.BuildBDD(tt, res.Ordering)
		if err := os.WriteFile(c.dotFile, []byte(m.DOT(root, "optobdd")), 0o644); err != nil {
			return err
		}
		if !c.jsonOut {
			fmt.Fprintf(c.stdout, "wrote diagram:   %s\n", c.dotFile)
		}
	}
	if c.bddFile != "" {
		if rule != core.OBDD {
			return fmt.Errorf("-emit-bdd supports the OBDD rule only")
		}
		if runErr != nil {
			return fmt.Errorf("-emit-bdd refuses an unproven incumbent ordering: %v", runErr)
		}
		a, err := obddopt.BuildArtifact(tt, res.Ordering)
		if err != nil {
			return err
		}
		enc := a.Encode()
		if err := os.WriteFile(c.bddFile, enc, 0o644); err != nil {
			return err
		}
		if !c.jsonOut {
			fmt.Fprintf(c.stdout, "wrote artifact:  %s (%d bytes, %d nodes, %d satisfying)\n",
				c.bddFile, len(enc), a.NodeCount(), a.SatCount())
		}
	}
	return nil
}

// runShared optimizes all outputs of a multi-output source jointly, on
// the work-stealing DP engine under the -workers / -shard-bits / -pinned
// schedule.
func (c *config) runShared() error {
	var tts []*truthtable.Table
	switch {
	case c.circFile != "" && c.plaFile == "":
		f, err := os.Open(c.circFile)
		if err != nil {
			return err
		}
		defer f.Close()
		ck, err := circuit.Parse(f)
		if err != nil {
			return err
		}
		for i := range ck.Outputs {
			tts = append(tts, ck.OutputTable(i))
		}
	case c.plaFile != "" && c.circFile == "":
		f, err := os.Open(c.plaFile)
		if err != nil {
			return err
		}
		defer f.Close()
		p, err := pla.Parse(f)
		if err != nil {
			return err
		}
		tts = p.Tables()
	default:
		return fmt.Errorf("-shared needs exactly one of -circuit or -pla")
	}
	rule, err := parseRule(c.ruleName)
	if err != nil {
		return err
	}
	col, tr := c.tracer()
	meter := &core.Meter{}
	ctx, cancel := c.flags.Context()
	defer cancel()
	start := time.Now()
	opts := &core.SolveOptions{Rule: rule, Meter: meter, Trace: tr, Budget: c.flags.Budget()}
	c.flags.Schedule(opts)
	res, err := core.OptimalOrderingSharedParallel(ctx, tts, opts)
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	if c.jsonOut {
		rep := col.Report()
		rep.Algorithm = "shared"
		rep.Rule = res.Rule.String()
		rep.N = res.N
		rep.Meter = meter
		rep.Result = res
		return c.emitReport(rep, elapsed)
	}
	fmt.Fprintf(c.stdout, "shared forest:   %d roots over %d variables\n", res.Roots, res.N)
	fmt.Fprintf(c.stdout, "rule:            %s\n", res.Rule)
	fmt.Fprintf(c.stdout, "optimal ordering %s (read first → last)\n", res.Ordering)
	fmt.Fprintf(c.stdout, "minimum size:    %d nodes (%d nonterminal + %d terminal)\n", res.Size, res.MinCost, res.Terminals)
	fmt.Fprintf(c.stdout, "level widths:    %v (bottom-up)\n", res.Profile)
	if c.meter {
		fmt.Fprintf(c.stdout, "meter:           %d cell ops, %d compactions, peak %d cells\n",
			meter.CellOps, meter.Compactions, meter.PeakCells)
	}
	return nil
}

func parseRule(name string) (core.Rule, error) { return cliutil.ParseRule(name) }

func loadFunction(exprSrc string, nVars int, hexSrc, circFile, plaFile string, outIdx int) (*truthtable.Table, error) {
	sources := 0
	for _, s := range []string{exprSrc, hexSrc, circFile, plaFile} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("give exactly one of -expr, -hex, -circuit, -pla")
	}
	switch {
	case exprSrc != "":
		e, err := expr.Parse(exprSrc)
		if err != nil {
			return nil, err
		}
		n := nVars
		if n == 0 {
			n = e.MaxVar() + 1
		}
		if n < 1 {
			return nil, fmt.Errorf("expression uses no variables; pass -n")
		}
		return expr.ToTruthTable(e, n)
	case hexSrc != "":
		return truthtable.ParseHex(hexSrc)
	case plaFile != "":
		f, err := os.Open(plaFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		p, err := pla.Parse(f)
		if err != nil {
			return nil, err
		}
		if outIdx < 0 || outIdx >= p.NumOutputs {
			return nil, fmt.Errorf("PLA has %d outputs; -output %d out of range", p.NumOutputs, outIdx)
		}
		return p.OutputTable(outIdx), nil
	default:
		f, err := os.Open(circFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		ck, err := circuit.Parse(f)
		if err != nil {
			return nil, err
		}
		if outIdx < 0 || outIdx >= len(ck.Outputs) {
			return nil, fmt.Errorf("circuit has %d outputs; -output %d out of range", len(ck.Outputs), outIdx)
		}
		return ck.OutputTable(outIdx), nil
	}
}
