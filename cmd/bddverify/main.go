// Command bddverify is the one-command correctness gate: it replays the
// golden corpus of known-optimal orderings, runs the metamorphic oracle
// suite over every registered solver, and drives a fault-injected chaos
// round against an in-process obddd server. A zero exit means zero
// violations; any failure prints the seed that reproduces it.
//
// Usage:
//
//	bddverify [-seed N] [-duration 30s] [-solvers fs,brute] [-chaos 200] [-json]
//	bddverify -gen [-golden path]   # regenerate the corpus (maintainers)
//
// With -duration the tool loops — a fresh seed per iteration — until the
// budget expires: the CI soak mode.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"obddopt/internal/conformance"
	"obddopt/internal/obs"

	_ "obddopt/internal/heuristics" // installs the portfolio's default seeder
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	seed       int64
	duration   time.Duration
	solvers    []string
	chaos      int
	tables     int
	jsonOut    bool
	gen        bool
	golden     string
	allowDrift bool
}

// verifySummary is the Details payload of the -json run report.
type verifySummary struct {
	Seed          int64    `json:"seed"`
	Iterations    int      `json:"iterations"`
	Solvers       []string `json:"solvers"`
	SuiteChecks   int      `json:"suite_checks"`
	GoldenEntries int      `json:"golden_entries"`
	GoldenChecks  int      `json:"golden_checks"`
	ChaosRequests int      `json:"chaos_requests"`
	Violations    []string `json:"violations,omitempty"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bddverify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{}
	var solversCSV string
	fs.Int64Var(&cfg.seed, "seed", 1, "master seed; every table draw, property and fault derives from it")
	fs.DurationVar(&cfg.duration, "duration", 0, "soak budget: loop with fresh seeds until it expires (0 = one pass)")
	fs.StringVar(&solversCSV, "solvers", "", "comma-separated solver names (default: all registered)")
	fs.IntVar(&cfg.chaos, "chaos", 200, "fault-injected requests per chaos round (0 disables chaos)")
	fs.IntVar(&cfg.tables, "tables", 2, "tables per family in the metamorphic suite")
	fs.BoolVar(&cfg.jsonOut, "json", false, "emit a machine-readable run report")
	fs.BoolVar(&cfg.gen, "gen", false, "regenerate the golden corpus and write it to -golden")
	fs.StringVar(&cfg.golden, "golden", "", "corpus path (default: the embedded testdata/golden.json)")
	fs.BoolVar(&cfg.allowDrift, "allow-drift", false, "let -gen overwrite entries whose pinned artifact digest changed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if solversCSV != "" {
		for _, s := range strings.Split(solversCSV, ",") {
			if s = strings.TrimSpace(s); s != "" {
				cfg.solvers = append(cfg.solvers, s)
			}
		}
	}

	if cfg.gen {
		return generate(ctx, cfg, stdout, stderr)
	}
	return verify(ctx, cfg, stdout, stderr)
}

func generate(ctx context.Context, cfg config, stdout, stderr io.Writer) int {
	path := cfg.golden
	if path == "" {
		path = "internal/conformance/testdata/golden.json"
	}
	entries, err := conformance.GenerateGolden(ctx)
	if err != nil {
		fmt.Fprintf(stderr, "bddverify: generate: %v\n", err)
		return 1
	}
	// Digest-drift gate: a regenerated entry whose (table, rule) already
	// carries a pinned artifact digest must reproduce it bit for bit.
	// Artifact bytes are a pure function of (function, ordering), so
	// drift means the wire format or the canonical solve ordering moved —
	// a contract change that demands an explicit -allow-drift, never a
	// silent overwrite.
	if prev, err := conformance.LoadGolden(path); err == nil {
		drifted := driftedEntries(prev, entries)
		if len(drifted) > 0 && !cfg.allowDrift {
			for _, d := range drifted {
				fmt.Fprintf(stderr, "bddverify: artifact digest drift: %s\n", d)
			}
			fmt.Fprintf(stderr, "bddverify: refusing to overwrite %s (%d drifted entries); rerun with -allow-drift to accept the new digests\n",
				path, len(drifted))
			return 1
		}
		if len(drifted) > 0 {
			fmt.Fprintf(stderr, "bddverify: accepting %d drifted artifact digest(s) (-allow-drift)\n", len(drifted))
		}
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "bddverify: encode: %v\n", err)
		return 1
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(stderr, "bddverify: write: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "bddverify: wrote %d verified entries to %s\n", len(entries), path)
	return 0
}

// driftedEntries compares pinned artifact digests between the corpus on
// disk and a fresh regeneration, keyed by (table, rule). Entries without
// a previous pin (a corpus predating the artifact fields, or a brand-new
// table) never count as drift.
func driftedEntries(prev, next []conformance.GoldenEntry) []string {
	pinned := make(map[string]string, len(prev))
	for _, e := range prev {
		if e.ArtifactSHA256 != "" {
			pinned[e.Table+"|"+e.Rule] = e.ArtifactSHA256
		}
	}
	var drifted []string
	for _, e := range next {
		if want, ok := pinned[e.Table+"|"+e.Rule]; ok && want != e.ArtifactSHA256 {
			drifted = append(drifted, fmt.Sprintf("%s %s: pinned %s, regenerated %s", e.Table, e.Rule, want, e.ArtifactSHA256))
		}
	}
	return drifted
}

func verify(ctx context.Context, cfg config, stdout, stderr io.Writer) int {
	start := time.Now()
	var entries []conformance.GoldenEntry
	var err error
	if cfg.golden != "" {
		entries, err = conformance.LoadGolden(cfg.golden)
	} else {
		entries, err = conformance.DefaultGolden()
	}
	if err != nil {
		fmt.Fprintf(stderr, "bddverify: %v\n", err)
		return 1
	}

	sum := verifySummary{Seed: cfg.seed, Solvers: cfg.solvers, GoldenEntries: len(entries)}
	for iter := 0; iter == 0 || (cfg.duration > 0 && time.Since(start) < cfg.duration); iter++ {
		if ctx.Err() != nil {
			break
		}
		iterSeed := cfg.seed + int64(iter)
		sum.Iterations++

		grep, err := conformance.VerifyGolden(ctx, entries, cfg.solvers)
		if err != nil {
			break // context death; partial results stand
		}
		sum.GoldenChecks += grep.Checks
		for _, v := range grep.Violations {
			sum.Violations = append(sum.Violations, fmt.Sprintf("[golden seed=%d] %s %s solver=%s: %s",
				iterSeed, v.Entry.Table, v.Entry.Rule, v.Solver, v.Err))
		}

		srep, err := conformance.RunSuite(ctx, conformance.SuiteConfig{
			Seed: iterSeed, Solvers: cfg.solvers, TablesPerFamily: cfg.tables,
		})
		if err != nil {
			break
		}
		sum.SuiteChecks += srep.Checks
		for _, v := range srep.Violations {
			sum.Violations = append(sum.Violations, fmt.Sprintf("[suite seed=%d] %s", iterSeed, v))
		}

		if cfg.chaos > 0 {
			crep, err := conformance.RunChaos(ctx, conformance.ChaosConfig{Seed: iterSeed, Requests: cfg.chaos})
			if err != nil {
				fmt.Fprintf(stderr, "bddverify: chaos harness: %v\n", err)
				return 1
			}
			sum.ChaosRequests += crep.Requests
			for _, v := range crep.Violations {
				sum.Violations = append(sum.Violations, fmt.Sprintf("[chaos seed=%d] %s", iterSeed, v))
			}
		}
	}

	if cfg.jsonOut {
		report := &obs.RunReport{Tool: "bddverify", ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond), Details: sum}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(stderr, "bddverify: encode: %v\n", err)
			return 1
		}
	} else {
		fmt.Fprintf(stdout, "bddverify: seed=%d iterations=%d golden=%d entries/%d checks suite=%d checks chaos=%d requests elapsed=%s\n",
			cfg.seed, sum.Iterations, sum.GoldenEntries, sum.GoldenChecks, sum.SuiteChecks, sum.ChaosRequests,
			time.Since(start).Round(time.Millisecond))
		for _, v := range sum.Violations {
			fmt.Fprintf(stdout, "VIOLATION %s\n", v)
		}
	}
	if len(sum.Violations) > 0 {
		fmt.Fprintf(stderr, "bddverify: %d violation(s); reproduce with -seed %d\n", len(sum.Violations), cfg.seed)
		return 1
	}
	return 0
}
