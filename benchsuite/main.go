// Command benchsuite is the repository's workload benchmark. It measures
// the two entry points users call — obddopt.Solve with default options,
// and POST /v1/solve over loopback to an in-process obddd through the
// typed client — on four seeded traffic mixes, verifies every answer,
// and attributes the cost to the modules underneath in a separate traced
// run. BENCHMARK.json at the repository root describes it; README.md in
// this directory explains the workloads and metrics.
//
// Run it from the repository root:
//
//	bash benchsuite/run.sh --workload <name|all> --seed <n> [--seconds <s>] [--trace 0|1] [--spans <file>] [--record <file>]
//	bash benchsuite/run.sh --compare <before.jsonl> <after.jsonl>
//
// A run prints a human summary on standard error and, as the last line
// of standard output, one JSON object with the keys correct, attempted,
// failed and metrics: the end-to-end metrics, or with --trace 1 the
// per-layer ones. It exits nonzero when any answer fails verification.
// --record appends that object, tagged with workload and seed, to a
// JSON-lines file; --compare reads two such files and gives each
// (workload, metric) a verdict against the bounds in BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// resultLine is the machine-readable outcome of one run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one line of a --record file.
type record struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Trace    int        `json:"trace"`
	Result   resultLine `json:"result"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchsuite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 28, "length of the measured loop in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	spansPath := fs.String("spans", "", "where the traced run writes its spans (default .bench_build/spans-<workload>-<seed>.json)")
	recordPath := fs.String("record", "", "append each result line, tagged with workload and seed, to this JSON-lines file")
	compare := fs.Bool("compare", false, "compare two --record files: benchsuite --compare before.jsonl after.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchsuite: --compare needs two record files")
			return 2
		}
		return runCompare(stdout, stderr, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "benchsuite: usage: --workload <name|all> --seed <n> [--seconds <s>] [--trace 0|1]")
		return 2
	}
	var selected []*workload
	if *name == "all" {
		selected = workloads
	} else if w := workloadByName(*name); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "benchsuite: unknown workload %q (have all", *name)
		for _, w := range workloads {
			fmt.Fprintf(stderr, ", %s", w.name)
		}
		fmt.Fprintln(stderr, ")")
		return 2
	}

	cfg := defaultConfig(time.Duration(*seconds * float64(time.Second)))
	ctx := context.Background()
	status := 0
	for _, w := range selected {
		var (
			rep *report
			err error
		)
		if *trace == 1 {
			path := *spansPath
			if path == "" || len(selected) > 1 {
				path = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", w.name, *seed))
			}
			rep, err = runTraced(ctx, w, *seed, cfg, path)
		} else {
			rep, err = runTimed(ctx, w, *seed, cfg)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchsuite: %v\n", err)
			return 1
		}
		printSummary(stderr, rep, *seed, *trace == 1)
		line := resultLine{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
		for _, m := range rep.metrics {
			line.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
		}
		if *recordPath != "" {
			if err := appendRecord(*recordPath, record{Workload: w.name, Seed: *seed, Trace: *trace, Result: line}); err != nil {
				fmt.Fprintf(stderr, "benchsuite: %v\n", err)
				return 1
			}
		}
		data, err := json.Marshal(&line)
		if err != nil {
			fmt.Fprintf(stderr, "benchsuite: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(data))
		if !rep.correct {
			status = 1
		}
	}
	return status
}

func appendRecord(path string, rec record) error {
	data, err := json.Marshal(&rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("opening record file: %w", err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing record file: %w", err)
	}
	return f.Close()
}
