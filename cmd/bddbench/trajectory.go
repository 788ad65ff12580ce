package main

// Benchmark trajectory mode: a fixed-seed sweep of every registered
// solver over growing variable counts under a per-point time cap,
// emitted as a committed JSON artifact (BENCH_<pr>.json) so the repo
// carries its own performance history — each PR's numbers diff against
// the previous ones with `bddbench -compare old.json new.json`, which
// exits nonzero past a regression threshold. The workload is fully
// deterministic: one random function per (seed, n), shared by every
// solver, so points are comparable across solvers and across commits.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"

	"obddopt/internal/core"
	"obddopt/internal/truthtable"
)

// trajectorySchema versions the artifact; compare refuses to diff
// across schema changes.
const trajectorySchema = "obddopt/bench-trajectory/v1"

// TrajPoint is one (solver, rule, n) measurement.
type TrajPoint struct {
	Solver string `json:"solver"`
	Rule   string `json:"rule"`
	N      int    `json:"n"`
	// Reps is how many runs the point averaged over (adaptive: enough
	// runs to accumulate a minimum sample time, capped at 64).
	Reps int `json:"reps"`
	// NsPerOp is the mean wall time per solve in nanoseconds.
	NsPerOp int64 `json:"ns_per_op"`
	// CellOps / PeakCells are the metered table work and peak live cells
	// of the final rep.
	CellOps   uint64 `json:"cell_ops,omitempty"`
	PeakCells uint64 `json:"peak_cells,omitempty"`
	// MinCost is the solved optimum (or best incumbent on a timeout) —
	// a correctness tripwire: solvers must agree per (rule, n).
	MinCost uint64 `json:"min_cost,omitempty"`
	// TimedOut marks the point where the time cap stopped the solver;
	// the sweep for that solver ends here.
	TimedOut bool   `json:"timed_out,omitempty"`
	Err      string `json:"err,omitempty"`
}

// Trajectory is the committed artifact.
type Trajectory struct {
	Schema    string `json:"schema"`
	GitRev    string `json:"git_rev,omitempty"`
	Seed      int64  `json:"seed"`
	Quick     bool   `json:"quick,omitempty"`
	TimeCapMS int64  `json:"time_cap_ms"`
	// MaxFeasibleN maps solver -> largest n it finished inside the cap.
	MaxFeasibleN map[string]int `json:"max_feasible_n"`
	Points       []TrajPoint    `json:"points"`
}

// trajectoryConfig bundles the sweep parameters after flag resolution.
type trajectoryConfig struct {
	seed      int64
	quick     bool
	timeCap   time.Duration
	maxN      int
	rule      core.Rule
	minSample time.Duration
	maxReps   int
}

// resolveTrajectoryConfig applies the quick/full defaults: quick keeps
// the sweep CI-sized (seconds), full gives stabler numbers.
func resolveTrajectoryConfig(seed int64, quick bool, timeCap time.Duration, maxN int, rule core.Rule) trajectoryConfig {
	c := trajectoryConfig{seed: seed, quick: quick, timeCap: timeCap, maxN: maxN, rule: rule,
		minSample: 30 * time.Millisecond, maxReps: 64}
	if quick {
		c.minSample = 10 * time.Millisecond
	}
	if c.timeCap <= 0 {
		c.timeCap = 2 * time.Second
		if quick {
			c.timeCap = 300 * time.Millisecond
		}
	}
	if c.maxN <= 0 {
		// High enough that the committed quick artifact records where
		// solvers actually stop under the cap (the work-stealing parallel
		// engine clears n=15 since the width-counting kernel), low enough
		// to stay CI-sized — the exponential solvers bail out at their
		// first over-cap point anyway.
		c.maxN = 16
	}
	if c.maxN > truthtable.MaxVars {
		c.maxN = truthtable.MaxVars
	}
	return c
}

// trajectoryStep densifies the sweep where each increment is decisive:
// steps of 2 through n=12 (the low points move together), then every n —
// the layer-DP solvers' max-feasible frontier sits above 12, and a
// 2-step would overshoot the time cap and under-report it.
func trajectoryStep(n int) int {
	if n >= 12 {
		return 1
	}
	return 2
}

// trajectoryTable is the shared workload: one fixed random function per
// (seed, n), identical for every solver at that point.
func trajectoryTable(seed int64, n int) *truthtable.Table {
	return truthtable.Random(n, rand.New(rand.NewSource(seed*1_000_003+int64(n))))
}

// runTrajectory sweeps every registered solver from n=4 upward in steps
// of 2 until the time cap stops it (or maxN is reached), and writes the
// Trajectory artifact (JSON) or a human table to stdout.
func runTrajectory(stdout, stderr io.Writer, cfg trajectoryConfig, jsonOut, progress bool) error {
	traj := &Trajectory{
		Schema:       trajectorySchema,
		GitRev:       gitRev(),
		Seed:         cfg.seed,
		Quick:        cfg.quick,
		TimeCapMS:    cfg.timeCap.Milliseconds(),
		MaxFeasibleN: map[string]int{},
	}
	for _, solverName := range core.SolverNames() {
		solver, _ := core.LookupSolver(solverName)
		for n := 4; n <= cfg.maxN; n += trajectoryStep(n) {
			if progress {
				fmt.Fprintf(stderr, "[bddbench] trajectory %s n=%d ...\n", solverName, n)
			}
			pt := measurePoint(solver, solverName, n, cfg)
			traj.Points = append(traj.Points, pt)
			if pt.TimedOut || pt.Err != "" {
				break
			}
			traj.MaxFeasibleN[solverName] = n
		}
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(traj)
	}
	printTrajectory(stdout, traj)
	return nil
}

// measurePoint times one solver on the fixed function of n variables:
// repeated runs until minSample of wall time accumulates (or maxReps),
// each run bounded by the time cap. A capped run marks the point timed
// out; any other error is recorded verbatim.
func measurePoint(solver core.Solver, solverName string, n int, cfg trajectoryConfig) TrajPoint {
	pt := TrajPoint{Solver: solverName, Rule: strings.ToLower(cfg.rule.String()), N: n}
	tt := trajectoryTable(cfg.seed, n)
	var total time.Duration
	for pt.Reps < cfg.maxReps && (pt.Reps == 0 || total < cfg.minSample) {
		m := &core.Meter{}
		ctx, cancel := context.WithTimeout(context.Background(), cfg.timeCap)
		start := time.Now()
		res, err := solver(ctx, tt, &core.SolveOptions{Rule: cfg.rule, Meter: m})
		elapsed := time.Since(start)
		cancel()
		total += elapsed
		pt.Reps++
		pt.CellOps = m.CellOps
		pt.PeakCells = m.PeakCells
		if res != nil {
			pt.MinCost = res.MinCost
		}
		if err != nil {
			if errors.Is(err, core.ErrCanceled) {
				pt.TimedOut = true
			} else {
				pt.Err = err.Error()
			}
			break
		}
	}
	pt.NsPerOp = (total / time.Duration(pt.Reps)).Nanoseconds()
	return pt
}

// printTrajectory renders the human-readable table.
func printTrajectory(w io.Writer, traj *Trajectory) {
	fmt.Fprintf(w, "benchmark trajectory (seed %d, cap %dms, rev %s)\n",
		traj.Seed, traj.TimeCapMS, orDash(traj.GitRev))
	fmt.Fprintf(w, "%-10s %-5s %3s %5s %14s %12s %12s %8s\n",
		"solver", "rule", "n", "reps", "ns/op", "cell_ops", "peak_cells", "status")
	for _, p := range traj.Points {
		status := "ok"
		if p.TimedOut {
			status = "timeout"
		} else if p.Err != "" {
			status = "error"
		}
		fmt.Fprintf(w, "%-10s %-5s %3d %5d %14d %12d %12d %8s\n",
			p.Solver, p.Rule, p.N, p.Reps, p.NsPerOp, p.CellOps, p.PeakCells, status)
	}
	solvers := make([]string, 0, len(traj.MaxFeasibleN))
	for s := range traj.MaxFeasibleN {
		solvers = append(solvers, s)
	}
	sort.Strings(solvers)
	for _, s := range solvers {
		fmt.Fprintf(w, "max feasible n: %-10s %d\n", s, traj.MaxFeasibleN[s])
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// gitRev stamps the artifact with the working tree's short revision;
// best-effort (empty outside a git checkout).
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// loadTrajectory reads and schema-checks one artifact.
func loadTrajectory(path string) (*Trajectory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t Trajectory
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if t.Schema != trajectorySchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, t.Schema, trajectorySchema)
	}
	return &t, nil
}

// errRegression distinguishes "the comparison itself worked but found
// regressions" (exit nonzero in main) from operational failures.
var errRegression = errors.New("bddbench: benchmark regression past threshold")

// runCompare diffs two trajectory artifacts: points are joined on
// (solver, rule, n) — points present in only one file (different sweep
// depth, timeouts) are skipped — and a completed point whose ns/op grew
// by more than threshold× is a regression, as is a solver whose
// max-feasible-n shrank. MinCost is a correctness tripwire: a completed
// point whose min_cost differs from the old artifact's, or from another
// solver's at the same (rule, n) in the new artifact, is a mismatch
// (timed-out points carry unproven incumbents and are skipped). Returns
// errRegression when any regression or mismatch was found.
//
// With nsAdvisory, ns/op growth is still reported but never fails the
// comparison; max-feasible-n drops and min_cost mismatches still do. This
// is the CI gate mode: feasibility and optima are machine-independent (a
// solver either finishes inside the cap or it does not, and exact
// solvers agree), while ns/op on shared runners is too noisy to block
// merges on.
func runCompare(stdout io.Writer, oldPath, newPath string, threshold float64, nsAdvisory bool) error {
	if threshold <= 1 {
		return fmt.Errorf("-threshold must be > 1 (got %g)", threshold)
	}
	oldT, err := loadTrajectory(oldPath)
	if err != nil {
		return err
	}
	newT, err := loadTrajectory(newPath)
	if err != nil {
		return err
	}
	type key struct {
		solver, rule string
		n            int
	}
	oldPts := map[key]TrajPoint{}
	for _, p := range oldT.Points {
		oldPts[key{p.Solver, p.Rule, p.N}] = p
	}
	regressions := 0
	compared := 0
	mode := ""
	if nsAdvisory {
		mode = " (ns/op advisory)"
	}
	fmt.Fprintf(stdout, "comparing %s (rev %s) -> %s (rev %s), threshold %.2fx%s\n",
		oldPath, orDash(oldT.GitRev), newPath, orDash(newT.GitRev), threshold, mode)
	type slice struct {
		rule string
		n    int
	}
	optimum := map[slice]TrajPoint{} // first completed point per (rule, n)
	for _, np := range newT.Points {
		if np.TimedOut || np.Err != "" {
			continue
		}
		first, ok := optimum[slice{np.Rule, np.N}]
		if !ok {
			optimum[slice{np.Rule, np.N}] = np
		} else if np.MinCost != first.MinCost {
			regressions++
			fmt.Fprintf(stdout, "  %-5s n=%-3d min_cost %s %d != %s %d  MISMATCH\n",
				np.Rule, np.N, np.Solver, np.MinCost, first.Solver, first.MinCost)
		}
	}
	for _, np := range newT.Points {
		op, ok := oldPts[key{np.Solver, np.Rule, np.N}]
		if !ok || op.TimedOut || np.TimedOut || op.Err != "" || np.Err != "" {
			continue
		}
		if np.MinCost != op.MinCost {
			regressions++
			fmt.Fprintf(stdout, "  %-10s %-5s n=%-3d min_cost %d -> %d  MISMATCH\n",
				np.Solver, np.Rule, np.N, op.MinCost, np.MinCost)
		}
		if op.NsPerOp <= 0 {
			continue
		}
		compared++
		ratio := float64(np.NsPerOp) / float64(op.NsPerOp)
		mark := ""
		if ratio > threshold {
			if nsAdvisory {
				mark = "  slower (advisory)"
			} else {
				regressions++
				mark = "  REGRESSION"
			}
		}
		fmt.Fprintf(stdout, "  %-10s %-5s n=%-3d %12d -> %12d ns/op  (%.2fx)%s\n",
			np.Solver, np.Rule, np.N, op.NsPerOp, np.NsPerOp, ratio, mark)
	}
	for solver, oldN := range oldT.MaxFeasibleN {
		if newN, ok := newT.MaxFeasibleN[solver]; ok && newN < oldN {
			regressions++
			fmt.Fprintf(stdout, "  %-10s max feasible n shrank: %d -> %d  REGRESSION\n", solver, oldN, newN)
		}
	}
	fmt.Fprintf(stdout, "%d points compared, %d regressions\n", compared, regressions)
	if compared == 0 {
		return fmt.Errorf("no comparable points between %s and %s", oldPath, newPath)
	}
	if regressions > 0 {
		return fmt.Errorf("%w: %d of %d points", errRegression, regressions, compared)
	}
	return nil
}
