package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"obddopt/internal/core"
)

// tinyTrajectory runs a minimal sweep (n up to 6, short cap) — enough
// structure for the compare tests without slowing the suite down.
func tinyTrajectory(t *testing.T) *Trajectory {
	t.Helper()
	cfg := resolveTrajectoryConfig(1, true, 200*time.Millisecond, 6, core.OBDD)
	cfg.minSample = time.Millisecond
	cfg.maxReps = 2
	var out bytes.Buffer
	if err := runTrajectory(&out, io.Discard, cfg, true, false); err != nil {
		t.Fatalf("runTrajectory: %v", err)
	}
	var traj Trajectory
	if err := json.Unmarshal(out.Bytes(), &traj); err != nil {
		t.Fatalf("trajectory output is not valid JSON: %v\n%s", err, out.String())
	}
	return &traj
}

func writeTrajectory(t *testing.T, name string, traj *Trajectory) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	data, err := json.Marshal(traj)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTrajectorySweep(t *testing.T) {
	traj := tinyTrajectory(t)
	if traj.Schema != trajectorySchema {
		t.Errorf("schema = %q, want %q", traj.Schema, trajectorySchema)
	}
	if len(traj.Points) == 0 {
		t.Fatal("sweep produced no points")
	}
	// Every registered solver must appear, and within a (rule, n) slice
	// all completed solvers must agree on MinCost — the artifact doubles
	// as a cross-solver correctness tripwire.
	seen := map[string]bool{}
	cost := map[int]uint64{}
	for _, p := range traj.Points {
		seen[p.Solver] = true
		if p.TimedOut || p.Err != "" {
			continue
		}
		if p.NsPerOp <= 0 || p.Reps < 1 {
			t.Errorf("%s n=%d: ns_per_op %d reps %d", p.Solver, p.N, p.NsPerOp, p.Reps)
		}
		if want, ok := cost[p.N]; ok && p.MinCost != want {
			t.Errorf("%s n=%d: MinCost %d disagrees with %d", p.Solver, p.N, p.MinCost, want)
		} else {
			cost[p.N] = p.MinCost
		}
	}
	for _, name := range core.SolverNames() {
		if !seen[name] {
			t.Errorf("solver %s missing from sweep", name)
		}
		if traj.MaxFeasibleN[name] < 4 {
			t.Errorf("solver %s max_feasible_n = %d, want >= 4", name, traj.MaxFeasibleN[name])
		}
	}
}

func TestCompareSelfIsClean(t *testing.T) {
	traj := tinyTrajectory(t)
	path := writeTrajectory(t, "self.json", traj)
	var out bytes.Buffer
	if err := runCompare(&out, path, path, 1.5, false); err != nil {
		t.Fatalf("self-compare: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "0 regressions") {
		t.Errorf("self-compare output missing zero-regression line:\n%s", out.String())
	}
}

func TestCompareDetectsRegression(t *testing.T) {
	traj := tinyTrajectory(t)
	oldPath := writeTrajectory(t, "old.json", traj)

	slow := *traj
	slow.Points = append([]TrajPoint(nil), traj.Points...)
	for i := range slow.Points {
		slow.Points[i].NsPerOp *= 10
	}
	newPath := writeTrajectory(t, "new.json", &slow)

	var out bytes.Buffer
	err := runCompare(&out, oldPath, newPath, 1.5, false)
	if err == nil {
		t.Fatalf("10x slowdown not reported as regression:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "regression") {
		t.Errorf("error does not mention regression: %v", err)
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("output missing REGRESSION marks:\n%s", out.String())
	}

	// The reverse direction (new is faster) must stay clean.
	out.Reset()
	if err := runCompare(&out, newPath, oldPath, 1.5, false); err != nil {
		t.Errorf("speedup flagged as regression: %v", err)
	}
}

// TestCompareNsAdvisory pins the CI gate mode: with ns-advisory set, a
// pure ns/op slowdown is reported but does not fail, while a
// max-feasible-n drop still does.
func TestCompareNsAdvisory(t *testing.T) {
	traj := tinyTrajectory(t)
	oldPath := writeTrajectory(t, "old.json", traj)

	slow := *traj
	slow.Points = append([]TrajPoint(nil), traj.Points...)
	for i := range slow.Points {
		slow.Points[i].NsPerOp *= 10
	}
	slowPath := writeTrajectory(t, "slow.json", &slow)

	var out bytes.Buffer
	if err := runCompare(&out, oldPath, slowPath, 1.5, true); err != nil {
		t.Fatalf("advisory mode failed on a pure ns/op slowdown: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "advisory") {
		t.Errorf("advisory output missing the advisory mark:\n%s", out.String())
	}

	shrunk := slow
	shrunk.MaxFeasibleN = map[string]int{}
	for s, n := range traj.MaxFeasibleN {
		shrunk.MaxFeasibleN[s] = n - 2
	}
	shrunkPath := writeTrajectory(t, "shrunk.json", &shrunk)
	out.Reset()
	if err := runCompare(&out, oldPath, shrunkPath, 1.5, true); err == nil {
		t.Fatalf("advisory mode let a max-feasible-n drop pass:\n%s", out.String())
	}
}

func TestCompareDetectsFeasibilityDrop(t *testing.T) {
	traj := tinyTrajectory(t)
	oldPath := writeTrajectory(t, "old.json", traj)

	shrunk := *traj
	shrunk.MaxFeasibleN = map[string]int{}
	for s, n := range traj.MaxFeasibleN {
		shrunk.MaxFeasibleN[s] = n - 2
	}
	newPath := writeTrajectory(t, "new.json", &shrunk)

	var out bytes.Buffer
	if err := runCompare(&out, oldPath, newPath, 1.5, false); err == nil {
		t.Fatalf("max-feasible-n drop not reported:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "max feasible n shrank") {
		t.Errorf("output missing feasibility-drop line:\n%s", out.String())
	}
}

func TestCompareRejectsBadInputs(t *testing.T) {
	traj := tinyTrajectory(t)
	good := writeTrajectory(t, "good.json", traj)

	if err := runCompare(io.Discard, good, good, 0.5, false); err == nil {
		t.Error("threshold <= 1 accepted")
	}
	if err := runCompare(io.Discard, filepath.Join(t.TempDir(), "absent.json"), good, 1.5, false); err == nil {
		t.Error("missing old file accepted")
	}
	bad := *traj
	bad.Schema = "some/other/v9"
	badPath := writeTrajectory(t, "bad.json", &bad)
	if err := runCompare(io.Discard, good, badPath, 1.5, false); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("schema mismatch not rejected: %v", err)
	}
}

// TestCompareDetectsMinCostMismatch pins the correctness tripwires: a
// completed point whose min_cost moved between the artifacts, or that
// disagrees with another solver's at the same (rule, n) in the new
// artifact, fails the comparison even in the ns-advisory CI mode, while
// timed-out points (unproven incumbents) are never checked.
func TestCompareDetectsMinCostMismatch(t *testing.T) {
	traj := tinyTrajectory(t)
	oldPath := writeTrajectory(t, "old.json", traj)
	// Index of a completed point whose (rule, n) other solvers also
	// completed, so a changed cost there is a cross-solver disagreement.
	target := -1
	for i, p := range traj.Points {
		if p.TimedOut || p.Err != "" {
			continue
		}
		for j, q := range traj.Points {
			if j != i && q.Rule == p.Rule && q.N == p.N && !q.TimedOut && q.Err == "" {
				target = i
			}
		}
	}
	if target < 0 {
		t.Fatal("tiny sweep has no (rule, n) completed by two solvers")
	}
	// mutate copies traj, applying f to the target point — or, with
	// wholeSlice, to every point at the target's (rule, n).
	mutate := func(wholeSlice bool, f func(p *TrajPoint)) *Trajectory {
		c := *traj
		c.Points = append([]TrajPoint(nil), traj.Points...)
		for i := range c.Points {
			p, tp := &c.Points[i], traj.Points[target]
			if i == target || (wholeSlice && p.Rule == tp.Rule && p.N == tp.N) {
				f(p)
			}
		}
		return &c
	}

	// Moved between artifacts, every solver still agreeing.
	moved := writeTrajectory(t, "moved.json", mutate(true, func(p *TrajPoint) { p.MinCost++ }))
	var out bytes.Buffer
	if err := runCompare(&out, oldPath, moved, 3, true); err == nil || !strings.Contains(out.String(), "MISMATCH") {
		t.Errorf("moved min_cost passed the advisory compare (err %v):\n%s", err, out.String())
	}

	// Nothing moved, but the artifact contradicts itself.
	split := writeTrajectory(t, "split.json", mutate(false, func(p *TrajPoint) { p.MinCost++ }))
	out.Reset()
	if err := runCompare(&out, split, split, 3, true); err == nil || !strings.Contains(out.String(), "MISMATCH") {
		t.Errorf("cross-solver disagreement passed the self-compare (err %v):\n%s", err, out.String())
	}

	// A timed-out point carries an unproven incumbent: never a mismatch.
	timedOut := writeTrajectory(t, "timeout.json", mutate(false, func(p *TrajPoint) { p.MinCost++; p.TimedOut = true }))
	out.Reset()
	if err := runCompare(&out, oldPath, timedOut, 3, true); err != nil || strings.Contains(out.String(), "MISMATCH") {
		t.Errorf("timed-out incumbent flagged (err %v):\n%s", err, out.String())
	}
}

// TestCommittedArtifactIsCurrent guards the highest-numbered BENCH_*.json
// — the baseline the Makefile and the CI bench-smoke job diff against: it
// must parse, carry the current schema, and self-compare clean, solvers
// agreeing on every completed optimum.
func TestCommittedArtifactIsCurrent(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed BENCH_*.json artifact (err %v)", err)
	}
	path, latest := "", -1
	for _, p := range paths {
		num, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json"))
		if err == nil && num > latest {
			path, latest = p, num
		}
	}
	traj, err := loadTrajectory(path)
	if err != nil {
		t.Fatalf("committed artifact: %v", err)
	}
	if len(traj.Points) == 0 || len(traj.MaxFeasibleN) == 0 {
		t.Fatalf("committed artifact %s is empty", path)
	}
	var out bytes.Buffer
	if err := runCompare(&out, path, path, 1.5, false); err != nil {
		t.Fatalf("committed artifact %s self-compare: %v\n%s", path, err, out.String())
	}
}
