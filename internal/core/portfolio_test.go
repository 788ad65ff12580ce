package core_test

// The portfolio tests live in the external test package so they can link
// internal/heuristics — which installs core.DefaultSeeder from its init —
// the same way real users get it via the top-level facade. Inside package
// core that import would be a cycle.

import (
	stdctx "context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"obddopt/internal/bitops"
	"obddopt/internal/conformance"
	"obddopt/internal/core"
	"obddopt/internal/funcs"
	_ "obddopt/internal/heuristics" // installs core.DefaultSeeder
	"obddopt/internal/obs"
	"obddopt/internal/truthtable"
)

// TestPortfolioMatchesDP is the acceptance equality check: on random
// functions of up to 10 variables, under both diagram rules, the
// portfolio returns exactly the dynamic program's optimal cost.
func TestPortfolioMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, rule := range []core.Rule{core.OBDD, core.ZDD} {
		for i := 0; i < 8; i++ {
			n := 4 + rng.Intn(7) // 4..10
			tt := truthtable.Random(n, rng)
			want := core.OptimalOrdering(tt, &core.SolveOptions{Rule: rule})
			got, err := core.Portfolio(nil, tt, &core.SolveOptions{Rule: rule})
			if err != nil {
				t.Fatalf("rule %v n=%d: %v", rule, n, err)
			}
			if got.MinCost != want.MinCost {
				t.Errorf("rule %v n=%d: portfolio MinCost = %d, DP = %d", rule, n, got.MinCost, want.MinCost)
			}
			if got.Size != core.SizeUnder(tt, got.Ordering, rule, nil) {
				t.Errorf("rule %v n=%d: reported size %d not achieved by returned ordering", rule, n, got.Size)
			}
		}
	}
}

// TestPortfolioMatchesParallel pins the dispatch: with no cell budget the
// portfolio is the work-stealing DP engine, so on random functions of up
// to 12 variables, under both rules and under the caller's schedule, its
// result — cost, ordering, profile — is bit-identical to parallel's.
func TestPortfolioMatchesParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, rule := range []core.Rule{core.OBDD, core.ZDD} {
		for n := 1; n <= 12; n++ {
			tt := truthtable.Random(n, rng)
			opts := &core.SolveOptions{Rule: rule, Workers: 1 + n%3, ShardBits: n % 3}
			want, err := core.OptimalOrderingParallel(stdctx.Background(), tt, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.Portfolio(stdctx.Background(), tt, opts)
			if err != nil {
				t.Fatalf("rule %v n=%d: %v", rule, n, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("rule %v n=%d: portfolio %+v, parallel %+v", rule, n, got, want)
			}
		}
	}
}

// TestPortfolioOrbitMatchesFS is the bit-identity property of the DP
// over symmetry orbits: on every conformance family (the symmetric,
// threshold, achilles, readonce and sparse ones carry symmetry groups),
// both rules, n 3–12 and every schedule (workers × shard bits ×
// pinning), the portfolio's MinCost, Ordering and Profile equal the
// serial full-lattice DP's.
func TestPortfolioOrbitMatchesFS(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, fam := range conformance.Families() {
		for _, rule := range []core.Rule{core.OBDD, core.ZDD} {
			for n := 3; n <= 12; n++ {
				tt := fam.New(n, rng)
				want, err := core.OptimalOrderingCtx(stdctx.Background(), tt, &core.SolveOptions{Rule: rule})
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2, 4} {
					for _, shardBits := range []int{0, 1} {
						for _, pinned := range []bool{false, true} {
							opts := &core.SolveOptions{Rule: rule, Workers: workers, ShardBits: shardBits, Pinned: pinned}
							got, err := core.Portfolio(stdctx.Background(), tt, opts)
							if err != nil {
								t.Fatalf("%s %v n=%d %+v: %v", fam.Name, rule, n, opts, err)
							}
							if got.MinCost != want.MinCost || !reflect.DeepEqual(got.Ordering, want.Ordering) || !reflect.DeepEqual(got.Profile, want.Profile) {
								t.Fatalf("%s %v n=%d groups %v w=%d sb=%d pinned=%v: portfolio %d %v %v, fs %d %v %v",
									fam.Name, rule, n, truthtable.Groups(tt), workers, shardBits, pinned,
									got.MinCost, got.Ordering, got.Profile, want.MinCost, want.Ordering, want.Profile)
							}
						}
					}
				}
			}
		}
	}
}

// TestPortfolioOrbitLayerEvents pins what an orbit run reports: n
// layer_end events whose CellOps sum to the meter's, which equals
// OrbitBounds' closed form; Subsets counting the canonical subsets, one
// per orbit, Π(|g|+1) − 1 over the layers; every cell released.
func TestPortfolioOrbitLayerEvents(t *testing.T) {
	for _, tt := range []*truthtable.Table{
		funcs.Threshold(11, 4), // one group of 11
		funcs.AchillesHeel(5),  // five pairs
		funcs.AdderCarry(4),    // four pairs, interleaved
		funcs.Comparator(4),    // no symmetry: the full lattice
	} {
		n := tt.NumVars()
		groups := truthtable.Groups(tt)
		orbits := 1
		for _, g := range groups {
			orbits *= g.Count() + 1
		}
		wantOps, _ := core.OrbitBounds(groups)
		rec := obs.NewRecorder()
		m := &core.Meter{}
		if _, err := core.Portfolio(stdctx.Background(), tt, &core.SolveOptions{Meter: m, Trace: rec}); err != nil {
			t.Fatal(err)
		}
		if got := rec.Count(obs.KindLayerEnd); got != n {
			t.Errorf("n=%d groups %v: %d layer_end events, want %d", n, groups, got, n)
		}
		if sum := rec.SumCellOps(obs.KindLayerEnd); sum != m.CellOps || m.CellOps != wantOps {
			t.Errorf("n=%d groups %v: layer_end CellOps %d, Meter.CellOps %d, OrbitBounds %d", n, groups, sum, m.CellOps, wantOps)
		}
		subsets := 0
		for _, ev := range rec.Events() {
			if ev.Kind == obs.KindLayerEnd {
				subsets += ev.Subsets
			}
		}
		if subsets != orbits-1 {
			t.Errorf("n=%d groups %v: layer_end Subsets sum to %d, want %d", n, groups, subsets, orbits-1)
		}
		if m.LiveCells != 0 {
			t.Errorf("n=%d groups %v: LiveCells = %d after the run", n, groups, m.LiveCells)
		}
	}
}

// TestPortfolioOrbitStealStorm drives the orbit run through the
// scheduler's contended regime (8 workers over 2-rank shards, most of
// them non-canonical and skipped); meaningful under -race, and still
// bit-identical to the serial DP.
func TestPortfolioOrbitStealStorm(t *testing.T) {
	for _, tt := range []*truthtable.Table{funcs.AchillesHeel(5), funcs.Threshold(10, 3), funcs.AdderCarry(5)} {
		want := core.OptimalOrdering(tt, nil)
		got, err := core.Portfolio(stdctx.Background(), tt, &core.SolveOptions{Workers: 8, ShardBits: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got.MinCost != want.MinCost || !reflect.DeepEqual(got.Ordering, want.Ordering) {
			t.Fatalf("groups %v: steal-storm %d %v, fs %d %v", truthtable.Groups(tt), got.MinCost, got.Ordering, want.MinCost, want.Ordering)
		}
	}
}

// TestOrbitBoundsFullLattice pins the closed forms on the all-singleton
// partition: Theorem 5's Σ k·C(n,k)·2^(n−k) cell operations and Remark
// 1's PeakCellsBound(n).
func TestOrbitBoundsFullLattice(t *testing.T) {
	for n := 1; n <= 20; n++ {
		groups := make([]bitops.Mask, n)
		var want uint64
		for k := 1; k <= n; k++ {
			groups[k-1] = bitops.Mask(0).With(k - 1)
			want += uint64(k) * bitops.Binomial(n, k) << uint(n-k)
		}
		ops, peak := core.OrbitBounds(groups)
		if ops != want || peak != core.PeakCellsBound(n) {
			t.Errorf("n=%d: OrbitBounds = (%d, %d), want (%d, %d)", n, ops, peak, want, core.PeakCellsBound(n))
		}
	}
}

// TestPortfolioCellBudgetRunsBnB pins the one branch off the DP: a
// MaxCells one below Remark 1's closed-form peak rules the DP out, so the
// portfolio seeds branch-and-bound with the heuristic phase and returns
// the fs optimum, proven. At the peak itself the dispatch picks the DP
// engine, whose three-layer window may still overrun the budget. On a
// symmetric input the peak is the orbit lattice's, so a budget between
// it and PeakCellsBound(n) runs the DP.
func TestPortfolioCellBudgetRunsBnB(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, rule := range []core.Rule{core.OBDD, core.ZDD} {
		for _, n := range []int{5, 8, 10} {
			tt := truthtable.Random(n, rng)
			want := core.OptimalOrdering(tt, &core.SolveOptions{Rule: rule})
			peak := core.PeakCellsBound(n)

			rec := obs.NewRecorder()
			m := &core.Meter{}
			got, err := core.Portfolio(stdctx.Background(), tt, &core.SolveOptions{
				Rule: rule, Meter: m, Trace: rec, Budget: core.Budget{MaxCells: peak - 1},
			})
			if err != nil {
				t.Fatalf("rule %v n=%d MaxCells=%d: %v", rule, n, peak-1, err)
			}
			if got.MinCost != want.MinCost {
				t.Errorf("rule %v n=%d: bnb dispatch cost %d, fs optimum %d", rule, n, got.MinCost, want.MinCost)
			}
			if lanes := laneResults(rec); len(lanes) != 2 || lanes[0].Lane != "heuristic" || lanes[1].Lane != "bnb" {
				t.Errorf("rule %v n=%d: lane_result events %+v, want heuristic then bnb", rule, n, lanes)
			}
			if m.PeakCells > peak-1 {
				t.Errorf("rule %v n=%d: bnb peaked at %d cells over a %d budget", rule, n, m.PeakCells, peak-1)
			}

			rec = obs.NewRecorder()
			_, _ = core.Portfolio(stdctx.Background(), tt, &core.SolveOptions{Rule: rule, Trace: rec, Budget: core.Budget{MaxCells: peak}})
			if lanes := laneResults(rec); len(lanes) == 0 || lanes[0].Lane != "parallel" {
				t.Errorf("rule %v n=%d MaxCells at the peak: lane_result events %+v, want parallel first", rule, n, lanes)
			}
		}

		// Symmetric: four times the orbit peak, clear of the engine's
		// three-layer band, is still far below PeakCellsBound(n).
		tt := funcs.Threshold(10, 4)
		_, orbitPeak := core.OrbitBounds(truthtable.Groups(tt))
		budget := 4 * orbitPeak
		if budget >= core.PeakCellsBound(10) {
			t.Fatalf("orbit peak %d leaves no room below PeakCellsBound(10) = %d", orbitPeak, core.PeakCellsBound(10))
		}
		want := core.OptimalOrdering(tt, &core.SolveOptions{Rule: rule})
		rec := obs.NewRecorder()
		m := &core.Meter{}
		got, err := core.Portfolio(stdctx.Background(), tt, &core.SolveOptions{Rule: rule, Meter: m, Trace: rec, Budget: core.Budget{MaxCells: budget}})
		if err != nil || got.MinCost != want.MinCost || !reflect.DeepEqual(got.Ordering, want.Ordering) {
			t.Errorf("rule %v symmetric MaxCells=%d: %+v, %v; want fs %d %v", rule, budget, got, err, want.MinCost, want.Ordering)
		}
		if lanes := laneResults(rec); len(lanes) != 1 || lanes[0].Lane != "parallel" {
			t.Errorf("rule %v symmetric MaxCells=%d: lane_result events %+v, want parallel only", rule, budget, lanes)
		}
		if m.PeakCells > budget {
			t.Errorf("rule %v symmetric: DP peaked at %d cells over a %d budget", rule, m.PeakCells, budget)
		}
		rec = obs.NewRecorder()
		_, _ = core.Portfolio(stdctx.Background(), tt, &core.SolveOptions{Rule: rule, Trace: rec, Budget: core.Budget{MaxCells: orbitPeak - 1}})
		if lanes := laneResults(rec); len(lanes) != 2 || lanes[1].Lane != "bnb" {
			t.Errorf("rule %v symmetric MaxCells one below the orbit peak: lane_result events %+v, want heuristic then bnb", rule, lanes)
		}
	}
}

// TestPortfolioEarlyStopIncumbent pins the early-stop contract on both
// branches, and on the DP over symmetry orbits (five pairs): a
// node-budget, deadline or cancellation stop runs the seeder and returns
// its valid, unproven ordering (or branch-and-bound's, when better)
// alongside the error, with every metered cell released.
func TestPortfolioEarlyStopIncumbent(t *testing.T) {
	const n = 10
	random := truthtable.Random(n, rand.New(rand.NewSource(41)))
	pairs := funcs.AchillesHeel(n / 2)
	expired, cancel := stdctx.WithDeadline(stdctx.Background(), time.Now().Add(-time.Second))
	defer cancel()
	canceled, cancelNow := stdctx.WithCancel(stdctx.Background())
	cancelNow()
	small := core.PeakCellsBound(n) / 2
	for _, tc := range []struct {
		name   string
		tt     *truthtable.Table
		ctx    stdctx.Context
		budget core.Budget
		want   error
		lanes  []string
	}{
		{"parallel/max-nodes", random, stdctx.Background(), core.Budget{MaxNodes: 30}, core.ErrBudgetExceeded, []string{"parallel", "heuristic"}},
		{"parallel/deadline", random, expired, core.Budget{}, core.ErrCanceled, []string{"parallel", "heuristic"}},
		{"bnb/max-nodes", random, stdctx.Background(), core.Budget{MaxCells: small, MaxNodes: 30}, core.ErrBudgetExceeded, []string{"heuristic", "bnb"}},
		{"bnb/deadline", random, expired, core.Budget{MaxCells: small}, core.ErrCanceled, []string{"heuristic", "bnb"}},
		{"orbit/max-nodes", pairs, stdctx.Background(), core.Budget{MaxNodes: 20}, core.ErrBudgetExceeded, []string{"parallel", "heuristic"}},
		{"orbit/pre-canceled", pairs, canceled, core.Budget{}, core.ErrCanceled, []string{"parallel", "heuristic"}},
	} {
		tt := tc.tt
		rec := obs.NewRecorder()
		m := &core.Meter{}
		res, err := core.Portfolio(tc.ctx, tt, &core.SolveOptions{Meter: m, Trace: rec, Budget: tc.budget})
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
			continue
		}
		if res == nil || len(res.Ordering) != n || !res.Ordering.Valid() {
			t.Errorf("%s: incumbent %+v, want a valid %d-variable ordering", tc.name, res, n)
			continue
		}
		if got := core.SizeUnder(tt, res.Ordering, core.OBDD, nil); got != res.Size {
			t.Errorf("%s: incumbent size %d but its ordering achieves %d", tc.name, res.Size, got)
		}
		if m.LiveCells != 0 {
			t.Errorf("%s: LiveCells = %d after the stop, want 0", tc.name, m.LiveCells)
		}
		var lanes []string
		for _, ev := range laneResults(rec) {
			lanes = append(lanes, ev.Lane)
		}
		if !reflect.DeepEqual(lanes, tc.lanes) {
			t.Errorf("%s: lane_result lanes %v, want %v", tc.name, lanes, tc.lanes)
		}
	}
}

// TestPortfolioDeadlineReturnsIncumbent is the acceptance deadline check:
// on a function large enough that the DP engine cannot finish in 50ms on
// any machine (n = 18: 18·3^17 cell operations, seconds of work), the
// portfolio returns ErrCanceled promptly, carrying the heuristic
// incumbent — a valid ordering — instead of hanging.
func TestPortfolioDeadlineReturnsIncumbent(t *testing.T) {
	n := 18
	tt := truthtable.Random(n, rand.New(rand.NewSource(123)))
	ctx, cancel := stdctx.WithTimeout(stdctx.Background(), 50*time.Millisecond)
	defer cancel()
	m := &core.Meter{}
	start := time.Now()
	res, err := core.Portfolio(ctx, tt, &core.SolveOptions{Meter: m})
	elapsed := time.Since(start)
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil {
		t.Fatal("no incumbent returned; the heuristic phase always yields one")
	}
	if len(res.Ordering) != n || !res.Ordering.Valid() {
		t.Fatalf("incumbent ordering %v is not a permutation of %d variables", res.Ordering, n)
	}
	if got := core.SizeUnder(tt, res.Ordering, core.OBDD, nil); got != res.Size {
		t.Errorf("incumbent size %d but ordering achieves %d", res.Size, got)
	}
	// Promptness: the cooperative checkpoints fire per transition, so the
	// return should follow the deadline closely, not by seconds.
	if elapsed > 5*time.Second {
		t.Errorf("portfolio took %v past a 50ms deadline", elapsed)
	}
	if m.LiveCells != 0 {
		t.Errorf("LiveCells = %d after the stop, want 0", m.LiveCells)
	}
}

// TestPortfolioTraceShowsWinner is the acceptance trace check: a
// completed portfolio run emits exactly one lane_result, naming the DP
// engine the dispatch chose and carrying the result's cost, after that
// engine's layer events — no heuristic lane (the seeder runs only after
// an early stop) and no race events.
func TestPortfolioTraceShowsWinner(t *testing.T) {
	tt := truthtable.Random(8, rand.New(rand.NewSource(5)))
	rec := obs.NewRecorder()
	res, err := core.Portfolio(nil, tt, &core.SolveOptions{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	lanes := laneResults(rec)
	if len(lanes) != 1 {
		t.Fatalf("lane_result events = %+v, want exactly 1", lanes)
	}
	if lanes[0].Lane != "parallel" {
		t.Errorf("lane_result names %q, want the parallel DP engine", lanes[0].Lane)
	}
	if lanes[0].Cost != res.MinCost {
		t.Errorf("lane_result cost %d != result MinCost %d", lanes[0].Cost, res.MinCost)
	}
	if rec.Count(obs.KindRaceWon) != 0 {
		t.Errorf("race_won emitted %d times by a dispatch", rec.Count(obs.KindRaceWon))
	}
	events := rec.Events()
	if rec.Count(obs.KindLayerEnd) != 8 || events[len(events)-1].Kind != obs.KindLaneResult {
		t.Errorf("want 8 layer_end events followed by the lane_result, got %d layer_end, last %v",
			rec.Count(obs.KindLayerEnd), events[len(events)-1].Kind)
	}
	// The collector folds the same stream into a portfolio report section.
	col := obs.NewCollector()
	for _, ev := range events {
		col.Emit(ev)
	}
	rep := col.Report()
	if rep.Portfolio == nil || len(rep.Portfolio.Lanes) != 1 || rep.Portfolio.Lanes[0].Lane != "parallel" {
		t.Errorf("collector report portfolio section = %+v, want the one parallel lane", rep.Portfolio)
	}
}

// TestPortfolioBudget verifies budget exhaustion degrades to the
// heuristic incumbent with ErrBudgetExceeded.
func TestPortfolioBudget(t *testing.T) {
	tt := truthtable.Random(10, rand.New(rand.NewSource(77)))
	res, err := core.Portfolio(nil, tt, &core.SolveOptions{Budget: core.Budget{MaxNodes: 30}})
	if !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if res == nil {
		t.Fatal("no incumbent returned")
	}
	if len(res.Ordering) != 10 || !res.Ordering.Valid() {
		t.Fatalf("incumbent ordering %v invalid", res.Ordering)
	}
}

// laneResults returns the recorded lane_result events in order.
func laneResults(rec *obs.Recorder) []obs.Event {
	var out []obs.Event
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindLaneResult {
			out = append(out, ev)
		}
	}
	return out
}

// TestRegistryNames pins the public solver names.
func TestRegistryNames(t *testing.T) {
	want := []string{"bnb", "brute", "dnc", "fs", "parallel", "portfolio"}
	got := core.SolverNames()
	if len(got) != len(want) {
		t.Fatalf("SolverNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SolverNames() = %v, want %v", got, want)
		}
	}
}
