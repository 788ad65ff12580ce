package obddopt

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"obddopt/internal/core"
	"obddopt/internal/obs"
)

// TestSolveDefaultMatchesLegacy pins the migration contract: a bare
// Solve call returns the same optimal cost as the original dynamic
// program entry point, for both rules.
func TestSolveDefaultMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, rule := range []Rule{OBDD, ZDD} {
		for i := 0; i < 4; i++ {
			tt := RandomTable(3+rng.Intn(6), rng)
			want := core.OptimalOrdering(tt, &core.SolveOptions{Rule: rule})
			got, err := Solve(context.Background(), tt, WithRule(rule))
			if err != nil {
				t.Fatal(err)
			}
			if got.MinCost != want.MinCost {
				t.Errorf("rule %v: Solve MinCost = %d, OptimalOrdering = %d", rule, got.MinCost, want.MinCost)
			}
		}
	}
}

// TestSolveNamedSolvers drives every registered solver through the
// facade and checks agreement on one function. Test-only registrations
// from other packages ("slowtest") don't exist here, so the full
// registry is exercised.
func TestSolveNamedSolvers(t *testing.T) {
	tt := RandomTable(7, rand.New(rand.NewSource(2)))
	want := core.OptimalOrdering(tt, nil)
	for _, name := range SolverNames() {
		res, err := Solve(context.Background(), tt, WithSolver(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.MinCost != want.MinCost {
			t.Errorf("%s: MinCost = %d, want %d", name, res.MinCost, want.MinCost)
		}
	}
}

// TestSolveNilContext is the regression test for the nil-context hole:
// applyDeadline used to return a nil ctx untouched when no deadline was
// configured, crashing the solver's first checkpoint. Both facade entry
// points must normalize nil to context.Background.
func TestSolveNilContext(t *testing.T) {
	var nilCtx context.Context
	tt := RandomTable(5, rand.New(rand.NewSource(31)))

	// No deadline: the path that previously passed nil through.
	res, err := Solve(nilCtx, tt, WithSolver("fs"))
	if err != nil || res == nil {
		t.Fatalf("Solve(nil ctx) = %v, %v", res, err)
	}
	// With a deadline: the path that always worked, pinned against
	// regressions in the reordered normalization.
	res, err = Solve(nilCtx, tt, WithSolver("fs"), WithDeadline(time.Minute))
	if err != nil || res == nil {
		t.Fatalf("Solve(nil ctx, deadline) = %v, %v", res, err)
	}

	shared, err := SolveShared(nilCtx, []*Table{tt, RandomTable(5, rand.New(rand.NewSource(32)))})
	if err != nil || shared == nil {
		t.Fatalf("SolveShared(nil ctx) = %v, %v", shared, err)
	}
}

// TestSolveSharedOptionValidation pins the option contract: options that
// cannot take effect on the shared problem are rejected with
// ErrInvalidInput, never silently ignored.
func TestSolveSharedOptionValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tts := []*Table{RandomTable(5, rng), RandomTable(5, rng)}
	cases := []struct {
		name    string
		opts    []Option
		wantErr bool
	}{
		{"no options", nil, false},
		{"explicit fs", []Option{WithSolver("fs")}, false},
		{"accepted subset", []Option{WithRule(ZDD), WithDeadline(time.Minute), WithBudget(Budget{MaxCells: 1 << 30})}, false},
		{"portfolio rejected", []Option{WithSolver("portfolio")}, true},
		{"bnb rejected", []Option{WithSolver("bnb")}, true},
		{"unknown solver rejected", []Option{WithSolver("no-such")}, true},
		{"workers accepted", []Option{WithSchedule(Schedule{Workers: 4})}, false},
		{"workers with fs accepted", []Option{WithSolver("fs"), WithSchedule(Schedule{Workers: 2})}, false},
		{"schedule accepted", []Option{WithSchedule(Schedule{Workers: 2, ShardBits: 1, Pinned: true})}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := SolveShared(context.Background(), tts, tc.opts...)
			if tc.wantErr {
				if !errors.Is(err, ErrInvalidInput) {
					t.Fatalf("err = %v, want ErrInvalidInput", err)
				}
				if res != nil {
					t.Fatalf("res = %+v alongside rejection, want nil", res)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if res == nil || len(res.Ordering) != 5 {
				t.Fatalf("res = %+v", res)
			}
		})
	}
}

// TestWithScheduleFacade drives the Schedule API end to end through the
// facade: a scheduled parallel solve and a scheduled shared solve both
// return results bit-identical to the serial dynamic program's (the
// single-table or the shared one).
func TestWithScheduleFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	tt := RandomTable(7, rng)
	want, err := Solve(context.Background(), tt, WithSolver("fs"))
	if err != nil {
		t.Fatalf("serial reference: %v", err)
	}
	got, err := Solve(context.Background(), tt, WithSolver("parallel"), WithSchedule(Schedule{Workers: 3, ShardBits: 2, Pinned: true}))
	if err != nil {
		t.Fatalf("scheduled parallel: %v", err)
	}
	if got.MinCost != want.MinCost {
		t.Errorf("scheduled parallel MinCost %d != serial %d", got.MinCost, want.MinCost)
	}
	for i := range want.Ordering {
		if got.Ordering[i] != want.Ordering[i] {
			t.Errorf("scheduled parallel ordering %v != serial %v", got.Ordering, want.Ordering)
			break
		}
	}

	// SolveShared runs the engine whatever the schedule, so the shared
	// half holds it to the serial shared DP.
	roots := []*Table{RandomTable(5, rng), RandomTable(5, rng), RandomTable(5, rng)}
	sharedWant := core.OptimalOrderingShared(roots, nil)
	sharedGot, err := SolveShared(context.Background(), roots, WithSchedule(Schedule{Workers: 4}))
	if err != nil {
		t.Fatalf("scheduled shared: %v", err)
	}
	if sharedGot.MinCost != sharedWant.MinCost {
		t.Errorf("scheduled shared MinCost %d != serial %d", sharedGot.MinCost, sharedWant.MinCost)
	}
	for i := range sharedWant.Ordering {
		if sharedGot.Ordering[i] != sharedWant.Ordering[i] {
			t.Errorf("scheduled shared ordering %v != serial %v", sharedGot.Ordering, sharedWant.Ordering)
			break
		}
	}
}

// TestSolveInvalidInput verifies malformed calls surface ErrInvalidInput
// instead of panicking.
func TestSolveInvalidInput(t *testing.T) {
	if _, err := Solve(context.Background(), nil); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("nil table: err = %v, want ErrInvalidInput", err)
	}
	tt := NewTable(3)
	_, err := Solve(context.Background(), tt, WithSolver("no-such-solver"))
	if !errors.Is(err, ErrInvalidInput) {
		t.Errorf("unknown solver: err = %v, want ErrInvalidInput", err)
	}
	if err == nil || !strings.Contains(err.Error(), "portfolio") {
		t.Errorf("unknown-solver error %q should list the registered names", err)
	}
	if _, err := NewTableChecked(-1); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("NewTableChecked(-1): err = %v, want ErrInvalidInput", err)
	}
	if _, err := NewTableChecked(31); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("NewTableChecked(31): err = %v, want ErrInvalidInput", err)
	}
	if tbl, err := NewTableChecked(4); err != nil || tbl == nil || tbl.NumVars() != 4 {
		t.Errorf("NewTableChecked(4) = %v, %v", tbl, err)
	}
	if _, err := SolveShared(context.Background(), nil); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("SolveShared(nil): err = %v, want ErrInvalidInput", err)
	}
	rng := rand.New(rand.NewSource(4))
	mixed := []*Table{RandomTable(4, rng), RandomTable(5, rng)}
	if _, err := SolveShared(context.Background(), mixed); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("SolveShared mixed arity: err = %v, want ErrInvalidInput", err)
	}
}

// TestSolveDeadlineOption verifies WithDeadline cancels a large run and
// the portfolio degrades to an incumbent. n = 18 is seconds of DP work,
// so the 50ms deadline stops it on any machine.
func TestSolveDeadlineOption(t *testing.T) {
	tt := RandomTable(18, rand.New(rand.NewSource(9)))
	res, err := Solve(context.Background(), tt, WithDeadline(50*time.Millisecond))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil || len(res.Ordering) != 18 {
		t.Fatalf("res = %+v, want an 18-variable incumbent", res)
	}
}

// TestSolveBudgetOption verifies WithBudget surfaces ErrBudgetExceeded
// through the facade and the meter option balances.
func TestSolveBudgetOption(t *testing.T) {
	tt := RandomTable(10, rand.New(rand.NewSource(13)))
	var m Meter
	_, err := Solve(context.Background(), tt,
		WithSolver("fs"), WithMeter(&m), WithBudget(Budget{MaxCells: 4096}))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if m.LiveCells != 0 {
		t.Errorf("LiveCells = %d after abort, want 0", m.LiveCells)
	}
	if m.CellOps == 0 {
		t.Error("CellOps = 0; the aborted run still did work that the meter should count")
	}
}

// TestSolveSharedMatchesLegacy verifies the shared facade against the
// original core entry point.
func TestSolveSharedMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tts := []*Table{RandomTable(6, rng), RandomTable(6, rng)}
	want := core.OptimalOrderingShared(tts, nil)
	got, err := SolveShared(context.Background(), tts)
	if err != nil {
		t.Fatal(err)
	}
	if got.MinCost != want.MinCost {
		t.Errorf("SolveShared MinCost = %d, legacy = %d", got.MinCost, want.MinCost)
	}
}

// TestSolveSpanInstrumentation checks the request-scoped span contract
// of the facade: a caller-attached span collects the solver phase events,
// the portfolio's dispatch shows as one lane_result event and one
// lane_wall_ns{lane=parallel} observation, and the per-solver wall-time
// histogram in the registry grows by one observation per call.
func TestSolveSpanInstrumentation(t *testing.T) {
	tt := RandomTable(6, rand.New(rand.NewSource(9)))

	sp := obs.NewSpan("test-span-1")
	ctx := obs.ContextWithSpan(context.Background(), sp)
	before := obs.Hist(obs.HistNameSolverWall, "solver", "portfolio").Count()
	laneBefore := obs.Hist(obs.HistNameLaneWall, "lane", "parallel").Count()
	rec := NewTraceRecorder()
	res, err := Solve(ctx, tt, WithTrace(rec))
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.Hist(obs.HistNameSolverWall, "solver", "portfolio").Count(); got != before+1 {
		t.Errorf("solver_wall_ns{solver=portfolio} count = %d, want %d", got, before+1)
	}
	var names []string
	for _, ev := range sp.Events() {
		names = append(names, ev.Name)
	}
	if want := []string{"solver_start:portfolio", "solver_done:portfolio"}; !reflect.DeepEqual(names, want) {
		t.Errorf("span events %v, want %v", names, want)
	}
	var lanes []obs.Event
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindLaneResult {
			lanes = append(lanes, ev)
		}
	}
	if len(lanes) != 1 || lanes[0].Lane != "parallel" || lanes[0].Cost != res.MinCost {
		t.Errorf("lane_result events %+v, want one for parallel with cost %d", lanes, res.MinCost)
	}
	if got := obs.Hist(obs.HistNameLaneWall, "lane", "parallel").Count(); got != laneBefore+1 {
		t.Errorf("lane_wall_ns{lane=parallel} count = %d, want %d", got, laneBefore+1)
	}
}
