package server

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"obddopt/internal/core"
	"obddopt/internal/truthtable"
)

// newTestClient stands up a server and a dialed client against it.
func newTestClient(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s, ts := newTestServer(t, cfg)
	c, err := Dial(context.Background(), ts.URL)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	return s, c
}

func TestDialValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Dial(ctx, "ftp://example.com"); err == nil {
		t.Error("Dial accepted a non-http URL")
	}
	if _, err := Dial(ctx, "http://127.0.0.1:1"); err == nil {
		t.Error("Dial succeeded against a dead port")
	}
	// A live HTTP server that is not an obddd service must also fail.
	other := httptest.NewServer(http.NotFoundHandler())
	defer other.Close()
	if _, err := Dial(ctx, other.URL); err == nil {
		t.Error("Dial accepted a non-obddd HTTP server")
	}
}

// TestClientSolveRoundTrip: a remote solve returns the same result shape
// and optimum as the in-process engine.
func TestClientSolveRoundTrip(t *testing.T) {
	_, c := newTestClient(t, Config{})
	tt := mustExprTable(t, 6)
	res, err := c.Solve(context.Background(), tt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.MinCost != 6 || res.N != 6 || len(res.Ordering) != 6 {
		t.Fatalf("result = %+v", res)
	}
	// ZDD params route through.
	zres, err := c.Solve(context.Background(), tt, &Params{Rule: core.ZDD, Solver: "fs"})
	if err != nil {
		t.Fatal(err)
	}
	if zres.Rule != core.ZDD {
		t.Errorf("rule = %v, want ZDD", zres.Rule)
	}
}

// TestClientErrorMapping is the acceptance check: each service outcome
// round-trips to the engine's sentinel through errors.Is, so remote and
// local callers share one error-handling path.
func TestClientErrorMapping(t *testing.T) {
	registerSlowSolver()
	_, c := newTestClient(t, Config{MaxBudget: core.Budget{MaxCells: 2048}, MaxDeadline: -1})
	ctx := context.Background()

	t.Run("invalid input", func(t *testing.T) {
		// 40 variables exceed every limit; the server rejects before solving.
		_, err := c.Solve(ctx, truthtable.New(2), &Params{Solver: "no-such-solver"})
		if !errors.Is(err, core.ErrInvalidInput) {
			t.Errorf("err = %v, want errors.Is ErrInvalidInput", err)
		}
	})

	t.Run("budget exceeded", func(t *testing.T) {
		tt := truthtable.Random(12, rand.New(rand.NewSource(5)))
		res, err := c.Solve(ctx, tt, &Params{Solver: "fs", NoCache: true})
		if !errors.Is(err, core.ErrBudgetExceeded) {
			t.Errorf("err = %v, want errors.Is ErrBudgetExceeded", err)
		}
		_ = res // incumbent may or may not exist under a cell budget
	})

	t.Run("canceled", func(t *testing.T) {
		tt := truthtable.Random(8, rand.New(rand.NewSource(6)))
		_, err := c.Solve(ctx, tt, &Params{Solver: "slowtest", Deadline: 30 * time.Millisecond, NoCache: true})
		if !errors.Is(err, core.ErrCanceled) {
			t.Errorf("err = %v, want errors.Is ErrCanceled", err)
		}
	})

	t.Run("nil table", func(t *testing.T) {
		if _, err := c.Solve(ctx, nil, nil); !errors.Is(err, core.ErrInvalidInput) {
			t.Errorf("err = %v, want ErrInvalidInput", err)
		}
	})
}

// TestClientSaturation: a full queue maps onto ErrSaturated client-side.
func TestClientSaturation(t *testing.T) {
	registerSlowSolver()
	_, c := newTestClient(t, Config{Workers: 1, QueueDepth: 1})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))

	// Six concurrent slow solves against a 2-slot building (1 worker +
	// 1 queue place): the overflow must surface as ErrSaturated and
	// nothing else may fail.
	const n = 6
	tables := make([]*truthtable.Table, n)
	for i := range tables {
		tables[i] = truthtable.Random(6, rng)
	}
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			_, err := c.Solve(ctx, tables[i], &Params{Solver: "slowtest", NoCache: true})
			errs <- err
		}(i)
	}
	var ok, saturated int
	for i := 0; i < n; i++ {
		switch err := <-errs; {
		case err == nil:
			ok++
		case errors.Is(err, ErrSaturated):
			saturated++
		default:
			t.Errorf("unexpected error: %v", err)
		}
	}
	if saturated == 0 {
		t.Error("no solve surfaced ErrSaturated against a full queue")
	}
	if ok == 0 {
		t.Error("no solve succeeded at all")
	}
}

// TestClientDraining: a draining server maps onto ErrDraining.
func TestClientDraining(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(ctx, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c, err := Dial(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	drainCtx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	_, err = c.Solve(context.Background(), truthtable.New(2), nil)
	if !errors.Is(err, ErrDraining) {
		t.Errorf("err = %v, want errors.Is ErrDraining", err)
	}
}

// TestClientSolveBatch: index alignment, per-item errors, cache reuse.
func TestClientSolveBatch(t *testing.T) {
	s, c := newTestClient(t, Config{})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(77))
	a := truthtable.Random(7, rng)
	b := truthtable.Random(7, rng)

	if _, err := c.SolveBatch(ctx, nil, nil); !errors.Is(err, core.ErrInvalidInput) {
		t.Errorf("empty batch err = %v, want ErrInvalidInput", err)
	}
	if _, err := c.SolveBatch(ctx, []*truthtable.Table{a, nil}, nil); !errors.Is(err, core.ErrInvalidInput) {
		t.Errorf("nil element err = %v, want ErrInvalidInput", err)
	}

	results, err := c.SolveBatch(ctx, []*truthtable.Table{a, b, a}, &Params{Solver: "fs"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("item %d: %v", i, r.Err)
		}
		if r.Result == nil || r.Result.N != 7 {
			t.Errorf("item %d result = %+v", i, r.Result)
		}
	}
	if results[0].Result.MinCost != results[2].Result.MinCost {
		t.Error("identical tables disagree on MinCost across the batch")
	}
	// a appears twice but must solve once (cache inside the batch).
	if got := s.SolveCount(); got != 2 {
		t.Errorf("solver ran %d times for {a, b, a}, want 2", got)
	}
}

// TestClientReport: SolveReport surfaces the server-side run report.
func TestClientReport(t *testing.T) {
	_, c := newTestClient(t, Config{})
	tt := truthtable.Random(6, rand.New(rand.NewSource(13)))
	res, rep, err := c.SolveReport(context.Background(), tt, &Params{Solver: "fs", Report: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || rep == nil {
		t.Fatalf("res=%v rep=%v", res, rep)
	}
	if rep.Tool != "obddd" || rep.Algorithm != "fs" {
		t.Errorf("report header = %+v", rep)
	}
}

// TestClientSolvers exposes the server limits through the client.
func TestClientSolvers(t *testing.T) {
	_, c := newTestClient(t, Config{Workers: 2, QueueDepth: 3, MaxVars: 12})
	info, err := c.Solvers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.MaxVars != 12 || info.Workers != 2 || info.QueueDepth != 3 {
		t.Errorf("limits = %+v", info)
	}
	if !strings.Contains(strings.Join(info.Solvers, ","), "fs") {
		t.Errorf("solvers = %v, want fs present", info.Solvers)
	}
}

// TestClientContextCancel: the caller's own context aborts the HTTP
// request and surfaces as a context error, not a service error.
func TestClientContextCancel(t *testing.T) {
	registerSlowSolver()
	_, c := newTestClient(t, Config{MaxDeadline: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	tt := truthtable.Random(6, rand.New(rand.NewSource(21)))
	_, err := c.Solve(ctx, tt, &Params{Solver: "slowtest", NoCache: true})
	if err == nil {
		t.Fatal("expected an error from a canceled client context")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestBatchCoschedule drives the batch co-scheduling hint end to end:
// overlapping opted-in items solve as one shared forest (one solver
// invocation for the pair), the planner's decision is echoed per item,
// and the co-scheduled costs are never mistaken for canonical optima.
func TestBatchCoschedule(t *testing.T) {
	s, c := newTestClient(t, Config{})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(91))

	// a and b agree on the top half of their cells — same digest prefix,
	// high overlap — while d has a different variable count and can
	// never join their group.
	a := truthtable.Random(7, rng)
	b := a.Clone()
	for _, idx := range []uint64{3, 17, 41, 60} {
		b.Set(idx, !b.Bit(idx))
	}
	d := truthtable.Random(6, rng)

	results, err := c.SolveBatch(ctx, []*truthtable.Table{a, b, d}, &Params{Coschedule: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		r := results[i]
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		if r.Scheduling == nil || !r.Scheduling.Coscheduled || r.Scheduling.GroupSize != 2 {
			t.Fatalf("item %d scheduling = %+v, want coscheduled group of 2", i, r.Scheduling)
		}
	}
	if results[0].Scheduling.Group != results[1].Scheduling.Group {
		t.Errorf("group labels differ: %q vs %q", results[0].Scheduling.Group, results[1].Scheduling.Group)
	}
	if results[2].Scheduling == nil || results[2].Scheduling.Coscheduled {
		t.Errorf("item 2 scheduling = %+v, want declined echo", results[2].Scheduling)
	}
	// One shared run for {a, b} plus one solo run for d.
	if got := s.SolveCount(); got != 2 {
		t.Errorf("solver ran %d times, want 2", got)
	}
	// Group members share the jointly optimal ordering, and each item's
	// cost under it can only be at or above the item's own optimum.
	for i := range results[0].Result.Ordering {
		if results[0].Result.Ordering[i] != results[1].Result.Ordering[i] {
			t.Fatalf("group orderings differ: %v vs %v", results[0].Result.Ordering, results[1].Result.Ordering)
		}
	}
	// The group runs on the shared engine; its ordering is the serial
	// shared DP's on the group's tables, bit for bit.
	want := core.OptimalOrderingShared([]*truthtable.Table{a, b}, nil)
	for i := 0; i < 2; i++ {
		if !slices.Equal(results[i].Result.Ordering, want.Ordering) {
			t.Errorf("item %d ordering %v != serial shared DP's %v", i, results[i].Result.Ordering, want.Ordering)
		}
	}
	opt := core.OptimalOrdering(a, nil)
	if results[0].Result.MinCost < opt.MinCost {
		t.Errorf("co-scheduled cost %d below the true optimum %d", results[0].Result.MinCost, opt.MinCost)
	}
	// Co-scheduled results must not have been cached as canonical: a
	// direct solve of a still runs the solver and returns the optimum.
	res, err := c.Solve(ctx, a, &Params{Solver: "fs"})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.SolveCount(); got != 3 {
		t.Errorf("direct solve after co-scheduling hit a cache (solves = %d, want 3)", got)
	}
	if res.MinCost != opt.MinCost {
		t.Errorf("direct solve cost %d != optimum %d", res.MinCost, opt.MinCost)
	}
}

// TestBatchHintsNegotiation pins the compatibility contract: against a
// server that does not advertise the batch-hints feature, the client
// omits the hints field entirely — old servers reject unknown fields,
// so the hint must never reach one.
func TestBatchHintsNegotiation(t *testing.T) {
	var batchBody string
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/solvers", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, &SolversResponse{Solvers: []string{"fs"}, Rules: []string{"obdd"}, MaxVars: 30})
	})
	mux.HandleFunc("POST /v1/solve/batch", func(w http.ResponseWriter, r *http.Request) {
		data, _ := io.ReadAll(r.Body)
		batchBody = string(data)
		writeJSON(w, http.StatusOK, &BatchResponse{Responses: make([]SolveResponse, 1)})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c, err := Dial(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	tt := truthtable.Random(5, rand.New(rand.NewSource(7)))
	if _, err := c.SolveBatch(context.Background(), []*truthtable.Table{tt}, &Params{Coschedule: true}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(batchBody, "hints") {
		t.Errorf("hints sent to a server that never advertised them: %s", batchBody)
	}
	if c.hasFeature(FeatureBatchHints) {
		t.Error("client believes an old server supports batch-hints")
	}
}
