package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"obddopt/internal/core"
	"obddopt/internal/obs"
	"obddopt/internal/truthtable"
)

// slowSolverOnce registers "slowtest": a solver that holds its worker
// slot for a fixed interval (or until canceled), making queue
// saturation and drain behavior deterministic instead of relying on
// real solves being slow enough.
var slowSolverOnce sync.Once

const slowSolverDelay = 300 * time.Millisecond

func registerSlowSolver() {
	slowSolverOnce.Do(func() {
		core.RegisterSolver("slowtest", func(ctx context.Context, tt *truthtable.Table, opts *core.SolveOptions) (*core.Result, error) {
			select {
			case <-time.After(slowSolverDelay):
				fs, _ := core.LookupSolver("fs")
				return fs(ctx, tt, opts)
			case <-ctx.Done():
				return nil, fmt.Errorf("%w: %v", core.ErrCanceled, ctx.Err())
			}
		})
	})
}

// newTestServer builds a Server plus an httptest frontend; the cleanup
// drains the server so no solver goroutines outlive a test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s := New(ctx, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		drainCtx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer dcancel()
		if err := s.Drain(drainCtx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
		cancel()
	})
	return s, ts
}

// postSolve sends one solve request and decodes the envelope.
func postSolve(t *testing.T, url string, req *SolveRequest) (*SolveResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var resp SolveResponse
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatalf("decoding response (HTTP %d): %v", hr.StatusCode, err)
	}
	return &resp, hr
}

// TestSolveEndpoint is the basic round trip: a known function solves to
// its known optimum over the wire.
func TestSolveEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// The Fig. 1 function: optimal OBDD has 6 nonterminals.
	tt := mustExprTable(t, 6)
	resp, hr := postSolve(t, ts.URL, &SolveRequest{Table: tt.Hex()})
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", hr.StatusCode)
	}
	if resp.Error != nil {
		t.Fatalf("error: %+v", resp.Error)
	}
	if resp.Result == nil || resp.Result.MinCost != 6 {
		t.Fatalf("result = %+v, want MinCost 6", resp.Result)
	}
	if len(resp.Result.Ordering) != 6 {
		t.Fatalf("ordering = %v", resp.Result.Ordering)
	}
}

// mustExprTable builds x1&x2 | x3&x4 | … over n variables (n even): the
// papers' Achilles-heel family with a 2·(n/2)+... known shape; we only
// rely on determinism, not the exact cost, except for n=6 (cost 6).
func mustExprTable(t *testing.T, n int) *truthtable.Table {
	t.Helper()
	return truthtable.FromFunc(n, func(x []bool) bool {
		for i := 0; i+1 < n; i += 2 {
			if x[i] && x[i+1] {
				return true
			}
		}
		return false
	})
}

// TestSolveValidation exercises the 400 paths.
func TestSolveValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxVars: 8})
	cases := []struct {
		name string
		req  SolveRequest
	}{
		{"bad table", SolveRequest{Table: "zzz"}},
		{"bad rule", SolveRequest{Table: "2:8", Rule: "bdd2"}},
		{"unknown solver", SolveRequest{Table: "2:8", Solver: "nope"}},
		{"too many vars", SolveRequest{Table: truthtable.New(10).Hex()}},
		{"negative deadline", SolveRequest{Table: "2:8", DeadlineMS: -5}},
	}
	for _, tc := range cases {
		resp, hr := postSolve(t, ts.URL, &tc.req)
		if hr.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, hr.StatusCode)
		}
		if resp.Error == nil || resp.Error.Code != CodeInvalidInput {
			t.Errorf("%s: error = %+v, want invalid_input", tc.name, resp.Error)
		}
	}
	// Malformed JSON body.
	hr, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: HTTP %d, want 400", hr.StatusCode)
	}
}

// TestCacheHitSkipsSolver pins the acceptance contract: a repeated
// identical request is served from cache — recorded in the hit metrics
// — and the solver runs exactly once.
func TestCacheHitSkipsSolver(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	tt := truthtable.Random(8, rand.New(rand.NewSource(41)))
	req := &SolveRequest{Table: tt.Hex(), Solver: "fs"}

	before := obs.MetricsSnapshot()
	cold, _ := postSolve(t, ts.URL, req)
	if cold.Error != nil || cold.Cached {
		t.Fatalf("cold solve = %+v", cold)
	}
	if got := s.SolveCount(); got != 1 {
		t.Fatalf("solver ran %d times after cold solve, want 1", got)
	}
	warm, _ := postSolve(t, ts.URL, req)
	if warm.Error != nil {
		t.Fatalf("warm solve error: %+v", warm.Error)
	}
	if !warm.Cached {
		t.Error("second identical request not served from cache")
	}
	if got := s.SolveCount(); got != 1 {
		t.Errorf("solver ran %d times after warm solve, want 1 (cache must answer)", got)
	}
	if warm.Result == nil || warm.Result.MinCost != cold.Result.MinCost {
		t.Errorf("cached result %+v != cold result %+v", warm.Result, cold.Result)
	}
	delta := obs.MetricsDelta(before, obs.MetricsSnapshot())
	if delta["cache_hits"] == 0 {
		t.Errorf("cache_hits delta = 0, want ≥ 1 (got %+v)", delta)
	}
	if st := s.CacheStats(); st.Hits == 0 || st.Entries == 0 {
		t.Errorf("cache stats = %+v, want recorded hit and a stored entry", st)
	}
}

// TestSingleFlightCoalesces fires many concurrent identical requests
// and requires exactly one solver invocation: the flight owner's; the
// rest coalesce on the in-flight computation or hit the fresh entry.
func TestSingleFlightCoalesces(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	tt := truthtable.Random(10, rand.New(rand.NewSource(4242)))
	req := &SolveRequest{Table: tt.Hex(), Solver: "fs"}

	const concurrent = 24
	var wg sync.WaitGroup
	resps := make([]*SolveResponse, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(req)
			hr, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer hr.Body.Close()
			var resp SolveResponse
			if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
				t.Error(err)
				return
			}
			if hr.StatusCode != http.StatusOK {
				t.Errorf("HTTP %d: %+v", hr.StatusCode, resp.Error)
				return
			}
			resps[i] = &resp
		}(i)
	}
	wg.Wait()
	if got := s.SolveCount(); got != 1 {
		t.Errorf("solver invocations = %d for %d identical concurrent requests, want 1 (single-flight)", got, concurrent)
	}
	var want *core.Result
	for i, r := range resps {
		if r == nil || r.Result == nil {
			t.Fatalf("request %d got no result", i)
		}
		if want == nil {
			want = r.Result
		} else if r.Result.MinCost != want.MinCost {
			t.Errorf("request %d MinCost %d != %d", i, r.Result.MinCost, want.MinCost)
		}
	}
}

// TestLoadSheddingUnderSaturation is the acceptance load test: 64
// concurrent solves against a 2-worker, 2-deep queue produce only 200s
// and 429s — never a 5xx — and the 429s carry Retry-After.
func TestLoadSheddingUnderSaturation(t *testing.T) {
	registerSlowSolver()
	s, ts := newTestServer(t, Config{
		Workers:    2,
		QueueDepth: 2,
		RetryAfter: 2 * time.Second,
	})
	rng := rand.New(rand.NewSource(7))
	tables := make([]*truthtable.Table, 64)
	for i := range tables {
		tables[i] = truthtable.Random(6, rng)
	}

	type outcome struct {
		status     int
		retryAfter string
		errCode    string
	}
	outcomes := make([]outcome, len(tables))
	var wg sync.WaitGroup
	for i := range tables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// NoCache + distinct tables: every request needs a worker,
			// so the queue genuinely saturates.
			body, _ := json.Marshal(&SolveRequest{Table: tables[i].Hex(), Solver: "slowtest", NoCache: true})
			hr, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer hr.Body.Close()
			var resp SolveResponse
			_ = json.NewDecoder(hr.Body).Decode(&resp)
			o := outcome{status: hr.StatusCode, retryAfter: hr.Header.Get("Retry-After")}
			if resp.Error != nil {
				o.errCode = resp.Error.Code
			}
			outcomes[i] = o
		}(i)
	}
	wg.Wait()

	counts := map[int]int{}
	for i, o := range outcomes {
		counts[o.status]++
		switch o.status {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			if o.retryAfter == "" {
				t.Errorf("request %d: 429 without Retry-After", i)
			}
			if o.errCode != CodeSaturated {
				t.Errorf("request %d: 429 with code %q, want %q", i, o.errCode, CodeSaturated)
			}
		default:
			t.Errorf("request %d: HTTP %d — only 200 and 429 are acceptable under saturation", i, o.status)
		}
	}
	if counts[http.StatusTooManyRequests] == 0 {
		t.Error("no 429s from 64 concurrent requests against a 4-slot building; admission control not engaging")
	}
	if counts[http.StatusOK] == 0 {
		t.Error("no successes at all; the pool made no progress")
	}
	t.Logf("outcomes: %d OK, %d 429 (solver ran %d times)", counts[200], counts[429], s.SolveCount())
}

// TestDrainCancelsInFlight: a long-running solve is canceled by Drain,
// its response still arrives (graceful, status 200 + canceled error),
// new work is refused with 503, and no goroutines leak.
func TestDrainCancelsInFlight(t *testing.T) {
	registerSlowSolver()
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(ctx, Config{Workers: 2, QueueDepth: 2, MaxDeadline: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// slowtest blocks in its worker slot until canceled, so the drain
	// demonstrably interrupts a solve rather than racing its completion.
	tt := truthtable.Random(8, rand.New(rand.NewSource(3)))
	respCh := make(chan *SolveResponse, 1)
	statusCh := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(&SolveRequest{Table: tt.Hex(), Solver: "slowtest", NoCache: true})
		hr, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			respCh <- nil
			statusCh <- 0
			return
		}
		defer hr.Body.Close()
		var resp SolveResponse
		_ = json.NewDecoder(hr.Body).Decode(&resp)
		respCh <- &resp
		statusCh <- hr.StatusCode
	}()

	// Wait until the solve is actually running.
	deadline := time.Now().Add(5 * time.Second)
	for s.SolveCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("solve never started")
		}
		time.Sleep(time.Millisecond)
	}

	drainCtx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	resp, status := <-respCh, <-statusCh
	if resp == nil {
		t.Fatal("in-flight request got no response through drain")
	}
	if status != http.StatusOK {
		t.Errorf("in-flight request: HTTP %d, want 200 (canceled outcome in body)", status)
	}
	if resp.Error == nil || resp.Error.Code != CodeCanceled {
		t.Errorf("in-flight request error = %+v, want canceled", resp.Error)
	}

	// New work is refused while drained.
	body, _ := json.Marshal(&SolveRequest{Table: "2:8"})
	hr, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain request: HTTP %d, want 503", hr.StatusCode)
	}

	// Health flips to draining.
	hh, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hh.Body.Close()
	if hh.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after drain: HTTP %d, want 503", hh.StatusCode)
	}

	// Goroutine-leak check: after draining and closing the frontend,
	// the count returns to the baseline (with slack for the HTTP
	// keep-alive reaper and test plumbing).
	ts.Close()
	ok := false
	for wait := time.Now().Add(5 * time.Second); time.Now().Before(wait); {
		if runtime.NumGoroutine() <= baseline+4 {
			ok = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !ok {
		t.Errorf("goroutines = %d, baseline %d: drain leaked", runtime.NumGoroutine(), baseline)
	}
}

// TestDeadlineCapAndDegradation: the server clamps absurd deadlines and
// a deadline-stopped portfolio solve still returns an incumbent.
func TestDeadlineCapAndDegradation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxDeadline: 80 * time.Millisecond})
	// n = 18: seconds of DP work, so the 80ms cap stops it on any machine.
	tt := truthtable.Random(18, rand.New(rand.NewSource(11)))
	start := time.Now()
	resp, hr := postSolve(t, ts.URL, &SolveRequest{
		Table:      tt.Hex(),
		Solver:     "portfolio",
		DeadlineMS: 3_600_000, // one hour, clamped to 80ms
		NoCache:    true,
	})
	elapsed := time.Since(start)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", hr.StatusCode)
	}
	if resp.Error == nil || resp.Error.Code != CodeCanceled {
		t.Fatalf("error = %+v, want canceled (deadline clamped)", resp.Error)
	}
	if resp.Result == nil || len(resp.Result.Ordering) != 18 {
		t.Errorf("degraded result = %+v, want an 18-variable incumbent", resp.Result)
	}
	if elapsed > 5*time.Second {
		t.Errorf("request took %v; the 80ms cap did not bite", elapsed)
	}
}

// TestBudgetCap: the server applies its configured budget ceiling.
func TestBudgetCap(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBudget: core.Budget{MaxCells: 4096}})
	tt := truthtable.Random(12, rand.New(rand.NewSource(5)))
	resp, hr := postSolve(t, ts.URL, &SolveRequest{Table: tt.Hex(), Solver: "fs", NoCache: true})
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", hr.StatusCode)
	}
	if resp.Error == nil || resp.Error.Code != CodeBudgetExceeded {
		t.Fatalf("error = %+v, want budget_exceeded under the server cap", resp.Error)
	}
}

// TestEarlyStopNotCached: an incumbent from a canceled run must never
// be served as a canonical cached result.
func TestEarlyStopNotCached(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// n = 18: seconds of DP work, so the 50ms deadline stops it on any
	// machine.
	tt := truthtable.Random(18, rand.New(rand.NewSource(23)))
	resp, _ := postSolve(t, ts.URL, &SolveRequest{Table: tt.Hex(), Solver: "portfolio", DeadlineMS: 50})
	if resp.Error == nil || resp.Error.Code != CodeCanceled {
		t.Fatalf("expected a canceled first solve, got %+v", resp)
	}
	if st := s.CacheStats(); st.Entries != 0 {
		t.Fatalf("cache entries = %d after canceled solve, want 0", st.Entries)
	}
	resp2, _ := postSolve(t, ts.URL, &SolveRequest{Table: tt.Hex(), Solver: "portfolio", DeadlineMS: 50})
	if resp2.Cached {
		t.Error("second request was served a non-canonical cached incumbent")
	}
}

// TestBatchEndpoint: responses are index-aligned, per-item errors stay
// per-item, and an intra-batch repeat hits the cache.
func TestBatchEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	a := truthtable.Random(7, rand.New(rand.NewSource(1)))
	breq := BatchRequest{Requests: []SolveRequest{
		{Table: a.Hex(), Solver: "fs"},
		{Table: "zzz"}, // invalid: per-item error, not whole-batch failure
		{Table: a.Hex(), Solver: "fs"},
	}}
	body, _ := json.Marshal(&breq)
	hr, err := http.Post(ts.URL+"/v1/solve/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", hr.StatusCode)
	}
	var bresp BatchResponse
	if err := json.NewDecoder(hr.Body).Decode(&bresp); err != nil {
		t.Fatal(err)
	}
	if len(bresp.Responses) != 3 {
		t.Fatalf("got %d responses, want 3", len(bresp.Responses))
	}
	if bresp.Responses[0].Error != nil || bresp.Responses[0].Result == nil {
		t.Errorf("item 0 = %+v, want success", bresp.Responses[0])
	}
	if bresp.Responses[1].Error == nil || bresp.Responses[1].Error.Code != CodeInvalidInput {
		t.Errorf("item 1 error = %+v, want invalid_input", bresp.Responses[1].Error)
	}
	if !bresp.Responses[2].Cached {
		t.Error("item 2 (repeat of item 0) not served from cache")
	}
	if got := s.SolveCount(); got != 1 {
		t.Errorf("solver ran %d times for the batch, want 1", got)
	}
}

// TestSolversEndpoint and the stats/debug surfaces.
func TestSolversEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3, QueueDepth: 5})
	hr, err := http.Get(ts.URL + "/v1/solvers")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var resp SolversResponse
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range resp.Solvers {
		if name == "portfolio" {
			found = true
		}
	}
	if !found {
		t.Errorf("solvers = %v, want portfolio listed", resp.Solvers)
	}
	if resp.Workers != 3 || resp.QueueDepth != 5 {
		t.Errorf("limits = %+v, want workers 3 queue 5", resp)
	}
	if len(resp.Rules) != 2 {
		t.Errorf("rules = %v", resp.Rules)
	}

	for _, path := range []string{"/v1/stats", "/debug/vars", "/healthz"} {
		r2, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusOK {
			t.Errorf("GET %s: HTTP %d", path, r2.StatusCode)
		}
	}
}

// TestReportRequested: the response embeds an obs.RunReport when asked.
func TestReportRequested(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tt := truthtable.Random(6, rand.New(rand.NewSource(99)))
	resp, _ := postSolve(t, ts.URL, &SolveRequest{Table: tt.Hex(), Solver: "fs", Report: true, NoCache: true})
	if resp.Error != nil {
		t.Fatalf("error: %+v", resp.Error)
	}
	if resp.Report == nil {
		t.Fatal("no report in response")
	}
	if resp.Report.Tool != "obddd" || resp.Report.Algorithm != "fs" || resp.Report.N != 6 {
		t.Errorf("report header = %+v", resp.Report)
	}
	if len(resp.Report.Layers) == 0 {
		t.Error("report has no layer stats; tracer not threaded through")
	}
}

// TestZDDRule solves under the ZDD rule over the wire and verifies the
// rule round-trips into the result.
func TestZDDRule(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tt := truthtable.Random(6, rand.New(rand.NewSource(12)))
	resp, _ := postSolve(t, ts.URL, &SolveRequest{Table: tt.Hex(), Rule: "zdd", Solver: "fs"})
	if resp.Error != nil {
		t.Fatalf("error: %+v", resp.Error)
	}
	if resp.Result.Rule != core.ZDD {
		t.Errorf("result rule = %v, want ZDD", resp.Result.Rule)
	}
	// Same table under OBDD must occupy a distinct cache entry.
	resp2, _ := postSolve(t, ts.URL, &SolveRequest{Table: tt.Hex(), Rule: "obdd", Solver: "fs"})
	if resp2.Cached {
		t.Error("OBDD request hit the ZDD cache entry; rule missing from the key")
	}
}

var _ = fmt.Sprintf // keep fmt for debugging edits
