package obddopt

import (
	"context"
	"errors"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"
)

// TestFacadeClientServer drives the public serving surface end to end:
// NewServer + Dial + Client.Solve, with the in-process error contract
// holding across the wire.
func TestFacadeClientServer(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := NewServer(ctx, ServerConfig{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c, err := Dial(ctx, ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	f := MustParseExpr("x1 & x2 | x3 & x4 | x5 & x6", 6)
	remote, err := c.Solve(ctx, f, &ClientParams{Solver: "fs"})
	if err != nil {
		t.Fatal(err)
	}
	local, err := Solve(ctx, f, WithSolver("fs"))
	if err != nil {
		t.Fatal(err)
	}
	if remote.MinCost != local.MinCost || remote.Size != local.Size {
		t.Errorf("remote = %+v, local = %+v", remote, local)
	}

	// The sentinel contract crosses the wire. n = 18 is seconds of DP
	// work, so the 50ms deadline stops it on any machine.
	big := RandomTable(18, rand.New(rand.NewSource(8)))
	_, err = c.Solve(ctx, big, &ClientParams{Deadline: 50 * time.Millisecond, NoCache: true})
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("remote deadline err = %v, want errors.Is ErrCanceled", err)
	}
	if _, err := c.Solve(ctx, nil, nil); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("nil table err = %v, want ErrInvalidInput", err)
	}

	drainCtx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve(context.Background(), f, nil); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain err = %v, want ErrDraining", err)
	}
}

// TestSolveBatchFacade checks the batch path through the public facade.
func TestSolveBatchFacade(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := NewServer(ctx, ServerConfig{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c, err := Dial(ctx, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	tts := []*Table{RandomTable(6, rng), RandomTable(6, rng)}
	results, err := c.SolveBatch(ctx, tts, &ClientParams{Solver: "fs"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Err != nil || r.Result == nil {
			t.Errorf("item %d: %+v", i, r)
		}
	}
	drainCtx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	_ = s.Drain(drainCtx)
}
