package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"obddopt/internal/truthtable"
)

// keptCells installs releaseHook for the test's duration and returns a
// probe of the free cells the most recent multi-worker run handed back to
// the pool, plus how many runs have released so far.
func keptCells(t *testing.T) func() (cells uint64, releases int) {
	t.Helper()
	var cells uint64
	releases := 0
	releaseHook = func(wss []*workspace) {
		releases++
		cells = 0
		for _, ws := range wss {
			cells += ws.ar.FreeCells()
		}
	}
	t.Cleanup(func() { releaseHook = nil })
	return func() (uint64, int) { return cells, releases }
}

// TestArenaCapParallel runs the work-stealing engine repeatedly with four
// workers over 2-rank shards, so retired layers land on arenas other than
// the ones that allocated them, and checks that the workspaces of every
// run — completed or stopped by its node budget — go back to the pool
// holding no more free cells than the run's metered peak.
func TestArenaCapParallel(t *testing.T) {
	probe := keptCells(t)
	rng := rand.New(rand.NewSource(14))
	for run := 0; run < 12; run++ {
		n := 8 + run%4
		tt := truthtable.Random(n, rng)
		m := &Meter{}
		opts := &SolveOptions{Rule: []Rule{OBDD, ZDD}[run%2], Meter: m, Workers: 4, ShardBits: 1}
		if run%3 == 2 {
			opts.Budget = Budget{MaxNodes: uint64(40 * n)}
		}
		_, err := OptimalOrderingParallel(context.Background(), tt, opts)
		if err != nil && !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("run %d: %v", run, err)
		}
		kept, releases := probe()
		if releases != run+1 {
			t.Fatalf("run %d: %d releases so far, want %d", run, releases, run+1)
		}
		if kept > m.PeakCells {
			t.Errorf("run %d (n=%d, err=%v): %d free cells kept, metered peak %d", run, n, err, kept, m.PeakCells)
		}
		if m.LiveCells != 0 {
			t.Errorf("run %d: LiveCells = %d, want 0", run, m.LiveCells)
		}
	}
}

// TestArenaCapShared is TestArenaCapParallel for the shared-forest DP on
// the engine. It cycles through 2-, 3- and 4-root inputs, so the pooled
// arenas hold m·2^f-cell blocks of several sizes, some not powers of two.
func TestArenaCapShared(t *testing.T) {
	probe := keptCells(t)
	rng := rand.New(rand.NewSource(15))
	for run := 0; run < 9; run++ {
		n := 6 + run%4
		tts := randomRoots(n, 2+run/3, rng)
		m := &Meter{}
		opts := &SolveOptions{Rule: []Rule{OBDD, ZDD}[run/2%2], Meter: m, Workers: 4, ShardBits: 1}
		if run%3 == 2 {
			opts.Budget = Budget{MaxNodes: uint64(40 * n)}
		}
		_, err := OptimalOrderingSharedParallel(context.Background(), tts, opts)
		if err != nil && !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("run %d: %v", run, err)
		}
		kept, releases := probe()
		if releases != run+1 {
			t.Fatalf("run %d: %d releases so far, want %d", run, releases, run+1)
		}
		if kept > m.PeakCells {
			t.Errorf("run %d (n=%d, roots=%d, err=%v): %d free cells kept, metered peak %d", run, n, len(tts), err, kept, m.PeakCells)
		}
		if m.LiveCells != 0 {
			t.Errorf("run %d: LiveCells = %d, want 0", run, m.LiveCells)
		}
	}
}
