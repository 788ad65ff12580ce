package core

import (
	stdctx "context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"obddopt/internal/obs"
	"obddopt/internal/truthtable"
)

// cancelAfterLayers is a Tracer that cancels a context once it has seen
// the given number of completed DP layers, and counts every layer
// completed after the cancellation fired.
type cancelAfterLayers struct {
	cancel      stdctx.CancelFunc
	after       int
	seen        atomic.Int32
	afterCancel atomic.Int32
}

func (t *cancelAfterLayers) Emit(ev obs.Event) {
	if ev.Kind != obs.KindLayerEnd {
		return
	}
	n := t.seen.Add(1)
	if int(n) == t.after {
		t.cancel()
	} else if int(n) > t.after {
		t.afterCancel.Add(1)
	}
}

// TestCancelStopsWithinOneLayer verifies the tentpole promptness
// contract: a cancellation that fires at a layer boundary stops the
// dynamic program before it completes another full layer, releases every
// table it owns (the meter returns to zero live cells), and surfaces
// ErrCanceled.
func TestCancelStopsWithinOneLayer(t *testing.T) {
	tt := truthtable.Random(10, rand.New(rand.NewSource(42)))
	for _, run := range []struct {
		name  string
		solve func(ctx stdctx.Context, m *Meter, tr obs.Tracer) (*Result, error)
	}{
		{"fs", func(ctx stdctx.Context, m *Meter, tr obs.Tracer) (*Result, error) {
			return OptimalOrderingCtx(ctx, tt, &SolveOptions{Meter: m, Trace: tr})
		}},
		{"parallel", func(ctx stdctx.Context, m *Meter, tr obs.Tracer) (*Result, error) {
			return OptimalOrderingParallel(ctx, tt, &SolveOptions{Meter: m, Trace: tr, Workers: 4})
		}},
	} {
		t.Run(run.name, func(t *testing.T) {
			ctx, cancel := stdctx.WithCancel(stdctx.Background())
			defer cancel()
			tr := &cancelAfterLayers{cancel: cancel, after: 2}
			m := &Meter{}
			res, err := run.solve(ctx, m, tr)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if res != nil {
				t.Fatalf("res = %+v, want nil (the DP has no incumbent)", res)
			}
			if got := tr.afterCancel.Load(); got > 1 {
				t.Errorf("%d layers completed after cancellation, want ≤ 1", got)
			}
			if m.LiveCells != 0 {
				t.Errorf("LiveCells = %d after abort, want 0 (all tables released)", m.LiveCells)
			}
		})
	}
}

// TestPreCanceledContext verifies every registered solver notices a
// context that is already done without grinding through the search, and
// that solvers with incumbents still return none (nothing was explored).
func TestPreCanceledContext(t *testing.T) {
	tt := truthtable.Random(9, rand.New(rand.NewSource(7)))
	ctx, cancel := stdctx.WithCancel(stdctx.Background())
	cancel()
	for _, name := range SolverNames() {
		solver, ok := LookupSolver(name)
		if !ok {
			t.Fatalf("registered solver %q vanished", name)
		}
		start := time.Now()
		_, err := solver(ctx, tt, &SolveOptions{})
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", name, err)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Errorf("%s: took %v on a pre-canceled context", name, el)
		}
	}
}

// TestBudgetNodesBnBIncumbent verifies budget exhaustion surfaces
// ErrBudgetExceeded together with the best incumbent the search had, and
// that the meter balances.
func TestBudgetNodesBnBIncumbent(t *testing.T) {
	tt := truthtable.Random(8, rand.New(rand.NewSource(3)))
	m := &Meter{}
	res, err := BranchAndBoundCtx(nil, tt, &SolveOptions{Meter: m, Budget: Budget{MaxNodes: 60}})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if res == nil {
		t.Fatal("no incumbent returned; 60 expansions cover several complete orderings at n=8")
	}
	if len(res.Ordering) != 8 || !res.Ordering.Valid() {
		t.Fatalf("incumbent ordering %v is not a permutation", res.Ordering)
	}
	// The incumbent must be an actual achievable cost.
	if got := SizeUnder(tt, res.Ordering, OBDD, nil); got != res.Size {
		t.Errorf("incumbent size %d but ordering achieves %d", res.Size, got)
	}
	if m.LiveCells != 0 {
		t.Errorf("LiveCells = %d after abort, want 0", m.LiveCells)
	}
}

// TestBudgetCells verifies the space budget: a cap far below the DP's
// peak aborts the run with ErrBudgetExceeded and a balanced meter, even
// without a caller-supplied meter (the solver must meter internally).
func TestBudgetCells(t *testing.T) {
	tt := truthtable.Random(10, rand.New(rand.NewSource(5)))
	res, err := OptimalOrderingCtx(nil, tt, &SolveOptions{Budget: Budget{MaxCells: 4096}})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if res != nil {
		t.Fatalf("res = %+v, want nil", res)
	}
	m := &Meter{}
	if _, err := OptimalOrderingCtx(nil, tt, &SolveOptions{Meter: m, Budget: Budget{MaxCells: 4096}}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("metered: err = %v, want ErrBudgetExceeded", err)
	}
	if m.LiveCells != 0 {
		t.Errorf("LiveCells = %d after abort, want 0", m.LiveCells)
	}
}

// TestCancelSharedAndDnC covers the remaining context-aware entry points'
// abort bookkeeping. Divide-and-conquer is swept over node budgets at
// every composition depth, so a stop lands in the preprocessing DP, in
// minimizer-driven evaluations and in the winning split's recomputation.
func TestCancelSharedAndDnC(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tts := []*truthtable.Table{truthtable.Random(8, rng), truthtable.Random(8, rng)}
	m := &Meter{}
	if _, err := OptimalOrderingSharedCtx(nil, tts, &SolveOptions{Meter: m, Budget: Budget{MaxNodes: 40}}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("shared: err = %v, want ErrBudgetExceeded", err)
	}
	if m.LiveCells != 0 {
		t.Errorf("shared: LiveCells = %d after abort, want 0", m.LiveCells)
	}

	canceled, cancel := stdctx.WithCancel(stdctx.Background())
	cancel()
	for _, n := range []int{6, 8} {
		tt := truthtable.Random(n, rng)
		want := OptimalOrdering(tt, nil).MinCost
		for depth := 0; depth <= 2; depth++ {
			// Every DnC checkpoint is one DP transition, so an
			// unbudgeted run's compaction count is its node count.
			full := &Meter{}
			DivideAndConquer(tt, &SolveOptions{Meter: full, Depth: depth})
			nodes := full.Compactions
			budgets := []uint64{nodes - 1}
			for b := uint64(1); b < nodes-1; b += nodes/32 + 1 {
				budgets = append(budgets, b)
			}
			for _, b := range budgets {
				m := &Meter{}
				res, err := DivideAndConquerCtx(nil, tt, &SolveOptions{Meter: m, Depth: depth, Budget: Budget{MaxNodes: b}})
				if !errors.Is(err, ErrBudgetExceeded) || res != nil {
					t.Fatalf("n=%d depth=%d MaxNodes=%d of %d: res = %v, err = %v; want nil, ErrBudgetExceeded", n, depth, b, nodes, res, err)
				}
				if m.LiveCells != 0 {
					t.Fatalf("n=%d depth=%d MaxNodes=%d: LiveCells = %d after abort, want 0", n, depth, b, m.LiveCells)
				}
			}
			if _, err := DivideAndConquerCtx(canceled, tt, &SolveOptions{Depth: depth}); !errors.Is(err, ErrCanceled) {
				t.Errorf("n=%d depth=%d: pre-canceled err = %v, want ErrCanceled", n, depth, err)
			}
			res, err := DivideAndConquerCtx(nil, tt, &SolveOptions{Depth: depth, Budget: Budget{MaxNodes: nodes}})
			if err != nil || res.MinCost != want {
				t.Errorf("n=%d depth=%d MaxNodes=%d: res = %v, err = %v; want MinCost %d", n, depth, nodes, res, err, want)
			}
		}
	}
}

// TestCtxEntryPointsMatchLegacy pins the refactor: the Ctx variants with
// a nil context and zero budget produce exactly the legacy results.
func TestCtxEntryPointsMatchLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 5; i++ {
		tt := truthtable.Random(7, rng)
		want := OptimalOrdering(tt, nil)
		for _, name := range []string{"fs", "parallel", "bnb", "brute", "dnc"} {
			solver, _ := LookupSolver(name)
			got, err := solver(nil, tt, &SolveOptions{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got.MinCost != want.MinCost {
				t.Errorf("%s: MinCost = %d, want %d", name, got.MinCost, want.MinCost)
			}
		}
	}
}
