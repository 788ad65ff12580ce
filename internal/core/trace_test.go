package core

import (
	"sync"
	"testing"

	"obddopt/internal/obs"
	"obddopt/internal/truthtable"
)

// traceFixture is a function with enough structure that every solver does
// real work: x1&x2 | x3&x4 | x5&x6 over 6 variables.
func traceFixture(t *testing.T) *truthtable.Table {
	t.Helper()
	tt := truthtable.FromFunc(6, func(x []bool) bool {
		return x[0] && x[1] || x[2] && x[3] || x[4] && x[5]
	})
	return tt
}

// TestTraceLayerEventsFS checks the per-layer event contract of the
// dynamic program: exactly n LayerStart and n LayerEnd events, in
// cardinality order, and the layer cell-op totals summing to the meter's.
func TestTraceLayerEventsFS(t *testing.T) {
	tt := traceFixture(t)
	n := tt.NumVars()
	rec := obs.NewRecorder()
	m := &Meter{}
	res := OptimalOrdering(tt, &SolveOptions{Meter: m, Trace: rec})

	if got := rec.Count(obs.KindLayerStart); got != n {
		t.Errorf("LayerStart events = %d, want %d", got, n)
	}
	if got := rec.Count(obs.KindLayerEnd); got != n {
		t.Errorf("LayerEnd events = %d, want %d", got, n)
	}
	k := 0
	for _, ev := range rec.Events() {
		if ev.Kind != obs.KindLayerEnd {
			continue
		}
		k++
		if ev.K != k {
			t.Errorf("LayerEnd out of order: got k=%d at position %d", ev.K, k)
		}
		if ev.Subsets <= 0 {
			t.Errorf("layer %d reports %d subsets", ev.K, ev.Subsets)
		}
	}
	if sum := rec.SumCellOps(obs.KindLayerEnd); sum != m.CellOps {
		t.Errorf("Σ LayerEnd.CellOps = %d, want Meter.CellOps = %d", sum, m.CellOps)
	}
	// Per-compaction events must also sum to the meter (they partition
	// the same work).
	if sum := rec.SumCellOps(obs.KindCompaction); sum != m.CellOps {
		t.Errorf("Σ Compaction.CellOps = %d, want Meter.CellOps = %d", sum, m.CellOps)
	}
	if res.MinCost == 0 {
		t.Fatalf("degenerate fixture")
	}
}

// TestTraceLayerEventsParallel checks that the parallel DP emits the same
// layer-event contract from its coordinator, with cell ops matching the
// merged meter.
func TestTraceLayerEventsParallel(t *testing.T) {
	tt := traceFixture(t)
	n := tt.NumVars()
	rec := obs.NewRecorder()
	m := &Meter{}
	res := mustResult(OptimalOrderingParallel(nil, tt, &SolveOptions{Meter: m, Trace: rec, Workers: 4}))

	if got := rec.Count(obs.KindLayerEnd); got != n {
		t.Errorf("LayerEnd events = %d, want %d", got, n)
	}
	if sum := rec.SumCellOps(obs.KindLayerEnd); sum != m.CellOps {
		t.Errorf("Σ LayerEnd.CellOps = %d, want Meter.CellOps = %d", sum, m.CellOps)
	}
	serial := OptimalOrdering(tt, nil)
	if res.MinCost != serial.MinCost {
		t.Errorf("parallel traced MinCost = %d, serial = %d", res.MinCost, serial.MinCost)
	}
}

// TestTraceBnBCellOps checks the branch-and-bound invariant: expansion
// events carry exactly the cell ops the meter accumulates.
func TestTraceBnBCellOps(t *testing.T) {
	tt := traceFixture(t)
	rec := obs.NewRecorder()
	m := &Meter{}
	res := BranchAndBound(tt, &BnBOptions{Meter: m, Trace: rec})

	if got := rec.Count(obs.KindBnBExpand); got == 0 {
		t.Fatalf("no BnBExpand events")
	}
	if sum := rec.SumCellOps(obs.KindBnBExpand); sum != m.CellOps {
		t.Errorf("Σ BnBExpand.CellOps = %d, want Meter.CellOps = %d", sum, m.CellOps)
	}
	if got := rec.Count(obs.KindBnBBest); got == 0 {
		t.Errorf("no incumbent improvements recorded")
	}
	// The final incumbent event must carry the returned optimum.
	var last uint64
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindBnBBest {
			last = ev.Cost
		}
	}
	if last != res.MinCost {
		t.Errorf("last BnBBest cost = %d, want MinCost = %d", last, res.MinCost)
	}
}

// TestTraceDnC checks that divide-and-conquer emits split/merge pairs and
// quantum batches, and that its DP layer events account for the meter.
func TestTraceDnC(t *testing.T) {
	tt := traceFixture(t)
	rec := obs.NewRecorder()
	m := &Meter{}
	res := DivideAndConquer(tt, &DnCOptions{Meter: m, Trace: rec})

	splits := rec.Count(obs.KindDnCSplit)
	merges := rec.Count(obs.KindDnCMerge)
	if splits == 0 || merges == 0 {
		t.Fatalf("want ≥1 split and merge, got %d/%d", splits, merges)
	}
	if splits != merges {
		t.Errorf("splits (%d) != merges (%d)", splits, merges)
	}
	if got := rec.Count(obs.KindQuantumBatch); got != splits {
		t.Errorf("quantum batches = %d, want one per split = %d", got, splits)
	}
	if sum := rec.SumCellOps(obs.KindLayerEnd); sum != m.CellOps {
		t.Errorf("Σ LayerEnd.CellOps = %d, want Meter.CellOps = %d", sum, m.CellOps)
	}
	serial := OptimalOrdering(tt, nil)
	if res.MinCost != serial.MinCost {
		t.Errorf("dnc MinCost = %d, serial = %d", res.MinCost, serial.MinCost)
	}
}

// TestTraceShared checks the shared-forest DP layer contract on the
// serial reference and on the engine: one LayerEnd per variable, whose
// CellOps sum to the meter's.
func TestTraceShared(t *testing.T) {
	f := truthtable.FromFunc(4, func(x []bool) bool { return x[0] && x[1] || x[2] })
	g := truthtable.FromFunc(4, func(x []bool) bool { return x[1] != x[3] })
	tts := []*truthtable.Table{f, g}
	for _, run := range []struct {
		name  string
		solve func(*SolveOptions)
	}{
		{"serial", func(o *SolveOptions) { OptimalOrderingShared(tts, o) }},
		{"engine", func(o *SolveOptions) { mustResult(OptimalOrderingSharedParallel(nil, tts, o)) }},
	} {
		rec := obs.NewRecorder()
		m := &Meter{}
		run.solve(&SolveOptions{Meter: m, Trace: rec, Workers: 2})
		if got := rec.Count(obs.KindLayerEnd); got != 4 {
			t.Errorf("%s: LayerEnd events = %d, want 4", run.name, got)
		}
		if sum := rec.SumCellOps(obs.KindLayerEnd); sum != m.CellOps {
			t.Errorf("%s: Σ LayerEnd.CellOps = %d, want Meter.CellOps = %d", run.name, sum, m.CellOps)
		}
	}
}

// TestTraceParallelRace attaches a recording tracer to concurrent
// parallel runs; meaningful under `go test -race`.
func TestTraceParallelRace(t *testing.T) {
	tt := traceFixture(t)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := obs.NewRecorder()
			m := &Meter{}
			res := mustResult(OptimalOrderingParallel(nil, tt, &SolveOptions{Meter: m, Trace: rec, Workers: 4}))
			if res.MinCost == 0 || rec.Count(obs.KindLayerEnd) != tt.NumVars() {
				t.Errorf("traced parallel run inconsistent: cost %d, layers %d",
					res.MinCost, rec.Count(obs.KindLayerEnd))
			}
		}()
	}
	wg.Wait()
}

// TestTraceNilSafety runs every solver with a nil tracer and a nil meter —
// the zero-cost path must not panic anywhere.
func TestTraceNilSafety(t *testing.T) {
	tt := traceFixture(t)
	OptimalOrdering(tt, nil)
	mustResult(OptimalOrderingParallel(nil, tt, nil))
	BranchAndBound(tt, nil)
	DivideAndConquer(tt, nil)
	BruteForce(tt, nil)
	DivideAndConquerComposed(tt, &LadderOptions{Depth: 1})
}
