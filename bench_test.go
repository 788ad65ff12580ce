package obddopt

// Benchmark harness: one testing.B benchmark per reproduced table/figure
// (experiments E1–E14 of DESIGN.md), each delegating to the experiment
// runner in internal/exp, plus micro-benchmarks for the core primitives.
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// The experiment tables themselves are printed by `go run ./cmd/bddbench`;
// here the runners execute against io.Discard so the benchmark numbers
// measure the computation, not terminal I/O.

import (
	"io"
	"math/rand"
	"testing"

	"obddopt/internal/conformance"
	"obddopt/internal/core"
	"obddopt/internal/exp"
	"obddopt/internal/funcs"
	"obddopt/internal/heuristics"
	"obddopt/internal/obs"
	"obddopt/internal/truthtable"
)

func benchExperiment(b *testing.B, id string) {
	cfg := exp.Config{Seed: 1, Quick: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := exp.Run(id, io.Discard, cfg); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// BenchmarkE1AchillesHeel regenerates Fig. 1 (ordering sensitivity).
func BenchmarkE1AchillesHeel(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2Table1 regenerates Table 1 (γ_k and α vectors).
func BenchmarkE2Table1(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3Table2 regenerates Table 2 (composition iteration).
func BenchmarkE3Table2(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4FSScaling regenerates the O*(3^n) scaling experiment.
func BenchmarkE4FSScaling(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5BruteForce regenerates the brute-force comparison.
func BenchmarkE5BruteForce(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6QueryModel regenerates the quantum-query-model comparison.
func BenchmarkE6QueryModel(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7CrossCheck regenerates the agreement experiment.
func BenchmarkE7CrossCheck(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8Heuristics regenerates the heuristic-quality table.
func BenchmarkE8Heuristics(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9ZDD regenerates the ZDD-adaptation experiment.
func BenchmarkE9ZDD(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10MTBDD regenerates the MTBDD-generalization experiment.
func BenchmarkE10MTBDD(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11Representations regenerates the Corollary 2 experiment.
func BenchmarkE11Representations(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12FSStar regenerates the composable-FS* cost-shape sweep.
func BenchmarkE12FSStar(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13ErrorModel regenerates the error-injection experiment.
func BenchmarkE13ErrorModel(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14Space regenerates the space-accounting experiment.
func BenchmarkE14Space(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkE15BranchAndBound regenerates the B&B-vs-DP ablation.
func BenchmarkE15BranchAndBound(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkE16QuantumValidation regenerates the statevector-vs-model and
// dynamic-reordering validation.
func BenchmarkE16QuantumValidation(b *testing.B) { benchExperiment(b, "E16") }

// BenchmarkE17SharedForest regenerates the multi-output shared-forest
// extension experiment.
func BenchmarkE17SharedForest(b *testing.B) { benchExperiment(b, "E17") }

// BenchmarkE18Symmetry regenerates the symmetry-exploitation experiment.
func BenchmarkE18Symmetry(b *testing.B) { benchExperiment(b, "E18") }

// --- micro-benchmarks for the core primitives ---

func benchOptimal(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(1))
	f := truthtable.Random(n, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.OptimalOrdering(f, nil)
	}
}

// BenchmarkFS10 runs the full dynamic program on a random 10-variable
// function (3^10 ≈ 59k subset-cells).
func BenchmarkFS10(b *testing.B) { benchOptimal(b, 10) }

// BenchmarkFS12 runs the full dynamic program on 12 variables.
func BenchmarkFS12(b *testing.B) { benchOptimal(b, 12) }

// BenchmarkFS14 runs the full dynamic program on 14 variables.
func BenchmarkFS14(b *testing.B) {
	if testing.Short() {
		b.Skip("long")
	}
	benchOptimal(b, 14)
}

// BenchmarkOptimalOrdering is the untraced baseline for the tracing
// overhead comparison: the full dynamic program on a random 12-variable
// function with metering but no tracer attached (the nil fast path).
func BenchmarkOptimalOrdering(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	f := truthtable.Random(12, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.OptimalOrdering(f, &core.SolveOptions{Meter: &core.Meter{}})
	}
}

// BenchmarkOptimalOrderingTraced is the same run with a Collector tracer
// attached, measuring the cost of live event folding. Measured deltas on
// the development machine: the nil-tracer path (BenchmarkOptimalOrdering)
// is within noise (<1%) of the pre-instrumentation baseline because all
// emissions sit behind a single `tr != nil` branch per layer/compaction
// and global metrics are flushed once per layer, not per cell; attaching
// the Collector costs ~1–2% on n=12 (one mutexed event per compaction,
// amortized over ~2000 table-cell operations each).
func BenchmarkOptimalOrderingTraced(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	f := truthtable.Random(12, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := NewRunCollector()
		core.OptimalOrdering(f, &core.SolveOptions{Meter: &core.Meter{}, Trace: col})
		if col.Report().Events == 0 {
			b.Fatal("tracer saw no events")
		}
	}
}

// BenchmarkOptimalOrderingHistogram is the same run with the histogram
// sink attached instead of the Collector: every KindLayerEnd folds into
// the dp_layer histograms (a few atomic adds per layer). This is the
// histogram half of the overhead contract — the nil-tracer baseline
// (BenchmarkOptimalOrdering) must stay within 2% of its
// pre-instrumentation numbers, and the sink's per-layer cost is
// amortized over thousands of cell operations per layer.
func BenchmarkOptimalOrderingHistogram(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	f := truthtable.Random(12, rng)
	sink := obs.NewHistogramSink()
	before := obs.Hist(obs.HistNameDPLayer).Count()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.OptimalOrdering(f, &core.SolveOptions{Meter: &core.Meter{}, Trace: sink})
	}
	b.StopTimer()
	if obs.Hist(obs.HistNameDPLayer).Count() == before {
		b.Fatal("histogram sink recorded no layers")
	}
}

// BenchmarkProfile12 measures the single-ordering width oracle.
func BenchmarkProfile12(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	f := truthtable.Random(12, rng)
	ord := truthtable.RandomOrdering(12, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Profile(f, ord, core.OBDD, nil)
	}
}

// BenchmarkSift12 measures a full sifting run on 12 variables.
func BenchmarkSift12(b *testing.B) {
	f := funcs.AchillesHeel(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		heuristics.Sift(f, core.OBDD, 0)
	}
}

// BenchmarkBuildBDD12 measures materializing a 12-variable diagram in the
// BDD manager.
func BenchmarkBuildBDD12(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	f := truthtable.Random(12, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildBDD(f, truthtable.IdentityOrdering(12))
	}
}

// BenchmarkDivideAndConquer9 measures the simulated-quantum algorithm end
// to end on 9 variables.
func BenchmarkDivideAndConquer9(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	f := truthtable.Random(9, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DivideAndConquer(f, nil)
	}
}

// BenchmarkEngineFrontier times the work-stealing DP engine alone on the
// workload suite's dp-frontier mix, at two workers. One op is one pass
// over 18 single-root solves through core.OptimalOrderingParallel
// (random, sparse and symmetric tables × OBDD/ZDD × n 12–14) and 6
// shared-forest solves of 3 random roots at n=12 through
// core.OptimalOrderingSharedParallel, alternating the rule: the suite's
// one shared solve in four. Besides ns/op it reports ns per metered cell
// operation, Theorem 5's unit.
func BenchmarkEngineFrontier(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rules := []core.Rule{core.OBDD, core.ZDD}
	type single struct {
		tt   *truthtable.Table
		rule core.Rule
	}
	var singles []single
	for _, fam := range conformance.Families() {
		if fam.Name != "random" && fam.Name != "sparse" && fam.Name != "symmetric" {
			continue
		}
		for _, rule := range rules {
			for n := 12; n <= 14; n++ {
				singles = append(singles, single{fam.New(n, rng), rule})
			}
		}
	}
	forests := make([][]*truthtable.Table, 6)
	for f := range forests {
		for r := 0; r < 3; r++ {
			forests[f] = append(forests[f], truthtable.Random(12, rng))
		}
	}
	m := &core.Meter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range singles {
			if _, err := core.OptimalOrderingParallel(nil, s.tt, &core.SolveOptions{Rule: s.rule, Workers: 2, Meter: m}); err != nil {
				b.Fatal(err)
			}
		}
		for f, roots := range forests {
			if _, err := core.OptimalOrderingSharedParallel(nil, roots, &core.SolveOptions{Rule: rules[f%2], Workers: 2, Meter: m}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(m.CellOps), "ns/cell")
}
