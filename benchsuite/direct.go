package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"obddopt"
	"obddopt/internal/artifact"
	"obddopt/internal/bitops"
	"obddopt/internal/cache"
	"obddopt/internal/core"
	"obddopt/internal/heuristics"
	"obddopt/internal/obs"
	"obddopt/internal/truthtable"
)

// The traced run's direct calls: for a seeded sample of the workload's
// inputs, each module's public functions are timed on their own, and
// every solver's answer is held against the serial fs optimum.

// directSample picks, per size, a seeded choice of the workload's
// single-table inputs, plus its first shared input, for the direct
// module calls.
func directSample(w *workload, p *plan, seed int64) []*input {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	bySize := map[int][]*input{}
	var shared *input
	for _, in := range p.inputs {
		if len(in.tables) > 1 {
			if shared == nil {
				shared = in
			}
			continue
		}
		bySize[in.n()] = append(bySize[in.n()], in)
	}
	var out []*input
	for _, n := range w.sizes {
		c := bySize[n]
		for _, i := range rng.Perm(len(c))[:min(w.directPerSize, len(c))] {
			out = append(out, c[i])
		}
	}
	if shared != nil {
		out = append(out, shared)
	}
	return out
}

// directRun times each module's public functions on the sample inputs.
type directRun struct {
	ctx      context.Context
	spans    *spanLog
	problems []string

	seedNS, fsNS, parNS, sharedNS, bnbNS, facadeNS int64
	seeds, fsRuns, parRuns, sharedRuns, bnbRuns    int
	evals                                          uint64
	seedOptimal                                    int
	cellOps, analyticOps, peakCells, peakBound     uint64
	maxPeak                                        uint64
	steals, shards                                 uint64
	layerNS                                        [maxLayer + 1]int64
	layerRuns                                      [maxLayer + 1]int
	layerCells, layerAnalytic                      [maxLayer + 1]uint64
	expansions, prunes                             uint64
	laneNS, aloneNS                                int64
	buildNS, encodeNS, decodeNS                    int64
	artifacts                                      int
	artBytes, artNodes                             uint64
	parseNS, hexNS                                 int64
	lookupsUS                                      []float64
}

// Repetitions of the microsecond-scale direct calls, so each sample is
// well above the clock's resolution.
const (
	ttReps     = 20
	artReps    = 5
	lookupReps = 200
)

// timed runs f under a span and returns the span's ID and duration.
func (d *directRun) timed(opID, parent int, name string, f func()) (int, time.Duration) {
	start := time.Now()
	f()
	end := time.Now()
	return d.spans.add(opID, parent, name, start.UnixNano(), end.UnixNano()), end.Sub(start)
}

func (d *directRun) fail(in *input, format string, args ...any) {
	d.problems = append(d.problems, fmt.Sprintf("direct call on input %d (%s %s n=%d): %s",
		in.id, in.family, in.rule, in.n(), fmt.Sprintf(format, args...)))
}

// call makes every direct module call on in.
func (d *directRun) call(opID int, in *input) {
	root := d.spans.add(opID, 0, "direct", time.Now().UnixNano(), 0)
	defer func() { d.spans.setEnd(root, time.Now().UnixNano()) }()
	opts := &core.SolveOptions{Rule: in.rule}
	if len(in.tables) > 1 {
		var err error
		_, dur := d.timed(opID, root, "core.dp.shared", func() { _, err = core.OptimalOrderingSharedCtx(d.ctx, in.tables, opts) })
		if err != nil {
			d.fail(in, "shared: %v", err)
		}
		d.sharedNS += int64(dur)
		d.sharedRuns++
		return
	}
	tt, rule, n := in.tables[0], in.rule, in.n()

	var hex string
	_, dur := d.timed(opID, root, "truthtable.Hex", func() {
		for i := 0; i < ttReps; i++ {
			hex = tt.Hex()
		}
	})
	d.hexNS += int64(dur) / ttReps
	var perr error
	_, dur = d.timed(opID, root, "truthtable.ParseHex", func() {
		for i := 0; i < ttReps && perr == nil; i++ {
			_, perr = truthtable.ParseHex(hex)
		}
	})
	if perr != nil {
		d.fail(in, "ParseHex: %v", perr)
	}
	d.parseNS += int64(dur) / ttReps

	var seedCost uint64
	evals0 := obs.Metrics.Evaluations.Value()
	_, dur = d.timed(opID, root, "heuristics.Seed", func() { _, seedCost, _ = heuristics.Seed(d.ctx, tt, rule, nil) })
	d.evals += obs.Metrics.Evaluations.Value() - evals0
	d.seedNS += int64(dur)
	d.seeds++

	m, ftr := &core.Meter{}, &benchTracer{}
	var (
		ref *core.Result
		err error
	)
	fsID, fsDur := d.timed(opID, root, "core.dp.fs", func() {
		ref, err = core.OptimalOrderingCtx(d.ctx, tt, &core.SolveOptions{Rule: rule, Meter: m, Trace: ftr})
	})
	if err != nil {
		d.fail(in, "fs: %v", err)
		return
	}
	layers := ftr.take()
	eventSpans(d.spans, opID, fsID, layers)
	d.fsNS += int64(fsDur)
	d.fsRuns++
	d.cellOps += m.CellOps
	d.analyticOps += cellOpsBound(n)
	d.peakCells += m.PeakCells
	d.peakBound += remark1Bound(n)
	d.maxPeak = max(d.maxPeak, m.PeakCells)
	for _, e := range layers {
		if k := e.ev.K; e.ev.Kind == obs.KindLayerEnd && k >= 1 && k <= maxLayer {
			d.layerNS[k] += int64(e.ev.Elapsed)
			d.layerRuns[k]++
			d.layerCells[k] += e.ev.CellOps
			d.layerAnalytic[k] += layerCellOps(n, k)
		}
	}
	if seedCost == ref.MinCost {
		d.seedOptimal++
	}

	pm := &core.Meter{}
	shards0, steals0 := obs.Metrics.ShardsExecuted.Value(), obs.Metrics.ShardSteals.Value()
	var pres *core.Result
	_, parDur := d.timed(opID, root, "core.dp.parallel", func() {
		pres, err = core.OptimalOrderingParallel(d.ctx, tt, &core.SolveOptions{Rule: rule, Meter: pm})
	})
	d.shards += obs.Metrics.ShardsExecuted.Value() - shards0
	d.steals += obs.Metrics.ShardSteals.Value() - steals0
	d.expect(in, "parallel", pres, err, ref.MinCost)
	d.parNS += int64(parDur)
	d.parRuns++
	d.maxPeak = max(d.maxPeak, pm.PeakCells)

	var sres *core.SharedResult
	_, dur = d.timed(opID, root, "core.dp.shared", func() {
		sres, err = core.OptimalOrderingSharedCtx(d.ctx, []*truthtable.Table{tt}, opts)
	})
	if err != nil || sres.MinCost != ref.MinCost {
		d.fail(in, "shared single root: %v (want cost %d)", err, ref.MinCost)
	}
	d.sharedNS += int64(dur)
	d.sharedRuns++

	btr := &benchTracer{}
	var bres *core.Result
	_, dur = d.timed(opID, root, "core.bnb", func() {
		bctx, cancel := context.WithTimeout(d.ctx, bnbCap)
		defer cancel()
		bres, err = core.BranchAndBoundCtx(bctx, tt, &core.BnBOptions{Rule: rule, Trace: btr, InitialBound: seedCost + 1})
	})
	if !errors.Is(err, core.ErrCanceled) {
		d.expect(in, "bnb", bres, err, ref.MinCost)
	}
	d.bnbNS += int64(dur)
	d.bnbRuns++
	d.expansions += btr.count(obs.KindBnBExpand)
	d.prunes += btr.count(obs.KindBnBPruneMemo) + btr.count(obs.KindBnBPruneIncumbent) + btr.count(obs.KindBnBPruneBound)

	ptr := &benchTracer{}
	wall := obs.Hist(obs.HistNameSolverWall, "solver", "portfolio")
	wall0 := wall.Sum()
	var port *core.Result
	sid, dur := d.timed(opID, root, "obddopt.Solve", func() {
		port, err = obddopt.Solve(d.ctx, tt, obddopt.WithRule(rule), obddopt.WithTrace(ptr))
	})
	d.facadeNS += int64(dur) - int64(wall.Sum()-wall0)
	d.expect(in, "portfolio", port, err, ref.MinCost)
	events := ptr.take()
	eventSpans(d.spans, opID, sid, events)
	for _, e := range events {
		if e.ev.Kind != obs.KindLaneResult {
			continue
		}
		switch e.ev.Lane {
		case "fs":
			d.laneNS += int64(e.ev.Elapsed)
			d.aloneNS += int64(fsDur)
		case "parallel":
			d.laneNS += int64(e.ev.Elapsed)
			d.aloneNS += int64(parDur)
		}
	}

	var (
		a   *artifact.Artifact
		enc []byte
	)
	_, dur = d.timed(opID, root, "artifact.Build", func() {
		for i := 0; i < artReps && err == nil; i++ {
			a, err = artifact.Build(tt, ref.Ordering)
		}
	})
	if err != nil {
		d.fail(in, "artifact.Build: %v", err)
		return
	}
	d.buildNS += int64(dur) / artReps
	_, dur = d.timed(opID, root, "artifact.Encode", func() {
		for i := 0; i < artReps; i++ {
			enc = a.Encode()
		}
	})
	d.encodeNS += int64(dur) / artReps
	_, dur = d.timed(opID, root, "artifact.Decode", func() {
		for i := 0; i < artReps && err == nil; i++ {
			_, err = artifact.Decode(enc)
		}
	})
	if err != nil {
		d.fail(in, "artifact.Decode: %v", err)
	}
	d.decodeNS += int64(dur) / artReps
	d.artifacts++
	d.artBytes += uint64(len(enc))
	d.artNodes += a.NodeCount()

	c := cache.New(0)
	key := cache.Key(hex, rule.String(), cache.ClassExact)
	c.Put(key, ref, 1)
	d.timed(opID, root, "cache.Get", func() {
		for i := 0; i < lookupReps; i++ {
			start := time.Now()
			if _, ok := c.Get(key); !ok {
				d.fail(in, "cache.Get missed a stored key")
				return
			}
			d.lookupsUS = append(d.lookupsUS, float64(time.Since(start))/1e3)
		}
	})
}

// expect records a problem unless a solver agreed with the fs optimum.
func (d *directRun) expect(in *input, solver string, res *core.Result, err error, want uint64) {
	if err != nil {
		d.fail(in, "%s: %v", solver, err)
	} else if res.MinCost != want {
		d.fail(in, "%s cost %d, fs optimum %d", solver, res.MinCost, want)
	}
}

// metrics stores the direct calls' per-layer numbers in vals; peakHeap
// is the run's peak live heap in bytes.
func (d *directRun) metrics(vals map[string]float64, peakHeap uint64) {
	mean := func(ns int64, runs int, unit float64) float64 {
		if runs == 0 {
			return 0
		}
		return float64(ns) / float64(runs) / unit
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	vals["facade.overhead_us"] = mean(d.facadeNS, d.seeds, 1e3)
	vals["heuristics.seed_ms"] = mean(d.seedNS, d.seeds, 1e6)
	vals["heuristics.evals_per_seed"] = ratio(d.evals, uint64(d.seeds))
	vals["heuristics.seed_optimal_frac"] = ratio(uint64(d.seedOptimal), uint64(d.fsRuns))
	vals["core.portfolio.dp_lane_slowdown"] = ratio(uint64(d.laneNS), uint64(d.aloneNS))
	vals["core.dp.fs_ms"] = mean(d.fsNS, d.fsRuns, 1e6)
	vals["core.dp.parallel_ms"] = mean(d.parNS, d.parRuns, 1e6)
	vals["core.dp.shared_ms"] = mean(d.sharedNS, d.sharedRuns, 1e6)
	vals["core.dp.cell_ops_ratio"] = ratio(d.cellOps, d.analyticOps)
	vals["core.dp.peak_cells_ratio"] = ratio(d.peakCells, d.peakBound)
	vals["core.dp.cells_per_us"] = ratio(d.cellOps*1000, uint64(d.fsNS))
	vals["core.dp.heap_bytes_per_peak_cell"] = ratio(peakHeap, d.maxPeak)
	vals["core.dp.steal_frac"] = ratio(d.steals, d.shards)
	for k := 1; k <= maxLayer; k++ {
		vals[fmt.Sprintf("core.dp.layer_ms.k%02d", k)] = mean(d.layerNS[k], d.layerRuns[k], 1e6)
		vals[fmt.Sprintf("core.dp.layer_cells_ratio.k%02d", k)] = ratio(d.layerCells[k], d.layerAnalytic[k])
	}
	vals["core.bnb.seeded_ms"] = mean(d.bnbNS, d.bnbRuns, 1e6)
	vals["core.bnb.expansions"] = ratio(d.expansions, uint64(d.bnbRuns))
	vals["core.bnb.prune_frac"] = ratio(d.prunes, d.expansions)
	sort.Float64s(d.lookupsUS)
	vals["cache.lookup_us_p50"] = percentile(d.lookupsUS, 0.50)
	vals["artifact.build_us"] = mean(d.buildNS, d.artifacts, 1e3)
	vals["artifact.encode_us"] = mean(d.encodeNS, d.artifacts, 1e3)
	vals["artifact.decode_us"] = mean(d.decodeNS, d.artifacts, 1e3)
	vals["artifact.bytes_per_node"] = ratio(d.artBytes, d.artNodes)
	vals["truthtable.parse_us"] = mean(d.parseNS, d.seeds, 1e3)
	vals["truthtable.hex_us"] = mean(d.hexNS, d.seeds, 1e3)
}

// layerCellOps is Theorem 5's cell-operation count of popcount layer k:
// k·C(n,k)·2^{n−k}.
func layerCellOps(n, k int) uint64 {
	return uint64(k) * bitops.Binomial(n, k) << uint(n-k)
}

// cellOpsBound is the whole run's count, Σ_k k·C(n,k)·2^{n−k} = n·3^{n−1}.
func cellOpsBound(n int) uint64 {
	var total uint64
	for k := 1; k <= n; k++ {
		total += layerCellOps(n, k)
	}
	return total
}

// remark1Bound is experiment E14's two-layer space bound: the largest
// adjacent layer pair, max_k C(n,k)·2^{n−k} + C(n,k−1)·2^{n−k+1}, plus
// the base truth table.
func remark1Bound(n int) uint64 {
	var bound uint64
	for k := 1; k <= n; k++ {
		bound = max(bound, bitops.Binomial(n, k)<<uint(n-k)+bitops.Binomial(n, k-1)<<uint(n-k+1))
	}
	return bound + 1<<uint(n)
}
