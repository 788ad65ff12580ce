package obs

import (
	"expvar"
	"strconv"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. It implements
// expvar.Var so it can be published on /debug/vars.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// String implements expvar.Var.
func (c *Counter) String() string { return strconv.FormatUint(c.v.Load(), 10) }

// Gauge is an atomic up/down level — a point-in-time quantity such as
// queue depth or in-flight workers, as opposed to a monotonic Counter.
// It implements expvar.Var.
type Gauge struct{ v atomic.Int64 }

// Inc raises the gauge by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec lowers the gauge by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set forces the gauge to n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// String implements expvar.Var.
func (g *Gauge) String() string { return strconv.FormatInt(g.v.Load(), 10) }

// MaxGauge tracks the maximum value ever observed. It implements
// expvar.Var.
type MaxGauge struct{ v atomic.Uint64 }

// Observe raises the gauge to n if n exceeds the current maximum.
func (g *MaxGauge) Observe(n uint64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the maximum observed so far.
func (g *MaxGauge) Value() uint64 { return g.v.Load() }

// String implements expvar.Var.
func (g *MaxGauge) String() string { return strconv.FormatUint(g.v.Load(), 10) }

// Metrics is the process-wide registry: every solver run in the process
// accumulates into these counters regardless of whether a Meter or Tracer
// is attached (updates are layer- or run-granular, never per cell). The
// registry is published on expvar under the "obddopt" map, so a process
// serving /debug/vars (see StartDebugServer) exposes live totals.
var Metrics struct {
	// RunsStarted / RunsCompleted count solver entry points entered and
	// finished (OptimalOrdering and friends).
	RunsStarted   Counter
	RunsCompleted Counter
	// CellOps counts table-compaction cell visits across all runs — the
	// unit of the papers' n·3^{n−1} time bound.
	CellOps Counter
	// Compactions counts COMPACT invocations (DP transitions).
	Compactions Counter
	// Evaluations counts cost-oracle evaluations (complete orderings
	// costed by search drivers and heuristics).
	Evaluations Counter
	// WorkerSpawns counts goroutines launched by the parallel solver
	// (its worker 0 runs on the calling goroutine).
	WorkerSpawns Counter
	// ShardsExecuted counts lattice shards processed by the pipelined
	// DP scheduler. ShardSteals reads 0, since every worker runs only
	// the shards it claims; the workload benchmark (benchsuite) still
	// reads it, for core.dp.steal_frac.
	ShardsExecuted Counter
	ShardSteals    Counter
	// PeakCells is the largest metered live-cell count ever observed —
	// Remark 1's space quantity, process-wide.
	PeakCells MaxGauge
	// CacheHits / CacheMisses / CacheEvictions / CacheCoalesced count
	// canonical-result-cache lookups (see internal/cache): entries served
	// without a solver run, entries that required one, entries displaced
	// by the byte bound, and lookups coalesced onto an identical
	// in-flight computation by single-flight.
	CacheHits      Counter
	CacheMisses    Counter
	CacheEvictions Counter
	CacheCoalesced Counter
	// RequestsServed / RequestsRejected count network solve requests
	// admitted and completed versus turned away by admission control
	// (saturated queue or draining server); see internal/server.
	RequestsServed   Counter
	RequestsRejected Counter
	// QueueDepth is the number of admitted requests currently waiting
	// for a worker slot; InFlightWorkers the number currently holding
	// one (running a solver). Both are levels, not totals — the
	// admission layer raises and lowers them around its semaphores.
	QueueDepth      Gauge
	InFlightWorkers Gauge
}

func init() {
	m := expvar.NewMap("obddopt")
	m.Set("runs_started", &Metrics.RunsStarted)
	m.Set("runs_completed", &Metrics.RunsCompleted)
	m.Set("cell_ops", &Metrics.CellOps)
	m.Set("compactions", &Metrics.Compactions)
	m.Set("evaluations", &Metrics.Evaluations)
	m.Set("worker_spawns", &Metrics.WorkerSpawns)
	m.Set("shards_executed", &Metrics.ShardsExecuted)
	m.Set("shard_steals", &Metrics.ShardSteals)
	m.Set("peak_cells", &Metrics.PeakCells)
	m.Set("cache_hits", &Metrics.CacheHits)
	m.Set("cache_misses", &Metrics.CacheMisses)
	m.Set("cache_evictions", &Metrics.CacheEvictions)
	m.Set("cache_coalesced", &Metrics.CacheCoalesced)
	m.Set("requests_served", &Metrics.RequestsServed)
	m.Set("requests_rejected", &Metrics.RequestsRejected)
	m.Set("queue_depth", &Metrics.QueueDepth)
	m.Set("inflight_workers", &Metrics.InFlightWorkers)
}

// clampUint64 renders a gauge level for the uint64 snapshot map; levels
// are never negative in steady state, but a mid-transition read may see
// a transient dip below zero.
func clampUint64(v int64) uint64 {
	if v < 0 {
		return 0
	}
	return uint64(v)
}

// MetricsSnapshot returns the current value of every registry metric,
// keyed by its expvar name. Subtracting two snapshots isolates one run's
// contribution.
func MetricsSnapshot() map[string]uint64 {
	return map[string]uint64{
		"runs_started":      Metrics.RunsStarted.Value(),
		"runs_completed":    Metrics.RunsCompleted.Value(),
		"cell_ops":          Metrics.CellOps.Value(),
		"compactions":       Metrics.Compactions.Value(),
		"evaluations":       Metrics.Evaluations.Value(),
		"worker_spawns":     Metrics.WorkerSpawns.Value(),
		"shards_executed":   Metrics.ShardsExecuted.Value(),
		"shard_steals":      Metrics.ShardSteals.Value(),
		"peak_cells":        Metrics.PeakCells.Value(),
		"cache_hits":        Metrics.CacheHits.Value(),
		"cache_misses":      Metrics.CacheMisses.Value(),
		"cache_evictions":   Metrics.CacheEvictions.Value(),
		"cache_coalesced":   Metrics.CacheCoalesced.Value(),
		"requests_served":   Metrics.RequestsServed.Value(),
		"requests_rejected": Metrics.RequestsRejected.Value(),
		"queue_depth":       clampUint64(Metrics.QueueDepth.Value()),
		"inflight_workers":  clampUint64(Metrics.InFlightWorkers.Value()),
	}
}

// MetricsDelta subtracts snapshot before from after, field by field.
// Gauges (peak_cells, queue_depth, inflight_workers) are passed through
// from after, since a level or maximum is not additive.
func MetricsDelta(before, after map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(after))
	for k, v := range after {
		if gaugeMetrics[k] {
			out[k] = v
			continue
		}
		out[k] = v - before[k]
	}
	return out
}
