package obs

import (
	"expvar"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the latency/size distribution side of the metrics
// registry: a lock-cheap log-linear histogram whose Record path is a
// handful of atomic adds, a process-wide named registry rendered on
// /debug/vars and /metrics, and a Tracer sink folding per-layer solver
// events into histograms. Counters (metrics.go) answer "how much";
// histograms answer "how is it distributed" — p50/p90/p99 solve
// latency, queue wait, per-lane wall time — the quantities every
// hot-path PR after this one is judged against.

// Histogram bucket geometry: values below 2^(histSubBits+1) get exact
// unit buckets; above that, each power-of-two octave is split into
// 2^histSubBits log-linear sub-buckets, so the relative width of any
// bucket is at most 2^-histSubBits = 1/8. Quantile estimates return a
// bucket upper bound and therefore over-estimate by at most 12.5% —
// tight enough to compare runs, cheap enough to record per layer.
const (
	histSubBits  = 3
	histSubCount = 1 << histSubBits
	histBuckets  = (64 - histSubBits + 1) * histSubCount
)

// bucketIndex maps a value to its bucket. Values 0..15 map exactly.
func bucketIndex(v uint64) int {
	if v < histSubCount*2 {
		return int(v)
	}
	e := uint(bits.Len64(v) - 1)
	sub := (v >> (e - histSubBits)) & (histSubCount - 1)
	return int((e-histSubBits+1)<<histSubBits + uint(sub))
}

// bucketUpper is the largest value stored in bucket i — the "le" bound
// of the Prometheus exposition.
func bucketUpper(i int) uint64 {
	if i < histSubCount*2 {
		return uint64(i)
	}
	block := uint(i >> histSubBits)
	sub := uint64(i & (histSubCount - 1))
	e := block + histSubBits - 1
	lower := uint64(1)<<e + sub<<(e-histSubBits)
	return lower + uint64(1)<<(e-histSubBits) - 1
}

// Histogram is a fixed-size log-linear histogram safe for concurrent
// Record calls: every mutation is an atomic add or CAS, no locks, so
// recording from solver lanes and request handlers never contends. Like
// Meter it is mergeable — Merge folds another histogram in bucket-wise,
// the idiom the portfolio uses for per-lane accounting.
//
// The nil-safety contract matches Tracer: methods must not be called on
// a nil *Histogram, and call sites either hold a registry-returned
// histogram (never nil) or guard with a nil check; the tracesafe
// analyzer enforces this.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	min     atomic.Uint64 // stores math.MaxUint64 until the first Record
	buckets [histBuckets]atomic.Uint64
}

// NewHistogram returns an unregistered histogram (tests, private
// accounting). Production histograms come from the registry via Hist.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxUint64)
	return h
}

// Record adds one observation.
func (h *Histogram) Record(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
}

// RecordDuration records d in nanoseconds; negative durations clamp to
// zero.
func (h *Histogram) RecordDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Record(uint64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() uint64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() uint64 {
	m := h.min.Load()
	if m == math.MaxUint64 && h.count.Load() == 0 {
		return 0
	}
	return m
}

// Quantile estimates the q-quantile (q in [0,1]) of the recorded
// distribution. The estimate is an upper bound of the true quantile and
// exceeds it by at most one bucket width — a relative error of at most
// 2^-histSubBits (12.5%) — and is additionally clamped to the exact
// observed maximum. Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= rank {
			v := bucketUpper(i)
			if mx := h.max.Load(); v > mx {
				v = mx
			}
			return v
		}
	}
	return h.max.Load()
}

// Merge folds other into h bucket-wise. Merging is commutative and
// associative on every statistic (the quantile estimator sees the union
// of the buckets), so per-lane histograms can be combined in any order.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
	for i := range h.buckets {
		if n := other.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	if v := other.max.Load(); other.count.Load() > 0 {
		for {
			cur := h.max.Load()
			if v <= cur || h.max.CompareAndSwap(cur, v) {
				break
			}
		}
		mn := other.min.Load()
		for {
			cur := h.min.Load()
			if mn >= cur || h.min.CompareAndSwap(cur, mn) {
				break
			}
		}
	}
}

// HistogramSnapshot is a point-in-time summary of one histogram, the
// shape embedded in /v1/stats and run reports.
type HistogramSnapshot struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	Min   uint64 `json:"min"`
	Max   uint64 `json:"max"`
	P50   uint64 `json:"p50"`
	P90   uint64 `json:"p90"`
	P99   uint64 `json:"p99"`
}

// Snapshot summarizes the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
}

// String implements expvar.Var: the snapshot as a JSON object.
func (h *Histogram) String() string {
	s := h.Snapshot()
	return fmt.Sprintf(`{"count":%d,"sum":%d,"min":%d,"max":%d,"p50":%d,"p90":%d,"p99":%d}`,
		s.Count, s.Sum, s.Min, s.Max, s.P50, s.P90, s.P99)
}

// eachBucket calls fn for every non-empty bucket in ascending value
// order with the bucket's inclusive upper bound and its count.
func (h *Histogram) eachBucket(fn func(upper uint64, n uint64)) {
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			fn(bucketUpper(i), n)
		}
	}
}

// ---- registry ----

// histEntry is one registered histogram with its metric name and label
// pairs (the Prometheus identity).
type histEntry struct {
	name   string
	labels [][2]string
	h      *Histogram
}

// histReg's expvar map is created in the struct literal, not an init
// function, so package-level Hist calls (dpLayerHist below) find it
// ready regardless of initialization order.
var histReg = struct {
	sync.RWMutex
	m     map[string]*histEntry
	expvr *expvar.Map
}{m: make(map[string]*histEntry), expvr: expvar.NewMap("obddopt_hist")}

// histKey renders the canonical registry key name{k="v",...}.
func histKey(name string, labels [][2]string) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, kv := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s=%q`, kv[0], kv[1])
	}
	b.WriteByte('}')
	return b.String()
}

// Hist returns the registered histogram for name and the given label
// key/value pairs, creating and publishing it on first use. The result
// is never nil, so chained recording — Hist("solve_latency_ns").Record(v)
// — is safe without a guard. Label pairs must come in key, value order;
// a trailing odd key is ignored.
func Hist(name string, kv ...string) *Histogram {
	var labels [][2]string
	for i := 0; i+1 < len(kv); i += 2 {
		labels = append(labels, [2]string{kv[i], kv[i+1]})
	}
	key := histKey(name, labels)
	histReg.RLock()
	e, ok := histReg.m[key]
	histReg.RUnlock()
	if ok {
		return e.h
	}
	histReg.Lock()
	defer histReg.Unlock()
	if e, ok := histReg.m[key]; ok {
		return e.h
	}
	e = &histEntry{name: name, labels: labels, h: NewHistogram()}
	histReg.m[key] = e
	histReg.expvr.Set(key, e.h)
	return e.h
}

// EachHistogram calls fn for every registered histogram in sorted
// (name, labels) order — the deterministic iteration behind /metrics
// and the stats snapshot.
func EachHistogram(fn func(name string, labels [][2]string, h *Histogram)) {
	histReg.RLock()
	keys := make([]string, 0, len(histReg.m))
	for k := range histReg.m {
		keys = append(keys, k)
	}
	entries := make(map[string]*histEntry, len(histReg.m))
	for k, e := range histReg.m {
		entries[k] = e
	}
	histReg.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		e := entries[k]
		fn(e.name, e.labels, e.h)
	}
}

// HistogramsSnapshot summarizes every registered histogram, keyed by
// its canonical name{labels} identity.
func HistogramsSnapshot() map[string]HistogramSnapshot {
	out := make(map[string]HistogramSnapshot)
	EachHistogram(func(name string, labels [][2]string, h *Histogram) {
		out[histKey(name, labels)] = h.Snapshot()
	})
	return out
}

// Well-known histogram names. Durations are recorded in nanoseconds
// (the _ns suffix); sizes are raw counts.
const (
	// HistNameLaneWall / HistNameLaneCells / HistNameLanePeak hold the
	// per-portfolio-lane distributions (label "lane"): wall time, table
	// cells touched, and peak live cells of each lane run.
	HistNameLaneWall  = "lane_wall_ns"
	HistNameLaneCells = "lane_cell_ops"
	HistNameLanePeak  = "lane_peak_cells"
	// HistNameSolverWall / Cells / Peak are the same quantities per
	// top-level solver invocation (label "solver"), recorded by the
	// Solve facade and the obddd service.
	HistNameSolverWall  = "solver_wall_ns"
	HistNameSolverCells = "solver_cell_ops"
	HistNameSolverPeak  = "solver_peak_cells"
	// HistNameQueueWait / SolveLatency / CacheLookup are the obddd
	// request-path distributions: time waiting for a worker slot, solver
	// run time, and canonical-cache lookup time.
	HistNameQueueWait    = "queue_wait_ns"
	HistNameSolveLatency = "solve_latency_ns"
	HistNameCacheLookup  = "cache_lookup_ns"
	// HistNameDPLayer / DPLayerCells are per-DP-layer wall time and cell
	// operations, folded from KindLayerEnd events by HistogramSink.
	HistNameDPLayer      = "dp_layer_ns"
	HistNameDPLayerCells = "dp_layer_cell_ops"
	// HistNameShardOccupancy describes the pipelined DP scheduler: shards
	// executed per worker per run (occupancy — a flat distribution means
	// the workers' claims balanced the layer pipeline).
	HistNameShardOccupancy = "ws_shard_occupancy"
)

// Package-level handles for the layer sink's hot path (one lookup at
// init instead of one per layer).
var (
	dpLayerHist      = Hist(HistNameDPLayer)
	dpLayerCellsHist = Hist(HistNameDPLayerCells)
)

// HistogramSink is a Tracer folding the layer-granular event stream
// into registry histograms: every KindLayerEnd records the layer's wall
// time into dp_layer_ns and its cell operations into dp_layer_cell_ops.
// High-volume kinds (per-compaction, per-expansion) return after one
// switch, so attaching the sink costs roughly what the Progress
// renderer does. The zero value is ready; the sink is stateless and
// safe for concurrent Emit calls.
type HistogramSink struct{}

// NewHistogramSink returns a HistogramSink tracer.
func NewHistogramSink() *HistogramSink { return &HistogramSink{} }

// Emit implements Tracer.
func (s *HistogramSink) Emit(ev Event) {
	if ev.Kind != KindLayerEnd {
		return
	}
	dpLayerHist.RecordDuration(ev.Elapsed)
	dpLayerCellsHist.Record(ev.CellOps)
}
