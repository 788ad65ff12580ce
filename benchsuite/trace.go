package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"obddopt"
	"obddopt/internal/cache"
	"obddopt/internal/obs"
)

// The traced run attributes a workload's cost to the modules under the
// entry points, from outside: through a bench-owned obs.Tracer, the
// server's access log and cache counters, and timed direct calls into
// each module's public functions. It never feeds the end-to-end metrics;
// instead it measures its own overhead by running every operation with
// tracing off and on.

// tracedShare is the part of --seconds the paired pass runs for; the
// direct module calls take roughly the rest.
const tracedShare = 0.7

// bnbCap bounds each direct branch-and-bound call: on the largest random
// inputs the search runs far longer than the dynamic program, and its
// per-layer numbers need only a bounded sample.
const bnbCap = time.Second

// layerSpec names one per-layer metric; the list is the order of the
// traced run's output and matches BENCHMARK.json.
type layerSpec struct {
	name, unit, better string
}

// maxLayer is the largest popcount layer with its own metric; it covers
// every workload's largest variable count.
const maxLayer = 15

var layerSpecs = func() []layerSpec {
	specs := []layerSpec{
		{"facade.overhead_us", "us", "lower"},
		{"heuristics.seed_ms", "ms", "lower"},
		{"heuristics.seed_share", "ratio", "lower"},
		{"heuristics.evals_per_seed", "count", "lower"},
		{"heuristics.seed_optimal_frac", "ratio", "higher"},
		{"core.portfolio.bnb_win_frac", "ratio", "higher"},
		{"core.portfolio.race_ms", "ms", "lower"},
		{"core.portfolio.dp_lane_slowdown", "ratio", "lower"},
		{"core.portfolio.teardown_ms", "ms", "lower"},
		{"core.dp.fs_ms", "ms", "lower"},
		{"core.dp.parallel_ms", "ms", "lower"},
		{"core.dp.shared_ms", "ms", "lower"},
		{"core.dp.cell_ops_ratio", "ratio", "lower"},
		{"core.dp.peak_cells_ratio", "ratio", "lower"},
		{"core.dp.cells_per_us", "cells/us", "higher"},
		{"core.dp.heap_bytes_per_peak_cell", "B/cell", "lower"},
		{"core.dp.steal_frac", "ratio", "lower"},
	}
	for k := 1; k <= maxLayer; k++ {
		specs = append(specs, layerSpec{fmt.Sprintf("core.dp.layer_ms.k%02d", k), "ms", "lower"})
	}
	for k := 1; k <= maxLayer; k++ {
		specs = append(specs, layerSpec{fmt.Sprintf("core.dp.layer_cells_ratio.k%02d", k), "ratio", "lower"})
	}
	return append(specs,
		layerSpec{"core.bnb.seeded_ms", "ms", "lower"},
		layerSpec{"core.bnb.expansions", "count", "lower"},
		layerSpec{"core.bnb.prune_frac", "ratio", "higher"},
		layerSpec{"server.queue_wait_ms_p50", "ms", "lower"},
		layerSpec{"server.queue_wait_ms_p95", "ms", "lower"},
		layerSpec{"server.solve_ms_p50", "ms", "lower"},
		layerSpec{"server.overhead_ms_p50", "ms", "lower"},
		layerSpec{"server.rejected", "count", "lower"},
		layerSpec{"cache.hit_ratio", "ratio", "higher"},
		layerSpec{"cache.lookup_us_p50", "us", "lower"},
		layerSpec{"cache.coalesced", "count", "higher"},
		layerSpec{"cache.evictions", "count", "lower"},
		layerSpec{"artifact.build_us", "us", "lower"},
		layerSpec{"artifact.encode_us", "us", "lower"},
		layerSpec{"artifact.decode_us", "us", "lower"},
		layerSpec{"artifact.bytes_per_node", "B/node", "lower"},
		layerSpec{"truthtable.parse_us", "us", "lower"},
		layerSpec{"truthtable.hex_us", "us", "lower"},
		layerSpec{"obs.trace_overhead_frac", "ratio", "lower"},
	)
}()

// benchTracer counts every event by kind and keeps the low-volume kinds
// (layer ends, lane results, race decisions, heuristic passes) with the
// wall-clock time they arrived.
type benchTracer struct {
	counts [32]atomic.Uint64
	mu     sync.Mutex
	events []tracedEvent
}

type tracedEvent struct {
	ev obs.Event
	at int64 // Unix ns at receipt
}

// Emit implements obs.Tracer.
func (t *benchTracer) Emit(ev obs.Event) {
	if int(ev.Kind) < len(t.counts) {
		t.counts[ev.Kind].Add(1)
	}
	switch ev.Kind {
	case obs.KindLayerEnd, obs.KindLaneResult, obs.KindRaceWon, obs.KindHeurPass:
		at := time.Now().UnixNano()
		t.mu.Lock()
		t.events = append(t.events, tracedEvent{ev: ev, at: at})
		t.mu.Unlock()
	}
}

func (t *benchTracer) count(k obs.EventKind) uint64 { return t.counts[k].Load() }

// take returns the kept events and forgets them and the counts.
func (t *benchTracer) take() []tracedEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.events
	t.events = nil
	for i := range t.counts {
		t.counts[i].Store(0)
	}
	return out
}

// lockedBuffer is an io.Writer safe for the server's writes and the
// bench's reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// take returns the buffered bytes and empties the buffer.
func (b *lockedBuffer) take() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := append([]byte(nil), b.buf.Bytes()...)
	b.buf.Reset()
	return out
}

// span is one timed interval of the traced run. Spans of one operation
// share OpID (negative for the direct calls); Parent is the enclosing
// span's ID, 0 for none.
type span struct {
	OpID   int    `json:"op_id"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(opID, parent int, name string, start, end int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{OpID: opID, ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

func (l *spanLog) setEnd(id int, end int64) {
	l.mu.Lock()
	l.spans[id-1].End = end
	l.mu.Unlock()
}

// eventSpans turns one solve's kept events into child spans of parent:
// the heuristic seed, the portfolio race, its lanes, and every DP layer.
// An event's span ends at its arrival and starts Elapsed earlier.
func eventSpans(l *spanLog, opID, parent int, events []tracedEvent) {
	var heurEnd int64
	for _, e := range events {
		if e.ev.Kind == obs.KindLaneResult && e.ev.Lane == "heuristic" {
			heurEnd = e.at
			l.add(opID, parent, "heuristics.Seed", e.at-int64(e.ev.Elapsed), e.at)
		}
	}
	laneParent := parent
	for _, e := range events {
		if e.ev.Kind == obs.KindRaceWon {
			start := heurEnd
			if start == 0 {
				start = e.at - int64(e.ev.Elapsed)
			}
			laneParent = l.add(opID, parent, "core.portfolio.race", start, e.at)
		}
	}
	layerParent := laneParent
	for _, e := range events {
		if e.ev.Kind != obs.KindLaneResult || e.ev.Lane == "heuristic" {
			continue
		}
		name := "core.dp." + e.ev.Lane
		if e.ev.Lane == "bnb" {
			name = "core.bnb"
		}
		id := l.add(opID, laneParent, name, e.at-int64(e.ev.Elapsed), e.at)
		if e.ev.Lane != "bnb" {
			layerParent = id
		}
	}
	for _, e := range events {
		if e.ev.Kind == obs.KindLayerEnd {
			l.add(opID, layerParent, fmt.Sprintf("core.dp.layer.k%02d", e.ev.K), e.at-int64(e.ev.Elapsed), e.at)
		}
	}
}

// selfTimes reduces spans to self time per name in milliseconds: each
// span's duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		dur := s.End - s.Start
		if dur < 0 {
			dur = 0
		}
		out[s.Name] += float64(dur-covered(children[s.ID], s.Start, s.End)) / 1e6
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 || hi <= lo {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// portfolioAgg sums the portfolio's race events over the traced side's
// solves; solveNS is the time of the solves that ran a portfolio.
type portfolioAgg struct {
	heurNS, raceNS, solveNS int64
	races, bnbWins          int
}

func (a *portfolioAgg) addEvents(events []tracedEvent) {
	for _, e := range events {
		switch {
		case e.ev.Kind == obs.KindLaneResult && e.ev.Lane == "heuristic":
			a.heurNS += int64(e.ev.Elapsed)
		case e.ev.Kind == obs.KindRaceWon:
			a.races++
			a.raceNS += int64(e.ev.Elapsed)
			if e.ev.Lane == "bnb" {
				a.bnbWins++
			}
		}
	}
}

// clientReq is one traced HTTP operation, joined to the access log by
// its request ID.
type clientReq struct {
	op, span int
	latMS    float64
}

// accessLine is the part of an access-log record the join reads.
type accessLine struct {
	Time        string  `json:"ts"`
	RequestID   string  `json:"request_id"`
	Status      int     `json:"status"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	SolveMS     float64 `json:"solve_ms"`
	ElapsedMS   float64 `json:"elapsed_ms"`
}

// traceState collects the traced side's observations.
type traceState struct {
	w     *workload
	spans spanLog

	mu       sync.Mutex
	port     portfolioAgg
	requests map[string]clientReq
}

// tracedCall runs o on the traced instance with the bench's
// instrumentation, records its spans under parent, and returns the
// outcome and the call's latency. Library calls get a tracer of their
// own; HTTP calls carry a request ID for the access-log join.
func (st *traceState) tracedCall(ctx context.Context, e *env, o op, parent int) (outcome, time.Duration) {
	if st.w.http {
		id := fmt.Sprintf("bench-%d", o.seq)
		name := "client.Solve"
		if o.kind == opArtifact {
			name = "client.SolveArtifactRaw"
		}
		t0 := time.Now()
		out := e.call(ctx, o, nil, id)
		t1 := time.Now()
		cid := st.spans.add(o.seq, parent, name, t0.UnixNano(), t1.UnixNano())
		st.mu.Lock()
		st.requests[id] = clientReq{op: o.seq, span: cid, latMS: float64(t1.Sub(t0)) / 1e6}
		st.mu.Unlock()
		return out, t1.Sub(t0)
	}
	tr := &benchTracer{}
	name := "obddopt.Solve"
	if o.kind == opShared {
		name = "obddopt.SolveShared"
	}
	t0 := time.Now()
	out := e.call(ctx, o, tr, "")
	t1 := time.Now()
	sid := st.spans.add(o.seq, parent, name, t0.UnixNano(), t1.UnixNano())
	events := tr.take()
	eventSpans(&st.spans, o.seq, sid, events)
	st.mu.Lock()
	defer st.mu.Unlock()
	before := st.port.races
	st.port.addEvents(events)
	if st.port.races > before {
		st.port.solveNS += int64(t1.Sub(t0))
	}
	return out, t1.Sub(t0)
}

// runTraced is the traced run behind the per-layer metrics.
func runTraced(ctx context.Context, w *workload, seed int64, cfg config, spansPath string) (*report, error) {
	p := w.newPlan(w, seed)
	srvTrace := &benchTracer{}
	access := &lockedBuffer{}
	plain, err := newEnv(ctx, w, p, obddopt.ServerConfig{})
	if err != nil {
		return nil, err
	}
	defer plain.close()
	traced, err := newEnv(ctx, w, p, obddopt.ServerConfig{Trace: srvTrace, AccessLog: access})
	if err != nil {
		return nil, err
	}
	defer traced.close()
	rec := newRecorder()
	warm := take(p, cfg.warmOps)
	for _, e := range []*env{plain, traced} {
		if err := e.warmCache(ctx); err != nil {
			return nil, err
		}
		e.runLoop(ctx, loopSpec{next: replay(warm)}, rec)
	}
	srvTrace.take()
	access.take()
	runtime.GC()
	heap := startHeapSampler()

	// Each operation runs twice, untraced on plain and traced on traced,
	// the order alternating with the sequence number, so both sides see
	// the same inputs under the same conditions. The traced side's time
	// includes the bench's own span and event bookkeeping.
	st := &traceState{w: w, requests: map[string]clientReq{}}
	cache0 := traced.cacheStats()
	var untracedNS, tracedNS atomic.Int64
	paired := func(o op, r *recorder) {
		root := st.spans.add(o.seq, 0, "op", time.Now().UnixNano(), 0)
		for i := 0; i < 2; i++ {
			start := time.Now()
			if (i == 0) == (o.seq%2 == 0) {
				out := plain.call(ctx, o, nil, "")
				lat := time.Since(start)
				st.spans.add(o.seq, root, "obs.untraced", start.UnixNano(), start.Add(lat).UnixNano())
				untracedNS.Add(int64(lat))
				r.add(o, out, lat)
				continue
			}
			tid := st.spans.add(o.seq, root, "obs.traced", start.UnixNano(), 0)
			out, lat := st.tracedCall(ctx, traced, o, tid)
			end := time.Now()
			st.spans.setEnd(tid, end.UnixNano())
			tracedNS.Add(int64(end.Sub(start)))
			r.add(o, out, lat)
		}
		st.spans.setEnd(root, time.Now().UnixNano())
	}
	stretch := time.Duration(float64(cfg.seconds) * tracedShare)
	traced.runLoop(ctx, loopSpec{next: planNext(p), deadline: time.Now().Add(stretch), minOps: 1, do: paired}, rec)
	cache1 := traced.cacheStats()

	rep := &report{workload: w.name}
	vals := map[string]float64{}
	vals["obs.trace_overhead_frac"] = 1 - float64(untracedNS.Load())/float64(tracedNS.Load())
	if w.http {
		st.joinAccessLog(access.take(), vals)
		st.port.addEvents(srvTrace.take())
		hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
		if hits+misses > 0 {
			vals["cache.hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		vals["cache.coalesced"] = float64(cache1.Coalesced - cache0.Coalesced)
		vals["cache.evictions"] = float64(cache1.Evictions - cache0.Evictions)
	}
	if a := st.port; a.races > 0 {
		vals["heuristics.seed_share"] = float64(a.heurNS) / float64(a.solveNS)
		vals["core.portfolio.bnb_win_frac"] = float64(a.bnbWins) / float64(a.races)
		vals["core.portfolio.race_ms"] = float64(a.raceNS-a.heurNS) / float64(a.races) / 1e6
		vals["core.portfolio.teardown_ms"] = float64(a.solveNS-a.raceNS) / float64(a.races) / 1e6
	}

	sample := directSample(w, p, seed)
	d := &directRun{ctx: ctx, spans: &st.spans}
	for i, in := range sample {
		d.call(-2-i, in)
	}
	d.metrics(vals, peakLive(heap.stop()))

	vstart := time.Now()
	v := newVerifier(ctx, w, seed)
	bad, msgs := v.verify(rec)
	rep.attempted = rec.attempted()
	rep.failed = rec.errs + bad
	rep.problems = append(append(append(rep.problems, rec.errMsgs...), msgs...), d.problems...)
	rep.correct = rep.failed == 0 && len(d.problems) == 0
	for _, s := range layerSpecs {
		rep.add(s.name, s.unit, vals[s.name])
	}

	self := selfTimes(st.spans.spans)
	if err := writeSpans(spansPath, w.name, seed, self, st.spans.spans); err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("paired pass: %d ops, untraced %.2fs, traced %.2fs; direct calls on %d inputs",
			(rec.attempted()-2*cfg.warmOps)/2, time.Duration(untracedNS.Load()).Seconds(), time.Duration(tracedNS.Load()).Seconds(), len(sample)),
		fmt.Sprintf("verify_s %.3f; %d spans written to %s; self time by span:", time.Since(vstart).Seconds(), len(st.spans.spans), spansPath))
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, name := range names {
		rep.notes = append(rep.notes, fmt.Sprintf("  %-32s %12.3f ms", name, self[name]))
	}
	return rep, nil
}

// cacheStats snapshots the server's cache (zero for library workloads).
func (e *env) cacheStats() cache.Stats {
	if e.srv == nil {
		return cache.Stats{}
	}
	return e.srv.CacheStats()
}

// joinAccessLog matches the traced server's access-log lines to the
// client's operations, adds the server-side spans, and derives the
// server metrics and the portfolio's solve time.
func (st *traceState) joinAccessLog(data []byte, vals map[string]float64) {
	var (
		waits, solves, overheads []float64
		rejected                 int
	)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var a accessLine
		if json.Unmarshal(sc.Bytes(), &a) != nil {
			continue
		}
		cr, ok := st.requests[a.RequestID]
		if !ok {
			continue
		}
		ts, err := time.Parse(time.RFC3339Nano, a.Time)
		if err != nil {
			continue
		}
		if a.Status == http.StatusTooManyRequests || a.Status == http.StatusServiceUnavailable {
			rejected++
		}
		end := ts.UnixNano()
		solveNS, waitNS := int64(a.SolveMS*1e6), int64(a.QueueWaitMS*1e6)
		hs := st.spans.add(cr.op, cr.span, "server.handle", end-int64(a.ElapsedMS*1e6), end)
		if solveNS > 0 {
			st.spans.add(cr.op, hs, "server.solve", end-solveNS, end)
			solves = append(solves, a.SolveMS)
			st.port.solveNS += solveNS
		}
		if waitNS > 0 {
			st.spans.add(cr.op, hs, "server.queue_wait", end-solveNS-waitNS, end-solveNS)
		}
		waits = append(waits, a.QueueWaitMS)
		overheads = append(overheads, cr.latMS-a.QueueWaitMS-a.SolveMS)
	}
	for _, s := range [][]float64{waits, solves, overheads} {
		sort.Float64s(s)
	}
	vals["server.queue_wait_ms_p50"] = percentile(waits, 0.50)
	vals["server.queue_wait_ms_p95"] = percentile(waits, 0.95)
	vals["server.solve_ms_p50"] = percentile(solves, 0.50)
	vals["server.overhead_ms_p50"] = percentile(overheads, 0.50)
	vals["server.rejected"] = float64(rejected)
}

// writeSpans writes the span file: every span plus its self-time
// reduction.
func writeSpans(path, workload string, seed int64, self map[string]float64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file directory: %w", err)
	}
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SelfMS   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
	}{workload, seed, self, spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
