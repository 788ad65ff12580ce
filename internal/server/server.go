// Package server is the obddd network solve service: an HTTP/JSON
// daemon exposing the cancellable Solve engine behind admission control
// and a canonical result cache.
//
// Endpoints:
//
//	POST /v1/solve        one solve; body SolveRequest, reply SolveResponse
//	POST /v1/solve/batch  several solves under one admission slot
//	GET  /v1/solvers      registered solvers, rules and server limits
//	GET  /v1/stats        admission, cache and process metrics snapshot
//	GET  /healthz         liveness ("ok", or "draining" while shutting down)
//	GET  /debug/vars      the process-wide expvar registry (internal/obs)
//	GET  /metrics         the same registry in Prometheus text format
//
// Admission control bounds concurrent solver runs (Workers) and waiting
// requests (QueueDepth); excess load is rejected with 429 + Retry-After
// rather than queued unboundedly. Identical concurrent requests
// coalesce onto one solver run through the single-flight result cache
// (internal/cache), and proven-optimal results are memoized so repeat
// queries — the dominant pattern of re-minimization loops — are served
// in microseconds without re-running the O*(3^n) dynamic program.
// Graceful drain (Server.Drain, wired to SIGTERM by cmd/obddd) stops
// admitting, cancels in-flight solver contexts, and waits for handlers
// to flush their (incumbent-carrying) responses.
package server

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"obddopt/internal/artifact"
	"obddopt/internal/cache"
	"obddopt/internal/core"
	_ "obddopt/internal/heuristics" // installs the portfolio's default heuristic seeder
	"obddopt/internal/obs"
	"obddopt/internal/truthtable"
)

// Config sizes the server. The zero value is usable: every field has a
// production default applied by New.
type Config struct {
	// Workers bounds concurrent solver executions; 0 selects
	// GOMAXPROCS.
	Workers int
	// QueueDepth bounds requests waiting for a worker slot beyond the
	// running ones; further requests get 429. 0 selects 4×Workers.
	QueueDepth int
	// DefaultDeadline applies to requests that set no deadline; 0
	// means MaxDeadline (requests never run unbounded when a cap is
	// configured).
	DefaultDeadline time.Duration
	// MaxDeadline caps every request's deadline; 0 selects 30s.
	// Negative disables the cap (trusted single-tenant deployments).
	MaxDeadline time.Duration
	// MaxBudget caps every request's resource budget component-wise;
	// zero components leave the caller's budget unchanged.
	MaxBudget core.Budget
	// MaxVars caps the accepted variable count; 0 selects
	// truthtable.MaxVars (30). Solves are exponential in this.
	MaxVars int
	// CacheBytes bounds the canonical result cache; 0 selects 64 MiB,
	// negative disables caching.
	CacheBytes int64
	// RetryAfter is the hint returned with 429 responses; 0 selects 1s.
	RetryAfter time.Duration
	// Trace, if non-nil, receives every request's solver events (it
	// must be safe for concurrent Emit; all internal/obs tracers are).
	Trace obs.Tracer
	// AccessLog, if non-nil, receives one JSON line per handled request
	// (request ID, route, status, queue wait, solve time, cache
	// outcome). Writes are serialized by the server; any io.Writer
	// works. nil (the default) disables access logging.
	AccessLog io.Writer
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.MaxDeadline == 0 {
		c.MaxDeadline = 30 * time.Second
	}
	if c.MaxDeadline < 0 {
		c.MaxDeadline = 0
	}
	if c.MaxVars <= 0 || c.MaxVars > truthtable.MaxVars {
		c.MaxVars = truthtable.MaxVars
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server is the solve service. Create with New, expose via Handler,
// shut down via Drain.
type Server struct {
	cfg   Config
	adm   *admission
	cache *cache.Cache
	mux   *http.ServeMux

	// lifeCtx is canceled by Drain: every solver context derives from
	// it, so draining cancels in-flight runs cooperatively.
	lifeCtx  context.Context
	lifeStop context.CancelFunc

	// solves counts solver invocations (not requests): the observable
	// that proves cache hits and single-flight coalescing skip work.
	solves atomic.Uint64

	// accessMu serializes AccessLog writes so concurrent handlers never
	// interleave lines.
	accessMu sync.Mutex
}

// layerSink folds every traced run's KindLayerEnd events into the
// process-wide dp_layer histograms; one stateless instance serves all
// requests.
var layerSink = obs.NewHistogramSink()

// New returns a ready-to-serve Server. ctx is the server's lifetime
// anchor: canceling it is equivalent to Drain (cmd/obddd passes its
// signal context).
func New(ctx context.Context, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		adm: newAdmission(cfg.Workers, cfg.QueueDepth),
	}
	if cfg.CacheBytes >= 0 {
		s.cache = cache.New(cfg.CacheBytes)
	}
	s.lifeCtx, s.lifeStop = context.WithCancel(ctx)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/solve/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/solvers", s.handleSolvers)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux.Handle("GET /metrics", obs.PrometheusHandler())
	return s
}

// Handler returns the service's HTTP handler (mountable under any
// http.Server or test harness).
func (s *Server) Handler() http.Handler { return s.mux }

// SolveCount reports how many solver invocations the server has made —
// cache hits and coalesced requests do not increment it.
func (s *Server) SolveCount() uint64 { return s.solves.Load() }

// CacheStats snapshots the result cache (zero Stats when disabled).
func (s *Server) CacheStats() cache.Stats {
	if s.cache == nil {
		return cache.Stats{}
	}
	return s.cache.Stats()
}

// Drain gracefully shuts the service down: it stops admitting (new
// requests get 503), cancels every in-flight solver context — solves
// return promptly with ErrCanceled and their responses carry the best
// incumbent — and waits for the in-flight count to reach zero or ctx
// to expire. It is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.adm.startDrain()
	s.lifeStop()
	return s.adm.wait(ctx)
}

// requestSpan attaches a request-scoped span to r's context: the trace
// ID is the caller's X-Request-ID header when it is sane (printable
// ASCII, at most 128 bytes), a freshly minted ID otherwise. The ID is
// echoed in the X-Request-ID response header immediately, so even
// rejected requests are correlatable.
func requestSpan(w http.ResponseWriter, r *http.Request) (context.Context, *obs.Span) {
	sp := obs.NewSpan(sanitizeRequestID(r.Header.Get("X-Request-ID")))
	w.Header().Set("X-Request-ID", sp.ID())
	return obs.ContextWithSpan(r.Context(), sp), sp
}

// sanitizeRequestID accepts a caller-supplied trace ID only when it is
// non-empty printable ASCII of bounded length; anything else returns ""
// (mint a fresh one) — the ID lands in headers and log lines, so it
// must not smuggle control bytes.
func sanitizeRequestID(id string) string {
	if len(id) == 0 || len(id) > 128 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; c < 0x21 || c > 0x7e {
			return ""
		}
	}
	return id
}

// artifactMode is a /v1/solve request's negotiated artifact shape:
// none, base64 inside the JSON envelope, or the raw binary body.
type artifactMode int

const (
	artifactNone artifactMode = iota
	artifactJSON              // ?include=bdd → "bdd" field, base64
	artifactRaw               // Accept: application/x-obdd → binary body
)

// negotiateArtifact resolves the request's artifact mode. The Accept
// header wins over the query parameter: a caller asking for the binary
// media type gets binary even if a proxy appended ?include=bdd.
func negotiateArtifact(r *http.Request) artifactMode {
	if strings.Contains(r.Header.Get("Accept"), ArtifactMediaType) {
		return artifactRaw
	}
	if r.URL.Query().Get("include") == "bdd" {
		return artifactJSON
	}
	return artifactNone
}

// handleSolve serves POST /v1/solve.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if err := decodeJSON(r, &req); err != nil {
		writeResponse(w, http.StatusBadRequest, &SolveResponse{Error: &WireError{Code: CodeInvalidInput, Message: err.Error()}}, 0)
		return
	}
	mode := negotiateArtifact(r)
	ctx, sp := requestSpan(w, r)
	release, err := s.adm.admit()
	if err != nil {
		s.writeAdmissionError(w, "/v1/solve", sp, err)
		return
	}
	defer release()
	if sp != nil {
		sp.Event("admitted")
	}
	resp, status := s.solveOne(ctx, &req, mode)
	resp.RequestID = sp.ID()
	s.logAccess("/v1/solve", sp, status, resp)
	if mode == artifactRaw && resp.Error == nil && len(resp.BDD) > 0 {
		// Raw negotiation succeeded: the body is the artifact itself.
		// Content-Length is set explicitly so a truncated transfer
		// surfaces as io.ErrUnexpectedEOF client-side, never as a
		// silently short diagram.
		w.Header().Set("Content-Type", ArtifactMediaType)
		w.Header().Set("Content-Length", strconv.Itoa(len(resp.BDD)))
		w.WriteHeader(status)
		_, _ = w.Write(resp.BDD)
		return
	}
	writeResponse(w, status, resp, s.cfg.RetryAfter)
}

// handleBatch serves POST /v1/solve/batch: the whole batch occupies one
// admission slot and runs its items sequentially, so a batch cannot
// monopolize the worker pool ahead of interactive traffic.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeJSON(r, &req); err != nil {
		writeResponse(w, http.StatusBadRequest, &SolveResponse{Error: &WireError{Code: CodeInvalidInput, Message: err.Error()}}, 0)
		return
	}
	if len(req.Requests) == 0 {
		writeResponse(w, http.StatusBadRequest, &SolveResponse{Error: &WireError{Code: CodeInvalidInput, Message: "empty batch"}}, 0)
		return
	}
	ctx, sp := requestSpan(w, r)
	release, err := s.adm.admit()
	if err != nil {
		s.writeAdmissionError(w, "/v1/solve/batch", sp, err)
		return
	}
	defer release()
	if sp != nil {
		sp.Event("admitted")
	}
	out := BatchResponse{Responses: make([]SolveResponse, len(req.Requests))}
	// Co-scheduling pass first: opted-in overlapping items solve as one
	// shared forest each; everything else (and every item whose group
	// never formed) takes the independent path below.
	done := s.runCoscheduled(ctx, &req, &out)
	for i := range req.Requests {
		if done[i] {
			out.Responses[i].RequestID = sp.ID()
			continue
		}
		resp, _ := s.solveOne(ctx, &req.Requests[i], artifactNone)
		resp.RequestID = sp.ID()
		if req.Requests[i].Hints != nil {
			// The item sent hints but was not co-scheduled; echo the
			// decision so the client can tell "declined" from "ignored".
			resp.Scheduling = &SchedulingEcho{}
		}
		out.Responses[i] = *resp
	}
	s.logAccess("/v1/solve/batch", sp, http.StatusOK, nil)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	_ = enc.Encode(&out)
}

// solveOne runs one admitted request end to end: validation, worker
// acquisition, cache lookup / single-flight solve, error mapping. It
// returns the response body and HTTP status (always 200 for solve
// outcomes, including early-stopped ones — the outcome is in the body).
func (s *Server) solveOne(reqCtx context.Context, req *SolveRequest, mode artifactMode) (*SolveResponse, int) {
	start := time.Now()
	sp := obs.SpanFromContext(reqCtx)
	tt, rule, solverName, opts, deadline, err := s.parseRequest(req)
	if err != nil {
		return &SolveResponse{Error: errorToWire(err)}, http.StatusBadRequest
	}
	if mode != artifactNone && rule != core.OBDD {
		return &SolveResponse{Error: &WireError{Code: CodeInvalidInput,
			Message: "artifacts are defined for the obdd rule only"}}, http.StatusBadRequest
	}

	// The request context is bounded by the request deadline and by the
	// server's lifetime, so Drain cancels in-flight solves.
	ctx, cancel := context.WithCancel(reqCtx)
	defer cancel()
	stop := context.AfterFunc(s.lifeCtx, cancel)
	defer stop()
	if deadline > 0 {
		var dcancel context.CancelFunc
		ctx, dcancel = context.WithTimeout(ctx, deadline)
		defer dcancel()
	}

	// Fast path: a cached canonical result needs no worker slot — the
	// microsecond answer path for repeat queries stays open even when
	// the solver pool is saturated.
	var key string
	cacheState := ""
	if s.cache != nil && !req.NoCache {
		key = cache.Key(tt.Hex(), rule.String(), cache.ClassExact)
		if v, ok := s.cache.Get(key); ok {
			if sp != nil {
				sp.Event("cache_hit")
			}
			obs.Metrics.RequestsServed.Inc()
			resp := &SolveResponse{Result: v.(*core.Result), Cached: true, cacheState: "hit"}
			if mode != artifactNone {
				if resp.BDD, err = s.artifactFor(tt, resp.Result, req.NoCache); err != nil {
					return &SolveResponse{Error: errorToWire(err), cacheState: "hit"}, http.StatusOK
				}
			}
			resp.ElapsedMS = msSince(start)
			return resp, http.StatusOK
		}
		cacheState = "miss"
		if sp != nil {
			sp.Event("cache_miss")
		}
	} else {
		cacheState = "bypass"
	}

	// Wait (bounded by QueueDepth occupancy) for a worker slot. The wait
	// is the queue-wait distribution — recorded on both outcomes, since a
	// request that dies queued waited all the same.
	queueStart := time.Now()
	releaseWorker, err := s.adm.acquireWorker(ctx)
	queueWait := time.Since(queueStart)
	obs.Hist(obs.HistNameQueueWait).RecordDuration(queueWait)
	if err != nil {
		resp := &SolveResponse{Error: errorToWire(fmt.Errorf("%w: while queued: %v", core.ErrCanceled, err)), ElapsedMS: msSince(start),
			queueWaitNS: queueWait.Nanoseconds(), cacheState: cacheState}
		return resp, http.StatusOK
	}
	defer releaseWorker()
	if sp != nil {
		sp.Event("worker_acquired")
	}

	var solveNS int64
	run := func() (*core.Result, *obs.RunReport, error) {
		var col *obs.Collector
		runOpts := *opts
		if req.Report {
			// A typed-nil *Collector would defeat Multi's nil filtering,
			// so col only enters the fan-out when it exists.
			col = obs.NewCollector()
			runOpts.Trace = obs.Multi(col, s.cfg.Trace, layerSink)
		} else {
			runOpts.Trace = obs.Multi(s.cfg.Trace, layerSink)
		}
		solver, _ := core.LookupSolver(solverName)
		s.solves.Add(1)
		if sp != nil {
			sp.Event("solver_start:" + solverName)
		}
		solveStart := time.Now()
		res, err := solver(ctx, tt, &runOpts)
		// run executes on this goroutine (cache.Do invokes compute
		// synchronously in the owning request), so plain assignment is
		// safe; a coalesced request never calls run and reports 0.
		elapsed := time.Since(solveStart)
		solveNS = elapsed.Nanoseconds()
		obs.Hist(obs.HistNameSolveLatency, "solver", solverName).RecordDuration(elapsed)
		if sp != nil {
			sp.Event("solver_done:" + solverName)
		}
		var rep *obs.RunReport
		if col != nil {
			rep = col.Report()
			rep.Tool = "obddd"
			rep.Algorithm = solverName
			rep.Rule = rule.String()
			rep.N = tt.NumVars()
			rep.Result = res
			if sp != nil {
				rep.RequestID = sp.ID()
				rep.Span = sp.Events()
			}
		}
		return res, rep, err
	}

	var (
		res    *core.Result
		rep    *obs.RunReport
		cached bool
	)
	if s.cache != nil && !req.NoCache {
		var v any
		v, cached, err = s.cache.Do(ctx, key, func() (any, int64, error) {
			r, report, err := run()
			rep = report
			if err != nil {
				// Early-stopped incumbents are not canonical; surface
				// them to this caller but never cache them.
				res = r
				return nil, 0, err
			}
			return r, resultBytes(r), nil
		})
		if err == nil {
			res = v.(*core.Result)
		}
	} else {
		res, rep, err = run()
	}

	resp := &SolveResponse{Result: res, Report: rep, Cached: cached, ElapsedMS: msSince(start),
		queueWaitNS: queueWait.Nanoseconds(), solveNS: solveNS, cacheState: cacheState}
	if err != nil {
		resp.Error = errorToWire(err)
		// Solve outcomes — including cancellation and budget exhaustion,
		// which carry graceful-degradation incumbents — are 200s; only
		// input rejection is a 4xx.
		if resp.Error.Code == CodeInvalidInput {
			return resp, http.StatusBadRequest
		}
		obs.Metrics.RequestsServed.Inc()
		return resp, http.StatusOK
	}
	if mode != artifactNone {
		// Proven-optimal outcome: attach the encoded OBDD under the
		// result's ordering (from the artifact cache class when it is
		// already stored there).
		if resp.BDD, err = s.artifactFor(tt, res, req.NoCache); err != nil {
			resp.Result, resp.Error = nil, errorToWire(err)
		}
	}
	obs.Metrics.RequestsServed.Inc()
	return resp, http.StatusOK
}

// artifactFor returns the canonical encoded OBDD of tt under the
// proven-optimal result res, consulting the cache's artifact class
// before building. A cached artifact is served only when its recorded
// ordering matches the result it travels with — the exact and artifact
// classes are stored independently, so the pairing is re-validated at
// the seam rather than assumed.
func (s *Server) artifactFor(tt *truthtable.Table, res *core.Result, noCache bool) ([]byte, error) {
	var akey string
	if s.cache != nil && !noCache {
		akey = cache.Key(tt.Hex(), core.OBDD.String(), cache.ClassArtifact)
		if v, ok := s.cache.Get(akey); ok {
			enc := v.([]byte)
			if ord, err := artifact.DecodedOrdering(enc); err == nil && ord.Equal(res.Ordering) {
				return enc, nil
			}
			// Ordering drift (or a corrupt entry): fall through and
			// rebuild; the Put below overwrites the stale bytes.
		}
	}
	a, err := artifact.Build(tt, res.Ordering)
	if err != nil {
		return nil, fmt.Errorf("encoding artifact: %w", err)
	}
	enc := a.Encode()
	if akey != "" {
		// Best effort: an artifact bigger than a cache shard is simply
		// not stored.
		s.cache.Put(akey, enc, int64(len(enc)))
	}
	return enc, nil
}

// handleSolvers serves GET /v1/solvers.
func (s *Server) handleSolvers(w http.ResponseWriter, r *http.Request) {
	resp := SolversResponse{
		Solvers:       core.SolverNames(),
		Rules:         []string{"obdd", "zdd"},
		MaxVars:       s.cfg.MaxVars,
		MaxDeadlineMS: s.cfg.MaxDeadline.Milliseconds(),
		Workers:       s.cfg.Workers,
		QueueDepth:    s.cfg.QueueDepth,
		Features:      []string{FeatureBatchHints, FeatureArtifact},
	}
	writeJSON(w, http.StatusOK, &resp)
}

// handleStats serves GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"cache":      s.CacheStats(),
		"solves":     s.SolveCount(),
		"metrics":    obs.MetricsSnapshot(),
		"histograms": obs.HistogramsSnapshot(),
	})
}

// handleHealth serves GET /healthz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.lifeCtx.Err() != nil {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// writeAdmissionError renders saturation/draining rejections with their
// HTTP statuses and the Retry-After hint; rejections are access-logged
// like every other outcome.
func (s *Server) writeAdmissionError(w http.ResponseWriter, route string, sp *obs.Span, err error) {
	status := http.StatusServiceUnavailable
	if err == ErrSaturated {
		status = http.StatusTooManyRequests
	}
	resp := &SolveResponse{Error: errorToWire(err)}
	if sp != nil {
		resp.RequestID = sp.ID()
	}
	s.logAccess(route, sp, status, resp)
	writeResponse(w, status, resp, s.cfg.RetryAfter)
}

// accessRecord is one access-log line: who (request ID), what (route,
// status, cache outcome, error code), and where the time went (queue
// wait, solver run, total handling).
type accessRecord struct {
	Time        string  `json:"ts"`
	RequestID   string  `json:"request_id"`
	Route       string  `json:"route"`
	Status      int     `json:"status"`
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	SolveMS     float64 `json:"solve_ms,omitempty"`
	Cache       string  `json:"cache,omitempty"`
	ElapsedMS   float64 `json:"elapsed_ms,omitempty"`
	Error       string  `json:"error,omitempty"`
}

// logAccess writes one JSON line for a handled request when access
// logging is configured. resp may be nil (batch envelopes log only
// route/status/ID).
func (s *Server) logAccess(route string, sp *obs.Span, status int, resp *SolveResponse) {
	if s.cfg.AccessLog == nil {
		return
	}
	rec := accessRecord{
		Time:   time.Now().UTC().Format(time.RFC3339Nano),
		Route:  route,
		Status: status,
	}
	if sp != nil {
		rec.RequestID = sp.ID()
	}
	if resp != nil {
		rec.QueueWaitMS = float64(resp.queueWaitNS) / float64(time.Millisecond)
		rec.SolveMS = float64(resp.solveNS) / float64(time.Millisecond)
		rec.Cache = resp.cacheState
		rec.ElapsedMS = resp.ElapsedMS
		if resp.Error != nil {
			rec.Error = resp.Error.Code
		}
	}
	line, err := json.Marshal(&rec)
	if err != nil {
		return
	}
	line = append(line, '\n')
	s.accessMu.Lock()
	_, _ = s.cfg.AccessLog.Write(line)
	s.accessMu.Unlock()
}

// decodeJSON reads a JSON body, bounded and strict.
func decodeJSON(r *http.Request, dst any) error {
	const maxBody = 512 << 20 // a 30-var table literal is ~268 MiB of hex
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBody))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// writeResponse writes a SolveResponse with the status and, for 429s,
// the Retry-After header.
func writeResponse(w http.ResponseWriter, status int, resp *SolveResponse, retryAfter time.Duration) {
	if status == http.StatusTooManyRequests && retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int((retryAfter+time.Second-1)/time.Second)))
	}
	writeJSON(w, status, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
