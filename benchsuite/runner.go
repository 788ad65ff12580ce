package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"obddopt"
	"obddopt/internal/core"
)

// env is one set-up instance of a workload. Library workloads call the
// package in process; HTTP workloads run an obddd server with the
// default ServerConfig on loopback and reach it through the public typed
// client over at most clients connections.
type env struct {
	w *workload
	p *plan

	srv    *obddopt.Server
	hs     *http.Server
	served chan error
	stop   context.CancelFunc
	tr     *http.Transport
	client *obddopt.Client
}

// newEnv starts an env; cfg carries the tracing hooks of a traced server
// (the zero value for every measured one).
func newEnv(ctx context.Context, w *workload, p *plan, cfg obddopt.ServerConfig) (*env, error) {
	e := &env{w: w, p: p}
	if !w.http {
		return e, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	var sctx context.Context
	sctx, e.stop = context.WithCancel(ctx)
	e.srv = obddopt.NewServer(sctx, cfg)
	e.hs = &http.Server{Handler: e.srv.Handler()}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.tr = &http.Transport{MaxConnsPerHost: w.clients, MaxIdleConnsPerHost: w.clients, DisableCompression: true}
	e.client, err = obddopt.DialWithClient(ctx, "http://"+ln.Addr().String(), &http.Client{Transport: e.tr})
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close stops the server and waits for it to exit.
func (e *env) close() {
	if e.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.srv.Drain(ctx) // in-flight work is already finished; only the wait can fail
	// The client side goes first: a connection the transport dialed but
	// never sent a request on stays new on the server, and Shutdown
	// waits 5 s before it counts a new connection as idle.
	e.tr.CloseIdleConnections()
	_ = e.hs.Shutdown(ctx) // every caller has returned, so only the wait can fail
	<-e.served
	e.stop()
	e.hs = nil
}

// warmCache solves the plan's warm inputs into the server's cache: exact
// results by the serial fs solver (the cache key ignores the solver, and
// fs is the cheapest way to fill it), and artifacts for OBDD inputs.
func (e *env) warmCache(ctx context.Context) error {
	if e.client == nil || len(e.p.warm) == 0 {
		return nil
	}
	var mu sync.Mutex
	next := 0
	errs := make(chan error, e.w.clients)
	var wg sync.WaitGroup
	for c := 0; c < e.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(e.p.warm) {
					errs <- nil
					return
				}
				in := e.p.warm[i]
				params := &obddopt.ClientParams{Solver: "fs", Rule: in.rule}
				if _, err := e.client.Solve(ctx, in.tables[0], params); err != nil {
					errs <- fmt.Errorf("warming input %d: %w", in.id, err)
					return
				}
				if in.rule == core.OBDD {
					if _, err := e.client.SolveArtifactRaw(ctx, in.tables[0], params); err != nil {
						errs <- fmt.Errorf("warming artifact %d: %w", in.id, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// outcome is what one operation returned.
type outcome struct {
	res    *core.Result
	shared *core.SharedResult
	art    []byte
	err    error
}

// call runs one operation through the workload's entry point. tr and
// reqID are set only in the traced run.
func (e *env) call(ctx context.Context, o op, tr obddopt.Tracer, reqID string) outcome {
	tt := o.in.tables[0]
	if !e.w.http {
		opts := []obddopt.Option{obddopt.WithRule(o.in.rule)}
		if e.w.solver != "" && o.kind == opSolve {
			opts = append(opts, obddopt.WithSolver(e.w.solver))
		}
		if tr != nil {
			opts = append(opts, obddopt.WithTrace(tr))
		}
		if o.kind == opShared {
			res, err := obddopt.SolveShared(ctx, o.in.tables, opts...)
			return outcome{shared: res, err: err}
		}
		res, err := obddopt.Solve(ctx, tt, opts...)
		return outcome{res: res, err: err}
	}
	params := &obddopt.ClientParams{Rule: o.in.rule, RequestID: reqID}
	if o.kind == opArtifact {
		art, err := e.client.SolveArtifactRaw(ctx, tt, params)
		return outcome{art: art, err: err}
	}
	res, err := e.client.Solve(ctx, tt, params)
	return outcome{res: res, err: err}
}

// callAndRecord runs o untraced and records it into r.
func (e *env) callAndRecord(ctx context.Context, o op, r *recorder) {
	start := time.Now()
	out := e.call(ctx, o, nil, "")
	r.add(o, out, time.Since(start))
}

// take returns the next n operations of p.
func take(p *plan, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = p.next()
	}
	return ops
}

// replay yields ops once each, in order.
func replay(ops []op) func() (op, bool) {
	i := 0
	return func() (op, bool) {
		if i == len(ops) {
			return op{}, false
		}
		i++
		return ops[i-1], true
	}
}

// loopSpec bounds one closed-loop stretch: callers claim operations from
// next until it is exhausted, or until the deadline has passed, at least
// minOps were claimed and the count is a whole number of blocks.
type loopSpec struct {
	next     func() (op, bool)
	deadline time.Time
	minOps   int
	block    int
	// do, when set, replaces the default handling of an operation (one
	// untraced call, recorded into the caller's recorder).
	do func(o op, r *recorder)
}

// runLoop drives one closed-loop stretch with the workload's callers and
// returns its wall time. Every operation is recorded into rec.
func (e *env) runLoop(ctx context.Context, spec loopSpec, rec *recorder) time.Duration {
	do := spec.do
	if do == nil {
		do = func(o op, r *recorder) { e.callAndRecord(ctx, o, r) }
	}
	var mu sync.Mutex
	claimed := 0
	claim := func() (op, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !spec.deadline.IsZero() && claimed >= spec.minOps && (spec.block == 0 || claimed%spec.block == 0) &&
			!time.Now().Before(spec.deadline) {
			return op{}, false
		}
		o, ok := spec.next()
		if ok {
			claimed++
		}
		return o, ok
	}
	parts := make([]*recorder, e.w.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range parts {
		parts[c] = newRecorder()
		wg.Add(1)
		go func(r *recorder) {
			defer wg.Done()
			for {
				o, ok := claim()
				if !ok {
					return
				}
				do(o, r)
			}
		}(parts[c])
	}
	wg.Wait()
	wall := time.Since(start)
	for _, part := range parts {
		rec.merge(part)
	}
	return wall
}

// recorder accumulates a stretch's latencies and folds its results into
// distinct (input, kind, answer) entries, so verification work scales
// with distinct answers rather than with the operation count.
type recorder struct {
	lat     []float64 // milliseconds, of the operations that returned an answer
	entries map[resultKey]*resultEntry
	errs    int
	errMsgs []string
}

type resultKey struct {
	input int
	kind  opKind
	cost  uint64
	body  string // ordering as bytes, or the raw artifact
}

// resultEntry is one distinct answer and how many operations got it.
type resultEntry struct {
	in    *input
	kind  opKind
	cost  uint64
	order []int
	art   []byte
	count int
}

func newRecorder() *recorder { return &recorder{entries: make(map[resultKey]*resultEntry)} }

func (r *recorder) add(o op, out outcome, lat time.Duration) {
	ms := float64(lat) / float64(time.Millisecond)
	if out.err != nil {
		r.fail(fmt.Sprintf("op %d (%s, input %d): %v", o.seq, o.kind, o.in.id, out.err))
		return
	}
	key := resultKey{input: o.in.id, kind: o.kind}
	var order []int
	switch {
	case out.res != nil:
		key.cost, order = out.res.MinCost, out.res.Ordering
	case out.shared != nil:
		key.cost, order = out.shared.MinCost, out.shared.Ordering
	case out.art != nil:
		key.body = string(out.art)
	default:
		r.fail(fmt.Sprintf("op %d (%s, input %d): no result and no error", o.seq, o.kind, o.in.id))
		return
	}
	if order != nil {
		b := make([]byte, len(order))
		for i, v := range order {
			b[i] = byte(v)
		}
		key.body = string(b)
	}
	r.lat = append(r.lat, ms)
	ent := r.entries[key]
	if ent == nil {
		ent = &resultEntry{in: o.in, kind: o.kind, cost: key.cost, order: append([]int(nil), order...), art: out.art}
		r.entries[key] = ent
	}
	ent.count++
}

func (r *recorder) fail(msg string) {
	r.errs++
	if len(r.errMsgs) < 5 {
		r.errMsgs = append(r.errMsgs, msg)
	}
}

func (r *recorder) merge(o *recorder) {
	r.lat = append(r.lat, o.lat...)
	r.errs += o.errs
	for _, m := range o.errMsgs {
		if len(r.errMsgs) < 5 {
			r.errMsgs = append(r.errMsgs, m)
		}
	}
	for k, ent := range o.entries {
		if mine := r.entries[k]; mine != nil {
			mine.count += ent.count
		} else {
			r.entries[k] = ent
		}
	}
}

// attempted is the number of operations recorded.
func (r *recorder) attempted() int { return len(r.lat) + r.errs }
