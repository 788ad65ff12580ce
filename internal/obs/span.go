package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the request-scoped tracing side of the package: a Span
// carries one request's identity (the trace/request ID minted in Solve
// or accepted from the X-Request-ID wire header) and its phase
// timeline — admission, queue wait, cache outcome, solver start/done — as a
// flat list of named, monotonically timestamped events. Spans travel
// through context.Context, so the solver stack annotates them without
// new parameters, and they serialize into the RunReport schema so the
// wire response, the access log and the CLI -json output all tell the
// same story about one request.

// SpanEvent is one phase marker: Name identifies the phase (e.g.
// "worker_acquired", "solver_start:fs") and AtNS is its offset from the
// span's start in nanoseconds.
type SpanEvent struct {
	Name string `json:"name"`
	AtNS int64  `json:"at_ns"`
}

// Span is one request's trace: an ID plus an append-only event
// timeline. It is safe for concurrent Event calls. The nil-safety
// contract matches Tracer: call sites guard against a nil *Span (a
// context without one), enforced by the tracesafe analyzer.
type Span struct {
	id    string
	start time.Time

	mu     sync.Mutex
	events []SpanEvent
}

// NewSpan returns a span with the given ID, minting a fresh request ID
// when id is empty. The span's clock starts now.
func NewSpan(id string) *Span {
	if id == "" {
		id = NewRequestID()
	}
	return &Span{id: id, start: time.Now()}
}

// requestIDSeq and requestIDNonce make minted IDs unique within and
// across processes: the nonce is drawn from crypto/rand once at init
// (falling back to the process start time), the sequence is atomic.
var (
	requestIDSeq   atomic.Uint64
	requestIDNonce = func() uint64 {
		var b [8]byte
		if _, err := crand.Read(b[:]); err != nil {
			return uint64(time.Now().UnixNano())
		}
		return binary.LittleEndian.Uint64(b[:])
	}()
)

// NewRequestID mints a process-unique request ID: 16 hex digits of
// process nonce, a dash, and a hex sequence number.
func NewRequestID() string {
	return fmt.Sprintf("%016x-%x", requestIDNonce, requestIDSeq.Add(1))
}

// ID returns the span's request/trace ID.
func (s *Span) ID() string { return s.id }

// Start returns the span's start time.
func (s *Span) Start() time.Time { return s.start }

// Event appends a named phase marker timestamped relative to the
// span's start.
func (s *Span) Event(name string) {
	at := time.Since(s.start).Nanoseconds()
	s.mu.Lock()
	s.events = append(s.events, SpanEvent{Name: name, AtNS: at})
	s.mu.Unlock()
}

// Events returns a copy of the recorded phase markers in append order.
func (s *Span) Events() []SpanEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SpanEvent, len(s.events))
	copy(out, s.events)
	return out
}

// spanKey is the context key type for span propagation.
type spanKey struct{}

// ContextWithSpan returns a context carrying sp.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the span carried by ctx, or nil when there is
// none (callers must guard before Event).
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// EnsureSpan returns ctx's span, minting and attaching a fresh one
// (with a new request ID) when ctx carries none. The returned span is
// never nil.
func EnsureSpan(ctx context.Context) (context.Context, *Span) {
	if sp := SpanFromContext(ctx); sp != nil {
		return ctx, sp
	}
	sp := NewSpan("")
	return ContextWithSpan(ctx, sp), sp
}
