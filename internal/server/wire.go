package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"obddopt/internal/artifact"
	"obddopt/internal/core"
	"obddopt/internal/obs"
	"obddopt/internal/truthtable"
)

// This file is the wire schema of the solve service: the JSON request
// and response bodies of POST /v1/solve and /v1/solve/batch, and the
// bidirectional mapping between service error codes and the engine's
// sentinel errors, so a remote caller holding the typed client sees the
// exact error contract of the in-process Solve API (errors.Is against
// core.ErrCanceled / ErrBudgetExceeded / ErrInvalidInput).

// SolveRequest is the body of POST /v1/solve and one element of a
// batch. Result and report shapes reuse the run-report schema of
// internal/obs, so responses feed the same tooling as the CLIs' -json
// output.
type SolveRequest struct {
	// Table is the truth-table literal "n:hexdigits" as produced by
	// (*truthtable.Table).Hex — the canonical input form.
	Table string `json:"table"`
	// Rule selects the diagram variant: "obdd" (default) or "zdd".
	Rule string `json:"rule,omitempty"`
	// Solver names the strategy (see GET /v1/solvers); empty selects
	// the portfolio.
	Solver string `json:"solver,omitempty"`
	// DeadlineMS bounds the solve's wall-clock time in milliseconds; 0
	// adopts the server's default. The server clamps it to its
	// configured maximum either way.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// MaxCells / MaxNodes bound the solve's resources (live DP cells,
	// search-node expansions); 0 is unlimited up to the server's caps.
	MaxCells uint64 `json:"max_cells,omitempty"`
	MaxNodes uint64 `json:"max_nodes,omitempty"`
	// Workers is the goroutine count of the parallel DP (the portfolio's
	// included); 0 selects GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// NoCache bypasses the canonical result cache for this request
	// (the fresh result still populates it).
	NoCache bool `json:"no_cache,omitempty"`
	// Report requests the per-run obs.RunReport in the response.
	Report bool `json:"report,omitempty"`
	// Hints carries optional scheduling hints. Servers that predate the
	// "batch-hints" feature reject unknown fields, so clients send it
	// only after seeing the feature in GET /v1/solvers.
	Hints *SolveHints `json:"hints,omitempty"`
}

// SolveHints are best-effort scheduling hints; the server is free to
// ignore them, and the decision it took is echoed in
// SolveResponse.Scheduling.
type SolveHints struct {
	// Coschedule marks a batch item as a co-scheduling candidate: the
	// batch planner may group it with other opted-in items of the same
	// variable count and rule whose tables overlap, and solve the group
	// as one shared forest under a single worker slot. A co-scheduled
	// item's result carries the cost of the item's diagram under the
	// group's jointly optimal ordering — optimal for the shared forest,
	// not necessarily for the item alone — so such results are never
	// cached as canonical optima. Ignored outside /v1/solve/batch.
	Coschedule bool `json:"coschedule,omitempty"`
}

// SchedulingEcho reports the batch planner's decision for one item; it
// is present exactly when the request carried hints.
type SchedulingEcho struct {
	// Coscheduled reports whether the item was solved as part of a
	// shared-forest group.
	Coscheduled bool `json:"coscheduled"`
	// Group identifies the co-scheduling group (variable count, rule and
	// canonical-digest prefix); empty when Coscheduled is false.
	Group string `json:"group,omitempty"`
	// GroupSize is the number of batch items solved together.
	GroupSize int `json:"group_size,omitempty"`
}

// WireError is the service error envelope. Code is stable and machine-
// mapped; Message is human diagnostic detail.
type WireError struct {
	Code    string `json:"code"`
	Message string `json:"message,omitempty"`
}

// The stable service error codes.
const (
	CodeCanceled       = "canceled"
	CodeBudgetExceeded = "budget_exceeded"
	CodeInvalidInput   = "invalid_input"
	CodeSaturated      = "saturated"
	CodeDraining       = "draining"
	CodeInternal       = "internal"
)

// Service-level sentinel errors (admission failures have no in-process
// counterpart; the engine sentinels cover everything else).
var (
	// ErrSaturated reports that the server's admission queue was full;
	// retry after the Retry-After interval.
	ErrSaturated = errors.New("obddd: server saturated")
	// ErrDraining reports that the server is shutting down and no
	// longer admits work.
	ErrDraining = errors.New("obddd: server draining")
)

// SolveResponse is the body of a completed solve (HTTP 200) or a
// rejected one (400/429/503). Result may be non-nil alongside a
// canceled/budget_exceeded error: it is the best incumbent found, a
// valid ordering whose optimality is not proven — the same graceful-
// degradation contract as the in-process API.
type SolveResponse struct {
	Result *core.Result   `json:"result,omitempty"`
	Report *obs.RunReport `json:"report,omitempty"`
	// RequestID is the request's trace ID: the value of the caller's
	// X-Request-ID header when one was sent, a server-minted ID
	// otherwise. The same ID appears in the X-Request-ID response
	// header, the access log, and the RunReport when one was requested.
	RequestID string `json:"request_id,omitempty"`
	// Cached reports the result was served from the canonical cache
	// without running a solver.
	Cached bool `json:"cached,omitempty"`
	// ElapsedMS is the server-side handling time.
	ElapsedMS float64    `json:"elapsed_ms,omitempty"`
	Error     *WireError `json:"error,omitempty"`
	// BDD is the encoded OBDD artifact (internal/artifact wire format,
	// base64 in JSON) of the function under Result.Ordering. Present
	// only when the request asked for it (?include=bdd or Accept:
	// application/x-obdd), the solve proved optimality, and the rule is
	// OBDD; incumbents from early-stopped solves never carry one.
	BDD []byte `json:"bdd,omitempty"`
	// Scheduling echoes the batch planner's decision when the request
	// carried hints; nil otherwise.
	Scheduling *SchedulingEcho `json:"scheduling,omitempty"`

	// Access-log bookkeeping, filled by solveOne and never serialized:
	// time spent waiting for a worker slot, solver run time, and the
	// cache outcome ("hit", "miss", "bypass", or empty when the request
	// failed before the lookup).
	queueWaitNS int64
	solveNS     int64
	cacheState  string
}

// BatchRequest is the body of POST /v1/solve/batch.
type BatchRequest struct {
	Requests []SolveRequest `json:"requests"`
}

// BatchResponse carries one SolveResponse per request, index-aligned.
type BatchResponse struct {
	Responses []SolveResponse `json:"responses"`
}

// SolversResponse is the body of GET /v1/solvers.
type SolversResponse struct {
	Solvers []string `json:"solvers"`
	Rules   []string `json:"rules"`
	// MaxVars is the largest variable count the server accepts.
	MaxVars int `json:"max_vars"`
	// MaxDeadlineMS is the server's per-request deadline cap.
	MaxDeadlineMS int64 `json:"max_deadline_ms,omitempty"`
	// Workers and QueueDepth describe the admission configuration.
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	// Features lists optional wire-protocol capabilities this server
	// understands (see the Feature* constants). Clients gate optional
	// request fields on the advertised set, so old servers — whose
	// strict decoder rejects unknown fields — never see them.
	Features []string `json:"features,omitempty"`
}

// FeatureBatchHints advertises that SolveRequest.Hints is understood and
// the batch planner may co-schedule opted-in items.
const FeatureBatchHints = "batch-hints"

// FeatureArtifact advertises that /v1/solve understands artifact
// content negotiation: ?include=bdd embeds the encoded OBDD in the JSON
// envelope's "bdd" field, and Accept: application/x-obdd returns the
// raw artifact bytes.
const FeatureArtifact = "obdd-artifact"

// ArtifactMediaType is the content type of a raw artifact response.
const ArtifactMediaType = artifact.MediaType

// errorToWire maps an engine or admission error onto its wire envelope.
func errorToWire(err error) *WireError {
	if err == nil {
		return nil
	}
	code := CodeInternal
	switch {
	case errors.Is(err, core.ErrInvalidInput):
		code = CodeInvalidInput
	case errors.Is(err, core.ErrBudgetExceeded):
		code = CodeBudgetExceeded
	case errors.Is(err, core.ErrCanceled), isCtxErr(err):
		code = CodeCanceled
	case errors.Is(err, ErrSaturated):
		code = CodeSaturated
	case errors.Is(err, ErrDraining):
		code = CodeDraining
	}
	return &WireError{Code: code, Message: err.Error()}
}

// wireToError maps a wire envelope back onto the sentinel contract, so
// client-side errors.Is works exactly as for in-process calls.
func wireToError(we *WireError) error {
	if we == nil {
		return nil
	}
	msg := we.Message
	if msg == "" {
		msg = we.Code
	}
	switch we.Code {
	case CodeCanceled:
		return fmt.Errorf("%w: %s", core.ErrCanceled, msg)
	case CodeBudgetExceeded:
		return fmt.Errorf("%w: %s", core.ErrBudgetExceeded, msg)
	case CodeInvalidInput:
		return fmt.Errorf("%w: %s", core.ErrInvalidInput, msg)
	case CodeSaturated:
		return fmt.Errorf("%w: %s", ErrSaturated, msg)
	case CodeDraining:
		return fmt.Errorf("%w: %s", ErrDraining, msg)
	default:
		return errors.New(msg)
	}
}

// isCtxErr reports a bare context cancellation (a request canceled
// before the solver wrapped it, e.g. while coalesced on the cache).
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// parseRequest validates a SolveRequest against the server's limits and
// resolves it to engine inputs. All failures wrap core.ErrInvalidInput.
func (s *Server) parseRequest(req *SolveRequest) (*truthtable.Table, core.Rule, string, *core.SolveOptions, time.Duration, error) {
	tt, err := truthtable.ParseHex(req.Table)
	if err != nil {
		return nil, 0, "", nil, 0, fmt.Errorf("%w: table: %v", core.ErrInvalidInput, err)
	}
	if tt.NumVars() > s.cfg.MaxVars {
		return nil, 0, "", nil, 0, fmt.Errorf("%w: %d variables exceeds the server's limit of %d",
			core.ErrInvalidInput, tt.NumVars(), s.cfg.MaxVars)
	}
	rule := core.OBDD
	if req.Rule != "" {
		// core.ParseRule's *UnknownRuleError already errors.Is-matches
		// core.ErrInvalidInput, so the transport classifies it as a 400.
		var err error
		if rule, err = core.ParseRule(req.Rule); err != nil {
			return nil, 0, "", nil, 0, err
		}
	}
	name := req.Solver
	if name == "" {
		name = "portfolio"
	}
	if _, ok := core.LookupSolver(name); !ok {
		return nil, 0, "", nil, 0, fmt.Errorf("%w: unknown solver %q (have %v)",
			core.ErrInvalidInput, name, core.SolverNames())
	}
	if req.DeadlineMS < 0 || req.Workers < 0 {
		return nil, 0, "", nil, 0, fmt.Errorf("%w: negative deadline or worker count", core.ErrInvalidInput)
	}
	deadline := time.Duration(req.DeadlineMS) * time.Millisecond
	if deadline == 0 {
		deadline = s.cfg.DefaultDeadline
	}
	if s.cfg.MaxDeadline > 0 && (deadline == 0 || deadline > s.cfg.MaxDeadline) {
		deadline = s.cfg.MaxDeadline
	}
	budget := core.Budget{MaxCells: req.MaxCells, MaxNodes: req.MaxNodes}
	if limit := s.cfg.MaxBudget.MaxCells; limit > 0 && (budget.MaxCells == 0 || budget.MaxCells > limit) {
		budget.MaxCells = limit
	}
	if limit := s.cfg.MaxBudget.MaxNodes; limit > 0 && (budget.MaxNodes == 0 || budget.MaxNodes > limit) {
		budget.MaxNodes = limit
	}
	opts := &core.SolveOptions{Rule: rule, Budget: budget, Workers: req.Workers}
	return tt, rule, name, opts, deadline, nil
}

// resultBytes estimates the in-memory footprint of a cached result for
// the cache's byte bound: the struct plus its ordering, profile and
// terminal-value slices.
func resultBytes(res *core.Result) int64 {
	if res == nil {
		return 0
	}
	const structOverhead = 128
	return structOverhead + int64(len(res.Ordering))*8 + int64(len(res.Profile))*8 + int64(len(res.TerminalValues))*8
}
