package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"obddopt/internal/artifact"
	"obddopt/internal/core"
	"obddopt/internal/obs"
	"obddopt/internal/truthtable"
)

// Client is the typed Go client of the obddd service. Its Solve mirrors
// the in-process Solve contract: the wire schema round-trips back into
// *core.Result, and service error codes map onto the engine's sentinel
// errors, so errors.Is(err, core.ErrCanceled) (and friends) holds for
// remote calls exactly as for local ones — callers switch between
// in-process and remote solving without touching their error handling.
// A Client is safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client

	// feats is the server's advertised feature set, captured from the
	// latest Solvers call (Dial always makes one). Optional request
	// fields are sent only when the matching feature is present, so old
	// servers — which reject unknown fields — keep working unchanged.
	featMu sync.Mutex
	feats  map[string]bool
}

// hasFeature reports whether the server advertised the named wire
// feature.
func (c *Client) hasFeature(name string) bool {
	c.featMu.Lock()
	defer c.featMu.Unlock()
	return c.feats[name]
}

// Params configures one remote solve; the zero value requests the
// portfolio solver on OBDDs under the server's default limits.
type Params struct {
	// Solver names the strategy; empty selects the portfolio, which runs
	// the parallel dynamic program, or seeded branch-and-bound when
	// Budget.MaxCells is below the DP's closed-form peak. On a deadline
	// stop its incumbent is the heuristic seeder's, which sees the same
	// expired deadline and usually returns its starting ordering.
	Solver string
	// Rule selects the diagram variant (OBDD or ZDD).
	Rule core.Rule
	// Deadline bounds the solve's wall-clock time (clamped by the
	// server's cap); 0 adopts the server default.
	Deadline time.Duration
	// Budget bounds the solve's resources (clamped by the server).
	Budget core.Budget
	// Workers is the goroutine count of the parallel DP (the portfolio's
	// included).
	Workers int
	// NoCache bypasses the server's canonical result cache.
	NoCache bool
	// Coschedule marks SolveBatch items as co-scheduling candidates: the
	// server may solve overlapping items of the batch as one shared
	// forest, returning each item's cost under the group's jointly
	// optimal ordering (see SolveHints.Coschedule). Best-effort: the
	// hint is sent only when the server advertises the "batch-hints"
	// feature, and the server's decision comes back in
	// BatchResult.Scheduling. Ignored by Solve.
	Coschedule bool
	// Report requests the per-run obs.RunReport (retrievable via
	// SolveReport).
	Report bool
	// RequestID, when non-empty, is sent as the X-Request-ID header so
	// the server adopts the caller's trace ID instead of minting one;
	// it comes back in the response envelope, the RunReport, and the
	// server's access log. When empty, a span already on the call's
	// context (obs.ContextWithSpan) supplies its ID instead.
	RequestID string
}

// requestID resolves the trace ID to send: the explicit Params field
// first, then the context span's ID, else empty (server mints one).
func requestID(ctx context.Context, p *Params) string {
	if p != nil && p.RequestID != "" {
		return p.RequestID
	}
	if sp := obs.SpanFromContext(ctx); sp != nil {
		return sp.ID()
	}
	return ""
}

// Dial validates baseURL ("http://host:port") and verifies the service
// is reachable by fetching GET /v1/solvers. Use DialWithClient to
// supply a custom http.Client (timeouts, transports).
func Dial(ctx context.Context, baseURL string) (*Client, error) {
	return DialWithClient(ctx, baseURL, nil)
}

// DialWithClient is Dial with a caller-supplied http.Client; nil uses a
// fresh default client.
func DialWithClient(ctx context.Context, baseURL string, hc *http.Client) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("obddd client: bad base URL %q: %v", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("obddd client: base URL %q must be http(s)", baseURL)
	}
	if hc == nil {
		hc = &http.Client{}
	}
	c := &Client{base: strings.TrimRight(u.String(), "/"), hc: hc}
	if _, err := c.Solvers(ctx); err != nil {
		return nil, fmt.Errorf("obddd client: service unreachable at %s: %w", baseURL, err)
	}
	return c, nil
}

// Solvers fetches the service's registered solver names and limits.
func (c *Client) Solvers(ctx context.Context) (*SolversResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/solvers", nil)
	if err != nil {
		return nil, err
	}
	var out SolversResponse
	if err := c.do(req, &out); err != nil {
		return nil, err
	}
	c.featMu.Lock()
	c.feats = make(map[string]bool, len(out.Features))
	for _, f := range out.Features {
		c.feats[f] = true
	}
	c.featMu.Unlock()
	return &out, nil
}

// Solve solves tt remotely. The outcome contract matches the local
// Solve API: a nil error guarantees the result is a proven optimum
// (possibly served from the server's canonical cache); ErrCanceled /
// ErrBudgetExceeded arrive with the best incumbent when the server
// found one; malformed input surfaces ErrInvalidInput; a saturated
// server surfaces ErrSaturated.
func (c *Client) Solve(ctx context.Context, tt *truthtable.Table, p *Params) (*core.Result, error) {
	res, _, err := c.SolveReport(ctx, tt, p)
	return res, err
}

// SolveReport is Solve returning the server-side run report as well
// (nil unless Params.Report was set and a solver actually ran — cached
// and coalesced answers carry no fresh report).
func (c *Client) SolveReport(ctx context.Context, tt *truthtable.Table, p *Params) (*core.Result, *obs.RunReport, error) {
	if tt == nil {
		return nil, nil, fmt.Errorf("%w: nil truth table", core.ErrInvalidInput)
	}
	wire, err := c.post(ctx, "/v1/solve", toWire(tt, p), requestID(ctx, p))
	if err != nil {
		return nil, nil, err
	}
	return wire.Result, wire.Report, wireToError(wire.Error)
}

// BatchResult is one outcome of SolveBatch, index-aligned with its
// input; Result and Err follow the Solve contract.
type BatchResult struct {
	Result *core.Result
	Err    error
	// Scheduling echoes the server's co-scheduling decision for this
	// item; nil when the request carried no hints (Params.Coschedule
	// unset, or the server predates the batch-hints feature).
	Scheduling *SchedulingEcho
}

// SolveBatch solves several tables in one request. The batch occupies
// one server admission slot and runs sequentially there; per-item
// outcomes (including per-item errors) come back index-aligned. The
// returned error covers transport and whole-batch failures only.
func (c *Client) SolveBatch(ctx context.Context, tts []*truthtable.Table, p *Params) ([]BatchResult, error) {
	if len(tts) == 0 {
		return nil, fmt.Errorf("%w: empty batch", core.ErrInvalidInput)
	}
	breq := BatchRequest{Requests: make([]SolveRequest, len(tts))}
	sendHints := p != nil && p.Coschedule && c.hasFeature(FeatureBatchHints)
	for i, tt := range tts {
		if tt == nil {
			return nil, fmt.Errorf("%w: nil truth table at index %d", core.ErrInvalidInput, i)
		}
		breq.Requests[i] = *toWire(tt, p)
		if sendHints {
			breq.Requests[i].Hints = &SolveHints{Coschedule: true}
		}
	}
	body, err := json.Marshal(&breq)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/solve/batch", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id := requestID(ctx, p); id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	var out BatchResponse
	if err := c.do(req, &out); err != nil {
		return nil, err
	}
	if len(out.Responses) != len(tts) {
		return nil, fmt.Errorf("obddd client: batch returned %d responses for %d requests", len(out.Responses), len(tts))
	}
	results := make([]BatchResult, len(out.Responses))
	for i := range out.Responses {
		results[i] = BatchResult{
			Result:     out.Responses[i].Result,
			Err:        wireToError(out.Responses[i].Error),
			Scheduling: out.Responses[i].Scheduling,
		}
	}
	return results, nil
}

// SolveArtifact is Solve additionally returning the solved function's
// compact OBDD artifact (the diagram under the proven-optimal
// ordering). The artifact arrives base64-embedded in the JSON envelope
// (?include=bdd) and is decoded and re-verified locally before being
// handed to the caller: the variable count, recorded ordering and node
// count must match the result, and the diagram must evaluate back to
// tt. Artifacts exist for the OBDD rule only — a ZDD Params.Rule is
// ErrInvalidInput — and require a server advertising the
// "obdd-artifact" feature. On early-stopped solves the incumbent result
// and its error come back with a nil artifact.
func (c *Client) SolveArtifact(ctx context.Context, tt *truthtable.Table, p *Params) (*core.Result, *artifact.Artifact, error) {
	if tt == nil {
		return nil, nil, fmt.Errorf("%w: nil truth table", core.ErrInvalidInput)
	}
	if p != nil && p.Rule != core.OBDD {
		return nil, nil, fmt.Errorf("%w: artifacts are defined for the obdd rule only", core.ErrInvalidInput)
	}
	if !c.hasFeature(FeatureArtifact) {
		return nil, nil, fmt.Errorf("obddd client: server does not advertise the %q feature", FeatureArtifact)
	}
	wire, err := c.post(ctx, "/v1/solve?include=bdd", toWire(tt, p), requestID(ctx, p))
	if err != nil {
		return nil, nil, err
	}
	if werr := wireToError(wire.Error); werr != nil {
		return wire.Result, nil, werr
	}
	a, err := c.verifyArtifact(wire.BDD, tt, wire.Result)
	if err != nil {
		return wire.Result, nil, err
	}
	return wire.Result, a, nil
}

// verifyArtifact decodes served artifact bytes and holds them against
// the result they came with — the client-side trust boundary: a
// decoded diagram is returned only after it provably denotes tt under
// the result's ordering with the result's node count.
func (c *Client) verifyArtifact(data []byte, tt *truthtable.Table, res *core.Result) (*artifact.Artifact, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("obddd client: server sent no artifact with a proven-optimal result")
	}
	a, err := artifact.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("obddd client: served artifact: %w", err)
	}
	if a.NumVars() != tt.NumVars() {
		return nil, fmt.Errorf("obddd client: served artifact has %d variables, request had %d", a.NumVars(), tt.NumVars())
	}
	if res == nil || !a.Ordering().Equal(res.Ordering) {
		return nil, fmt.Errorf("obddd client: served artifact's ordering does not match the result's")
	}
	if a.NodeCount() != res.MinCost {
		return nil, fmt.Errorf("obddd client: served artifact has %d nodes, result claims MinCost %d", a.NodeCount(), res.MinCost)
	}
	if err := artifact.Verify(a, tt); err != nil {
		return nil, fmt.Errorf("obddd client: %w", err)
	}
	return a, nil
}

// SolveArtifactRaw solves tt and returns the artifact's raw encoded
// bytes, negotiated via Accept: application/x-obdd — the transfer path
// for callers that store or forward artifacts without inflating them.
// The bytes are NOT decoded or verified here (use artifact.Decode /
// artifact.Verify, or SolveArtifact for the verified path); transport
// truncation is still loud, surfacing as io.ErrUnexpectedEOF. Solve
// failures come back on the JSON envelope path with the usual sentinel
// mapping.
func (c *Client) SolveArtifactRaw(ctx context.Context, tt *truthtable.Table, p *Params) ([]byte, error) {
	if tt == nil {
		return nil, fmt.Errorf("%w: nil truth table", core.ErrInvalidInput)
	}
	if p != nil && p.Rule != core.OBDD {
		return nil, fmt.Errorf("%w: artifacts are defined for the obdd rule only", core.ErrInvalidInput)
	}
	if !c.hasFeature(FeatureArtifact) {
		return nil, fmt.Errorf("obddd client: server does not advertise the %q feature", FeatureArtifact)
	}
	body, err := json.Marshal(toWire(tt, p))
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", ArtifactMediaType)
	if id := requestID(ctx, p); id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("obddd client: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<30))
	if err != nil {
		// Keep the sentinel visible: a body cut short of its declared
		// Content-Length is io.ErrUnexpectedEOF, and errors.Is must see
		// it through the wrap.
		return nil, fmt.Errorf("obddd client: reading artifact body: %w", err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, ArtifactMediaType) {
		// The server answered on the JSON envelope path: a solve error,
		// admission rejection, or input rejection.
		var out SolveResponse
		if err := json.Unmarshal(data, &out); err != nil {
			return nil, fmt.Errorf("obddd client: HTTP %d with undecodable body: %v", resp.StatusCode, err)
		}
		if werr := wireToError(out.Error); werr != nil {
			return nil, werr
		}
		return nil, fmt.Errorf("obddd client: server answered JSON without an error to a %s request", ArtifactMediaType)
	}
	return data, nil
}

// toWire renders (tt, p) as a wire request.
func toWire(tt *truthtable.Table, p *Params) *SolveRequest {
	if p == nil {
		p = &Params{}
	}
	return &SolveRequest{
		Table:      tt.Hex(),
		Rule:       strings.ToLower(p.Rule.String()),
		Solver:     p.Solver,
		DeadlineMS: p.Deadline.Milliseconds(),
		MaxCells:   p.Budget.MaxCells,
		MaxNodes:   p.Budget.MaxNodes,
		Workers:    p.Workers,
		NoCache:    p.NoCache,
		Report:     p.Report,
	}
}

// post sends one SolveRequest and decodes the SolveResponse envelope
// regardless of HTTP status (the service encodes solve and admission
// outcomes in the body; do surfaces transport-level failures).
func (c *Client) post(ctx context.Context, path string, sreq *SolveRequest, reqID string) (*SolveResponse, error) {
	body, err := json.Marshal(sreq)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	var out SolveResponse
	if err := c.do(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// do executes req and decodes the JSON body into out. Non-2xx statuses
// are not errors by themselves: the service carries its outcome in the
// body envelope. A body that fails to decode is a transport error.
func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("obddd client: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<30))
	if err != nil {
		return fmt.Errorf("obddd client: reading response: %w", err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("obddd client: HTTP %d with undecodable body: %v", resp.StatusCode, err)
	}
	return nil
}
