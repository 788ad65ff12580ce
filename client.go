package obddopt

import (
	"context"
	"net/http"

	"obddopt/internal/artifact"
	"obddopt/internal/server"
)

// This file is the public face of the obddd network solve service
// (internal/server, cmd/obddd): the typed client, the service
// configuration for embedding the server in another process, and the
// admission sentinels. Remote solves keep the in-process error
// contract — errors.Is against ErrCanceled / ErrBudgetExceeded /
// ErrInvalidInput works identically for both — so callers switch
// between local Solve and Client.Solve without touching their error
// handling.

// Client is the typed client of an obddd solve service; create one with
// Dial. It is safe for concurrent use.
type Client = server.Client

// ClientParams configures one remote solve (solver, rule, deadline,
// budget, cache bypass); the zero value requests the portfolio solver
// (the parallel dynamic program, or seeded branch-and-bound under a
// cell budget below its closed-form peak) on OBDDs under the server's
// default limits.
type ClientParams = server.Params

// BatchResult is one outcome of Client.SolveBatch, index-aligned with
// its input.
type BatchResult = server.BatchResult

// SchedulingEcho reports the server's batch co-scheduling decision for
// one item (see ClientParams.Coschedule); it arrives in
// BatchResult.Scheduling when the request carried hints.
type SchedulingEcho = server.SchedulingEcho

// ServerConfig sizes an embedded solve service (workers, queue depth,
// deadline and budget caps, cache bytes); the zero value selects
// production defaults.
type ServerConfig = server.Config

// Server is the solve service itself, for embedding its Handler into an
// existing http.Server; cmd/obddd is the standalone daemon.
type Server = server.Server

// Admission sentinels of the solve service; test with errors.Is.
var (
	// ErrSaturated reports that the server's admission queue was full
	// (HTTP 429); retry after the response's Retry-After interval.
	ErrSaturated = server.ErrSaturated
	// ErrDraining reports that the server is shutting down and no
	// longer admits work (HTTP 503).
	ErrDraining = server.ErrDraining
)

// Artifact is a function's reduced OBDD under a concrete ordering in
// the compact canonical level-indexed form served by /v1/solve and
// emitted by optobdd -emit-bdd: equal (function, ordering) pairs
// always encode to byte-identical artifacts, so the bytes are suitable
// as content-addressed store values. Obtain one locally with
// BuildArtifact or SolveArtifact, remotely with Client.SolveArtifact,
// or from stored bytes with DecodeArtifact.
type Artifact = artifact.Artifact

// ArtifactMediaType is the HTTP content type of a raw encoded artifact
// (Client.SolveArtifactRaw negotiates it via the Accept header).
const ArtifactMediaType = artifact.MediaType

// BuildArtifact constructs the canonical artifact of tt's reduced OBDD
// under the given bottom-up ordering (nil selects the natural
// ordering). Serialize with Artifact.Encode.
func BuildArtifact(tt *Table, order Ordering) (*Artifact, error) {
	return artifact.Build(tt, order)
}

// DecodeArtifact parses and fully validates encoded artifact bytes; it
// never panics on arbitrary input. Accepted streams are canonical:
// re-encoding reproduces the input byte for byte.
func DecodeArtifact(data []byte) (*Artifact, error) {
	return artifact.Decode(data)
}

// VerifyArtifact checks that a denotes exactly the function tt
// (exhaustively up to 16 variables, by deterministic sampling above).
func VerifyArtifact(a *Artifact, tt *Table) error {
	return artifact.Verify(a, tt)
}

// Dial validates baseURL ("http://host:port") and verifies an obddd
// service is reachable there.
func Dial(ctx context.Context, baseURL string) (*Client, error) {
	return server.Dial(ctx, baseURL)
}

// DialWithClient is Dial with a caller-supplied http.Client (custom
// timeouts, transports); nil uses a fresh default client.
func DialWithClient(ctx context.Context, baseURL string, hc *http.Client) (*Client, error) {
	return server.DialWithClient(ctx, baseURL, hc)
}

// NewServer returns a ready-to-serve solve service; ctx anchors its
// lifetime (canceling it is equivalent to Drain). Mount its Handler
// wherever the process serves HTTP.
func NewServer(ctx context.Context, cfg ServerConfig) *Server {
	return server.New(ctx, cfg)
}
