package server

import (
	"context"
	"fmt"
	"strings"
	"time"

	"obddopt/internal/core"
	"obddopt/internal/obs"
	"obddopt/internal/truthtable"
)

// This file is the batch co-scheduling planner: /v1/solve/batch items
// that opt in via SolveHints.Coschedule are grouped by variable count,
// rule and canonical-digest prefix, and each group whose tables overlap
// is solved as ONE shared-forest dynamic program under one worker slot —
// the pipelined DP engine over the group's concatenated tables, under
// the group head's schedule. The shared DP amortizes the subset lattice
// across the group, so k overlapping items cost far less than k
// independent solves. The planner's decision is echoed per item in
// SolveResponse.Scheduling.

// coschedulePrefixLen caps the length (hex digits) of the canonical-
// digest prefix in the grouping key; small tables use half their digits
// so that near-identical functions still bucket together. Items must
// share the prefix to even be considered; the overlap test below does
// the fine-grained check.
const coschedulePrefixLen = 16

// coscheduleOverlap is the minimum fraction of equal hex digits between
// an item's table and its group head's for the item to join the group.
// Unrelated random tables agree on ~1/16 of digits; functions close
// enough to share subtables in a forest agree on far more.
const coscheduleOverlap = 0.25

// batchGroup is one planned co-scheduling group: batch indices plus the
// parsed tables, index-aligned.
type batchGroup struct {
	key    string
	items  []int
	tts    []*truthtable.Table
	digits []string
}

// planCoschedule partitions a batch's co-scheduling opt-ins into groups.
// Only items the shared dynamic program can serve are eligible (solver
// "" or "fs", parseable table, known rule); anything else is left for
// the per-item path, which surfaces the proper rejection. Groups of one
// are discarded — co-scheduling exists to share work, and a lone item is
// better served by the single-function engine and the result cache.
func (s *Server) planCoschedule(req *BatchRequest) []*batchGroup {
	groups := make(map[string]*batchGroup)
	var order []string
	for i := range req.Requests {
		r := &req.Requests[i]
		if r.Hints == nil || !r.Hints.Coschedule {
			continue
		}
		if r.Solver != "" && r.Solver != "fs" {
			continue
		}
		tt, err := truthtable.ParseHex(r.Table)
		if err != nil || tt.NumVars() > s.cfg.MaxVars {
			continue
		}
		rule := core.OBDD
		if r.Rule != "" {
			if rule, err = core.ParseRule(r.Rule); err != nil {
				continue
			}
		}
		hex := tt.Hex()
		digits := hex[strings.IndexByte(hex, ':')+1:]
		prefix := digits
		if half := (len(digits) + 1) / 2; half < len(prefix) {
			prefix = prefix[:half]
		}
		if len(prefix) > coschedulePrefixLen {
			prefix = prefix[:coschedulePrefixLen]
		}
		key := fmt.Sprintf("%d/%s/%s", tt.NumVars(), strings.ToLower(rule.String()), prefix)
		g := groups[key]
		if g == nil {
			groups[key] = &batchGroup{key: key, items: []int{i}, tts: []*truthtable.Table{tt}, digits: []string{digits}}
			order = append(order, key)
			continue
		}
		if digitOverlap(digits, g.digits[0]) < coscheduleOverlap {
			continue
		}
		g.items = append(g.items, i)
		g.tts = append(g.tts, tt)
		g.digits = append(g.digits, digits)
	}
	planned := make([]*batchGroup, 0, len(order))
	for _, key := range order {
		if g := groups[key]; len(g.items) >= 2 {
			planned = append(planned, g)
		}
	}
	return planned
}

// digitOverlap returns the fraction of positions at which the two hex
// encodings agree; 0 when the lengths differ (different variable counts
// never group anyway).
func digitOverlap(a, b string) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	equal := 0
	for i := 0; i < len(a); i++ {
		if a[i] == b[i] {
			equal++
		}
	}
	return float64(equal) / float64(len(a))
}

// runCoscheduled plans and executes the batch's co-scheduled groups,
// filling their slots of out. The returned slice marks which items were
// answered here; the caller solves the rest independently.
func (s *Server) runCoscheduled(ctx context.Context, req *BatchRequest, out *BatchResponse) []bool {
	done := make([]bool, len(req.Requests))
	for _, g := range s.planCoschedule(req) {
		if s.solveGroup(ctx, req, g, out) {
			for _, i := range g.items {
				done[i] = true
			}
		}
	}
	return done
}

// solveGroup runs one planned group as a single shared-forest solve. The
// group head's limits (deadline, budget, schedule) govern the run — the
// members opted into riding along with it. It reports false when the
// group could not even start (head fails validation), sending every item
// back to the per-item path.
func (s *Server) solveGroup(reqCtx context.Context, req *BatchRequest, g *batchGroup, out *BatchResponse) bool {
	start := time.Now()
	sp := obs.SpanFromContext(reqCtx)
	_, rule, _, opts, deadline, err := s.parseRequest(&req.Requests[g.items[0]])
	if err != nil {
		return false
	}

	// Same lifetime plumbing as solveOne: bounded by the request
	// deadline and the server's Drain.
	ctx, cancel := context.WithCancel(reqCtx)
	defer cancel()
	stop := context.AfterFunc(s.lifeCtx, cancel)
	defer stop()
	if deadline > 0 {
		var dcancel context.CancelFunc
		ctx, dcancel = context.WithTimeout(ctx, deadline)
		defer dcancel()
	}

	echo := func() *SchedulingEcho {
		return &SchedulingEcho{Coscheduled: true, Group: g.key, GroupSize: len(g.items)}
	}

	queueStart := time.Now()
	releaseWorker, err := s.adm.acquireWorker(ctx)
	queueWait := time.Since(queueStart)
	obs.Hist(obs.HistNameQueueWait).RecordDuration(queueWait)
	if err != nil {
		for _, i := range g.items {
			out.Responses[i] = SolveResponse{
				Error:       errorToWire(fmt.Errorf("%w: while queued: %v", core.ErrCanceled, err)),
				Scheduling:  echo(),
				ElapsedMS:   msSince(start),
				queueWaitNS: queueWait.Nanoseconds(),
			}
			obs.Metrics.RequestsServed.Inc()
		}
		return true
	}
	defer releaseWorker()
	if sp != nil {
		sp.Event(fmt.Sprintf("coschedule_group:%s:%d", g.key, len(g.items)))
	}

	s.solves.Add(1)
	solveStart := time.Now()
	shared, err := core.OptimalOrderingSharedParallel(ctx, g.tts, opts)
	elapsed := time.Since(solveStart)
	obs.Hist(obs.HistNameSolveLatency, "solver", "shared").RecordDuration(elapsed)

	for k, i := range g.items {
		resp := SolveResponse{
			Scheduling:  echo(),
			ElapsedMS:   msSince(start),
			queueWaitNS: queueWait.Nanoseconds(),
			solveNS:     elapsed.Nanoseconds(),
			cacheState:  "bypass",
		}
		if err != nil {
			// The shared DP carries no incumbent, so the whole group
			// degrades together.
			resp.Error = errorToWire(err)
		} else {
			resp.Result = coscheduledResult(g.tts[k], shared, rule)
		}
		obs.Metrics.RequestsServed.Inc()
		out.Responses[i] = resp
	}
	return true
}

// coscheduledResult projects the group's jointly optimal ordering back
// onto one item: the item's own level profile and node count under that
// ordering. The cost is optimal for the shared forest, not proven
// optimal for the item alone, which is why co-scheduled results never
// enter the canonical cache.
func coscheduledResult(tt *truthtable.Table, shared *core.SharedResult, rule core.Rule) *core.Result {
	widths := core.Profile(tt, shared.Ordering, rule, nil)
	var minCost uint64
	for _, w := range widths {
		minCost += w
	}
	termVals := []int{0, 1}
	switch ones := tt.CountOnes(); {
	case ones == 0:
		termVals = []int{0}
	case ones == tt.Size():
		termVals = []int{1}
	}
	return &core.Result{
		N:              tt.NumVars(),
		Rule:           rule,
		MinCost:        minCost,
		Terminals:      len(termVals),
		Size:           minCost + uint64(len(termVals)),
		Ordering:       shared.Ordering,
		Profile:        widths,
		TerminalValues: termVals,
	}
}
