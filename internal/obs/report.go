package obs

import (
	"sync"
	"time"
)

// RunReport is the machine-readable run summary shared by all CLI `-json`
// modes (`optobdd`, `bddbench`, `bddstats`) and by library users via
// Collector.Report. Solver-specific sections are pointers and omitted
// when the run produced no such events; Meter and Result hold the
// `core.Meter` / `core.Result` (or shared/heuristic equivalents) of the
// run, which carry their own JSON tags.
type RunReport struct {
	Tool      string `json:"tool,omitempty"`
	Algorithm string `json:"algorithm,omitempty"`
	Rule      string `json:"rule,omitempty"`
	// RequestID is the request/trace ID of the run's span — minted by
	// Solve, or accepted from the X-Request-ID wire header by obddd —
	// and Span its phase timeline (admission, queue, cache, solver
	// start/done). See internal/obs span.go.
	RequestID string          `json:"request_id,omitempty"`
	Span      []SpanEvent     `json:"span,omitempty"`
	N         int             `json:"n,omitempty"`
	ElapsedMS float64         `json:"elapsed_ms,omitempty"`
	Events    int             `json:"events,omitempty"`
	Layers    []LayerStat     `json:"layers,omitempty"`
	BnB       *BnBStats       `json:"bnb,omitempty"`
	DnC       *DnCStats       `json:"dnc,omitempty"`
	Heuristic *HeurStats      `json:"heuristic,omitempty"`
	Quantum   *QuantStats     `json:"quantum,omitempty"`
	Portfolio *PortfolioStats `json:"portfolio,omitempty"`
	Metrics   any             `json:"metrics,omitempty"`
	Meter     any             `json:"meter,omitempty"`
	Result    any             `json:"result,omitempty"`
	Details   any             `json:"details,omitempty"`
}

// LayerStat summarizes one completed DP layer (one KindLayerEnd event).
type LayerStat struct {
	K         int     `json:"k"`
	Subsets   int     `json:"subsets"`
	CellOps   uint64  `json:"cell_ops"`
	LiveCells uint64  `json:"live_cells,omitempty"`
	PeakCells uint64  `json:"peak_cells,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// BnBStats aggregates branch-and-bound events.
type BnBStats struct {
	Expansions       uint64 `json:"expansions"`
	PrunedMemo       uint64 `json:"pruned_memo"`
	PrunedIncumbent  uint64 `json:"pruned_incumbent"`
	PrunedLowerBound uint64 `json:"pruned_lower_bound"`
	Improvements     uint64 `json:"improvements"`
	BestCost         uint64 `json:"best_cost"`
	CellOps          uint64 `json:"cell_ops"`
}

// DnCStats aggregates divide-and-conquer events.
type DnCStats struct {
	Splits     uint64 `json:"splits"`
	Merges     uint64 `json:"merges"`
	Candidates uint64 `json:"candidates"`
}

// HeurStats aggregates heuristic-search events.
type HeurStats struct {
	Passes    uint64 `json:"passes"`
	Swaps     uint64 `json:"swaps"`
	FinalCost uint64 `json:"final_cost"`
	Evals     uint64 `json:"evals"`
}

// QuantStats aggregates simulated quantum minimum-finding batches.
type QuantStats struct {
	Batches     uint64  `json:"batches"`
	OracleEvals uint64  `json:"oracle_evals"`
	Queries     float64 `json:"queries"`
}

// LaneStat summarizes one portfolio lane: an engine the portfolio ran.
type LaneStat struct {
	Lane      string  `json:"lane"`
	Cost      uint64  `json:"cost,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
}

// PortfolioStats aggregates portfolio lane events.
type PortfolioStats struct {
	Lanes []LaneStat `json:"lanes,omitempty"`
}

// Collector is a Tracer that folds the event stream into a RunReport as
// it arrives, so emitting a JSON report at the end of a run needs no
// event buffering. It is safe for concurrent use.
type Collector struct {
	mu      sync.Mutex
	start   time.Time
	events  int
	layers  []LayerStat
	bnb     BnBStats
	hasBnB  bool
	dnc     DnCStats
	hasDnC  bool
	heur    HeurStats
	hasHeur bool
	quant   QuantStats
	hasQu   bool
	port    PortfolioStats
	hasPort bool
}

// NewCollector returns a Collector; elapsed time in the report is
// measured from this call.
func NewCollector() *Collector { return &Collector{start: time.Now()} }

// Emit implements Tracer.
func (c *Collector) Emit(ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events++
	switch ev.Kind {
	case KindLayerEnd:
		c.layers = append(c.layers, LayerStat{
			K:         ev.K,
			Subsets:   ev.Subsets,
			CellOps:   ev.CellOps,
			LiveCells: ev.LiveCells,
			PeakCells: ev.PeakCells,
			ElapsedMS: float64(ev.Elapsed) / float64(time.Millisecond),
		})
	case KindBnBExpand:
		c.hasBnB = true
		c.bnb.Expansions++
		c.bnb.CellOps += ev.CellOps
	case KindBnBPruneMemo:
		c.hasBnB = true
		c.bnb.PrunedMemo++
	case KindBnBPruneIncumbent:
		c.hasBnB = true
		c.bnb.PrunedIncumbent++
	case KindBnBPruneBound:
		c.hasBnB = true
		c.bnb.PrunedLowerBound++
	case KindBnBBest:
		c.hasBnB = true
		c.bnb.Improvements++
		c.bnb.BestCost = ev.Cost
	case KindDnCSplit:
		c.hasDnC = true
		c.dnc.Splits++
		c.dnc.Candidates += uint64(ev.Subsets)
	case KindDnCMerge:
		c.hasDnC = true
		c.dnc.Merges++
	case KindHeurPass:
		c.hasHeur = true
		c.heur.Passes++
		c.heur.FinalCost = ev.Cost
		c.heur.Evals = ev.Evals
	case KindHeurSwap:
		c.hasHeur = true
		c.heur.Swaps++
	case KindQuantumBatch:
		c.hasQu = true
		c.quant.Batches++
		c.quant.OracleEvals += ev.Evals
		c.quant.Queries += ev.Queries
	case KindLaneResult:
		c.hasPort = true
		c.port.Lanes = append(c.port.Lanes, LaneStat{
			Lane:      ev.Lane,
			Cost:      ev.Cost,
			ElapsedMS: float64(ev.Elapsed) / float64(time.Millisecond),
		})
	}
}

// Report assembles the collected statistics into a RunReport. The caller
// typically fills in Tool/Algorithm/Rule/N/Meter/Result before encoding.
func (c *Collector) Report() *RunReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := &RunReport{
		ElapsedMS: float64(time.Since(c.start)) / float64(time.Millisecond),
		Events:    c.events,
		Layers:    append([]LayerStat(nil), c.layers...),
	}
	if c.hasBnB {
		b := c.bnb
		rep.BnB = &b
	}
	if c.hasDnC {
		d := c.dnc
		rep.DnC = &d
	}
	if c.hasHeur {
		h := c.heur
		rep.Heuristic = &h
	}
	if c.hasQu {
		q := c.quant
		rep.Quantum = &q
	}
	if c.hasPort {
		p := c.port
		p.Lanes = append([]LaneStat(nil), c.port.Lanes...)
		rep.Portfolio = &p
	}
	return rep
}
