package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Recorder is a Tracer that appends every event to an in-memory log. It
// is safe for concurrent use and intended for tests and offline analysis
// (e.g. exporting run features for learned variable-ordering methods).
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Emit implements Tracer.
func (r *Recorder) Emit(ev Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Events returns a copy of the recorded events in emission order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Count returns the number of recorded events of the given kind.
func (r *Recorder) Count(kind EventKind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ev := range r.events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// SumCellOps returns the total CellOps over events of the given kind.
func (r *Recorder) SumCellOps(kind EventKind) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum uint64
	for _, ev := range r.events {
		if ev.Kind == kind {
			sum += ev.CellOps
		}
	}
	return sum
}

// Reset discards all recorded events.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.events = r.events[:0]
	r.mu.Unlock()
}

// Progress is a Tracer that renders a live, human-readable run log —
// one line per DP layer, incumbent improvement, division step or
// heuristic pass — to a writer (normally stderr). High-volume events
// (per-compaction, per-expansion) are ignored, so attaching Progress to
// a large run costs a cheap type switch per event.
type Progress struct {
	mu    sync.Mutex
	w     io.Writer
	start time.Time
}

// NewProgress returns a Progress renderer writing to w.
func NewProgress(w io.Writer) *Progress {
	return &Progress{w: w, start: time.Now()}
}

// Emit implements Tracer.
func (p *Progress) Emit(ev Event) {
	switch ev.Kind {
	case KindLayerEnd, KindBnBBest, KindDnCSplit, KindDnCMerge, KindHeurPass, KindQuantumBatch,
		KindLaneResult:
	default:
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	since := time.Since(p.start).Round(time.Millisecond)
	switch ev.Kind {
	case KindLayerEnd:
		fmt.Fprintf(p.w, "[%8s] layer %2d: %d subsets, %d cell ops, live %d cells (peak %d), %s\n",
			since, ev.K, ev.Subsets, ev.CellOps, ev.LiveCells, ev.PeakCells,
			ev.Elapsed.Round(time.Microsecond))
	case KindBnBBest:
		fmt.Fprintf(p.w, "[%8s] bnb: new incumbent %d nonterminals\n", since, ev.Cost)
	case KindDnCSplit:
		fmt.Fprintf(p.w, "[%8s] dnc: split level %d over mask %#x, %d candidate subsets\n",
			since, ev.Depth, ev.Mask, ev.Subsets)
	case KindDnCMerge:
		fmt.Fprintf(p.w, "[%8s] dnc: chose subset %#x, cost %d\n", since, ev.Mask, ev.Cost)
	case KindHeurPass:
		fmt.Fprintf(p.w, "[%8s] heuristic pass %d: cost %d after %d evaluations\n",
			since, ev.K, ev.Cost, ev.Evals)
	case KindQuantumBatch:
		fmt.Fprintf(p.w, "[%8s] quantum: min over %d candidates, %.1f metered queries, min cost %d\n",
			since, ev.Evals, ev.Queries, ev.Cost)
	case KindLaneResult:
		// A lane stopped without a result carries no Cost.
		cost := ""
		if ev.Cost > 0 {
			cost = fmt.Sprintf(", cost %d", ev.Cost)
		}
		fmt.Fprintf(p.w, "[%8s] portfolio: lane %q returned after %s%s\n",
			since, ev.Lane, ev.Elapsed.Round(time.Microsecond), cost)
	}
}
