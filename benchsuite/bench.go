package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"obddopt"
)

// config sizes one run. Production runs use defaultConfig; tests shrink
// the counts.
type config struct {
	// seconds is how long the measured loop runs at least; it continues
	// to the end of a block, and until the tail percentile and the block
	// medians have enough samples.
	seconds time.Duration
	// warmOps is the number of untimed operations run during setup.
	warmOps int
	// setupReps is how many times setup is repeated; setup_s is the
	// median, and the last repetition's instance is measured.
	setupReps int
}

func defaultConfig(seconds time.Duration) config {
	return config{seconds: seconds, warmOps: 8, setupReps: 7}
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// report is the outcome of one run of one workload.
type report struct {
	workload  string
	attempted int
	failed    int
	correct   bool
	problems  []string
	metrics   []metric
	// notes are human-readable lines printed with the summary.
	notes []string
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

// planNext adapts a plan's endless sequence to a loop source.
func planNext(p *plan) func() (op, bool) {
	return func() (op, bool) { return p.next(), true }
}

// setUp builds a fresh instance of w, fills its cache and runs the
// warm-up operations, recording them into warm.
func setUp(ctx context.Context, w *workload, seed int64, cfg config, scfg obddopt.ServerConfig, warm *recorder) (*env, error) {
	p := w.newPlan(w, seed)
	e, err := newEnv(ctx, w, p, scfg)
	if err != nil {
		return nil, err
	}
	if err := e.warmCache(ctx); err != nil {
		e.close()
		return nil, err
	}
	e.runLoop(ctx, loopSpec{next: replay(take(p, cfg.warmOps))}, warm)
	return e, nil
}

// minBlocks is the fewest whole blocks a measured loop runs, so the
// block medians have enough values.
const minBlocks = 5

// blockClock marks the end of every block of completed operations with
// the time and the process CPU time.
type blockClock struct {
	mu    sync.Mutex
	size  int
	done  int
	marks []blockMark
}

type blockMark struct {
	at  time.Time
	cpu time.Duration
}

func newBlockClock(size int) *blockClock {
	return &blockClock{size: size, marks: []blockMark{{at: time.Now(), cpu: cpuTime()}}}
}

func (b *blockClock) tick() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done++; b.done%b.size == 0 {
		b.marks = append(b.marks, blockMark{at: time.Now(), cpu: cpuTime()})
	}
}

// runTimed is the untraced measured run behind the end-to-end metrics.
// The loop runs whole blocks, so every run's operations have the same
// composition. Throughput, CPU per operation and peak heap are medians
// over the blocks, which keeps a transient stall of the machine, or a
// collection that happens to land on a solve's largest layer, from
// moving them; the latency percentiles pool every operation.
func runTimed(ctx context.Context, w *workload, seed int64, cfg config) (*report, error) {
	warm := newRecorder()
	var (
		e      *env
		setups []float64
	)
	for i := 0; i < cfg.setupReps; i++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		if e, err = setUp(ctx, w, seed, cfg, obddopt.ServerConfig{}, warm); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.close()

	// Drop the discarded instances before the heap is sampled.
	runtime.GC()
	rec := newRecorder()
	heap := startHeapSampler()
	clock := newBlockClock(e.p.block)
	wall := e.runLoop(ctx, loopSpec{
		next:     planNext(e.p),
		deadline: time.Now().Add(cfg.seconds),
		minOps:   max(minTailSamples, minBlocks*e.p.block),
		block:    e.p.block,
		do: func(o op, r *recorder) {
			e.callAndRecord(ctx, o, r)
			clock.tick()
		},
	}, rec)
	samples := heap.stop()

	rep := &report{workload: w.name, attempted: rec.attempted()}
	vstart := time.Now()
	v := newVerifier(ctx, w, seed)
	bad, msgs := v.verify(rec)
	warmBad, warmMsgs := v.verify(warm)
	verifyS := time.Since(vstart).Seconds()
	rep.failed = rec.errs + bad
	rep.problems = append(append(append(rep.problems, rec.errMsgs...), msgs...), warm.errMsgs...)
	rep.problems = append(rep.problems, warmMsgs...)
	rep.correct = rep.failed == 0 && warm.errs+warmBad == 0

	lat := append([]float64(nil), rec.lat...)
	sort.Float64s(lat)
	p95, err := tailPercentile(lat)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	success := 1 - float64(rep.failed)/float64(rep.attempted)
	size := float64(e.p.block)
	var thr, cpu, peak []float64
	for b := 1; b < len(clock.marks); b++ {
		from, to := clock.marks[b-1], clock.marks[b]
		thr = append(thr, success*size/to.at.Sub(from.at).Seconds())
		cpu = append(cpu, float64(to.cpu-from.cpu)/float64(time.Millisecond)/size)
		peak = append(peak, float64(maxLive(samples, from.at, to.at))/1e6)
	}
	rep.add("setup_s", "s", median(setups))
	rep.add("throughput_ops_s", "ops/s", median(thr))
	rep.add("latency_p50_ms", "ms", percentile(lat, 0.50))
	rep.add("latency_p95_ms", "ms", p95)
	rep.add("cpu_ms_per_op", "ms", median(cpu))
	rep.add("success_rate", "ratio", success)
	rep.add("peak_heap_mb", "MB", median(peak))
	rep.notes = append(rep.notes,
		fmt.Sprintf("measured %.2fs: %d ops in %d blocks of %d (%d distinct answers); p95 over %d samples with %d beyond it",
			wall.Seconds(), rep.attempted, len(thr), e.p.block, len(rec.entries), len(lat), len(lat)-int(math.Ceil(0.95*float64(len(lat))))),
		fmt.Sprintf("setup runs %v s; verify_s %.3f (%d fs references)", roundAll(setups, 3), verifyS, len(v.refs)))
	return rep, nil
}

func roundAll(vs []float64, digits int) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprintf("%.*f", digits, v)
	}
	return out
}

// printSummary writes the human-readable report.
func printSummary(out io.Writer, r *report, seed int64, traced bool) {
	mode := "timed"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(out, "%s (%s, seed %d): %d ops, %d failed, correct=%v\n", r.workload, mode, seed, r.attempted, r.failed, r.correct)
	for _, m := range r.metrics {
		fmt.Fprintf(out, "  %-40s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, s := range r.notes {
		fmt.Fprintf(out, "  %s\n", s)
	}
	for _, s := range r.problems {
		fmt.Fprintf(out, "  FAIL %s\n", s)
	}
}
