package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundSpec `json:"end_to_end"`
}

type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Verdicts of one (workload, metric) comparison.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved"
)

// verdict compares the runs of one metric: before and after are the
// values of each set's runs. A set's spread is the distance between its
// quartiles as a share of its median; when either spread exceeds the
// bound the change cannot be resolved, unless every run after reads
// better than every run before. Otherwise the shift of the medians,
// signed so that positive is worse, decides.
func verdict(b boundSpec, before, after []float64) (v string, shift, spread float64) {
	mb, ma := median(before), median(after)
	spread = math.Max(relSpread(before), relSpread(after))
	if mb != 0 {
		shift = (ma - mb) / math.Abs(mb)
	} else if ma != 0 {
		shift = math.Inf(1)
	}
	if b.Better == "higher" {
		shift = -shift
	}
	switch {
	case spread > b.Bound:
		if allBetter(b, before, after) {
			return verdictBetter, shift, spread
		}
		return verdictUnresolved, shift, spread
	case shift > b.Bound:
		return verdictWorse, shift, spread
	case shift < -b.Bound:
		return verdictBetter, shift, spread
	}
	return verdictWithin, shift, spread
}

func relSpread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m)
}

// allBetter reports whether every run after beats every run before.
func allBetter(b boundSpec, before, after []float64) bool {
	for _, x := range before {
		for _, y := range after {
			if (b.Better == "higher") != (y > x) || y == x {
				return false
			}
		}
	}
	return true
}

// loadRecords reads a --record file: workload -> metric -> run values,
// plus each workload's failed-operation total.
func loadRecords(path string) (map[string]map[string][]float64, map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	vals := map[string]map[string][]float64{}
	failed := map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if vals[rec.Workload] == nil {
			vals[rec.Workload] = map[string][]float64{}
		}
		for name, mv := range rec.Result.Metrics {
			vals[rec.Workload][name] = append(vals[rec.Workload][name], mv.Value)
		}
		failed[rec.Workload] += rec.Result.Failed
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return vals, failed, nil
}

// runCompare prints one row per (workload, end-to-end metric) and exits
// nonzero when any row is worse or unresolved, or any run failed an op.
func runCompare(stdout, stderr io.Writer, specPath, beforePath, afterPath string) int {
	data, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchsuite: %v\n", err)
		return 2
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintf(stderr, "benchsuite: %s: %v\n", specPath, err)
		return 2
	}
	before, failedBefore, err := loadRecords(beforePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchsuite: %v\n", err)
		return 2
	}
	after, failedAfter, err := loadRecords(afterPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchsuite: %v\n", err)
		return 2
	}
	status := 0
	fmt.Fprintf(stdout, "%-16s %-18s %6s %6s %12s %12s %8s %8s  %s\n",
		"workload", "metric", "runs", "bound", "before", "after", "shift", "spread", "verdict")
	for _, wl := range spec.Workloads {
		b, a := before[wl.Name], after[wl.Name]
		if b == nil || a == nil {
			fmt.Fprintf(stdout, "%-16s (no runs in one of the sets)\n", wl.Name)
			status = 1
			continue
		}
		for _, m := range spec.EndToEnd {
			vb, va := b[m.Name], a[m.Name]
			if len(vb) == 0 || len(va) == 0 {
				fmt.Fprintf(stdout, "%-16s %-18s (missing)\n", wl.Name, m.Name)
				status = 1
				continue
			}
			v, shift, spread := verdict(m, vb, va)
			if v == verdictWorse || v == verdictUnresolved {
				status = 1
			}
			fmt.Fprintf(stdout, "%-16s %-18s %3d/%-2d %6.2f %12.5g %12.5g %+7.1f%% %7.1f%%  %s\n",
				wl.Name, m.Name, len(vb), len(va), m.Bound, median(vb), median(va), 100*shift, 100*spread, v)
		}
		if failedBefore[wl.Name]+failedAfter[wl.Name] > 0 {
			fmt.Fprintf(stdout, "%-16s failed operations: %d before, %d after\n", wl.Name, failedBefore[wl.Name], failedAfter[wl.Name])
			status = 1
		}
	}
	return status
}
