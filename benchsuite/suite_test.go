package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"obddopt/internal/artifact"
	"obddopt/internal/core"
	"obddopt/internal/obs"
	"obddopt/internal/truthtable"
)

// opSignature renders an operation by content, so sequences from two
// plans can be compared.
func opSignature(o op) string {
	var b strings.Builder
	b.WriteString(o.kind.String())
	b.WriteString(" " + o.in.rule.String())
	for _, tt := range o.in.tables {
		b.WriteString(" " + tt.Hex())
	}
	return b.String()
}

func TestSeedReproducesInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.newPlan(w, 7), w.newPlan(w, 7), w.newPlan(w, 8)
		differs := false
		for i := 0; i < 60; i++ {
			oa, ob, oc := a.next(), b.next(), c.next()
			if opSignature(oa) != opSignature(ob) {
				t.Fatalf("%s: op %d differs between two plans from seed 7", w.name, i)
			}
			differs = differs || opSignature(oa) != opSignature(oc)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 give the same first 60 ops", w.name)
		}
	}
}

func TestInputsAreDistinct(t *testing.T) {
	for _, w := range workloads {
		p := w.newPlan(w, 3)
		if w.name == "http-cold" {
			for i := 0; i < 1500; i++ {
				p.next()
			}
		}
		seen := map[string]bool{}
		for _, in := range p.inputs {
			key := opSignature(op{in: in})
			if seen[key] {
				t.Fatalf("%s: input %d repeats an earlier (table, rule)", w.name, in.id)
			}
			seen[key] = true
		}
	}
	cold := workloadByName("http-cold")
	p := cold.newPlan(cold, 3)
	seen := map[int]bool{}
	for i := 0; i < 1500; i++ {
		if o := p.next(); seen[o.in.id] {
			t.Fatalf("http-cold: op %d reuses input %d", i, o.in.id)
		} else {
			seen[o.in.id] = true
		}
	}
}

func TestTailPercentileNeedsEnoughSamples(t *testing.T) {
	lat := make([]float64, minTailSamples-1)
	for i := range lat {
		lat[i] = float64(i)
	}
	if _, err := tailPercentile(lat); err == nil {
		t.Fatalf("latency_p95_ms accepted %d samples", len(lat))
	}
	lat = append(lat, float64(len(lat)))
	p95, err := tailPercentile(lat)
	if err != nil {
		t.Fatal(err)
	}
	beyond := 0
	for _, v := range lat {
		if v > p95 {
			beyond++
		}
	}
	if beyond < 10 {
		t.Errorf("p95 of %d samples leaves %d beyond it, want at least 10", len(lat), beyond)
	}
}

func TestPercentileIsHarrellDavis(t *testing.T) {
	// For whole a and b, I_x(a, b) = P(Binomial(a+b−1, x) ≥ a).
	for _, x := range []float64{0.05, 0.3, 0.5, 0.77, 0.99} {
		want := 0.0
		for k, c := 5, 126.0; k <= 9; k++ { // c = C(9, k)
			want += c * math.Pow(x, float64(k)) * math.Pow(1-x, float64(9-k))
			c = c * float64(9-k) / float64(k+1)
		}
		if got := betaInc(5, 5, x); math.Abs(got-want) > 1e-12 {
			t.Errorf("I_%v(5, 5) = %v, want %v", x, got, want)
		}
	}
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(ten, 0.5); math.Abs(got-5.5) > 1e-9 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
	if got := percentile([]float64{3}, 0.95); got != 3 {
		t.Errorf("p95 of one sample = %v, want 3", got)
	}
	// A step at the median: the nearest-rank median is 10 or 20 as one
	// sample crosses; the estimate sits between and moves by little.
	step := make([]float64, 1000)
	for i := range step {
		step[i] = 10
		if i >= 500 {
			step[i] = 20
		}
	}
	mid := percentile(step, 0.5)
	step[499] = 20
	if shifted := percentile(step, 0.5); math.Abs(mid-15) > 1e-6 || shifted-mid > 0.5 {
		t.Errorf("median across a step: %v, then %v after one sample crossed", mid, shifted)
	}
	// Large samples skip negligible weights and stay exact for a ramp.
	ramp := make([]float64, 300000)
	for i := range ramp {
		ramp[i] = float64(i)
	}
	if got, want := percentile(ramp, 0.95), 0.95*300000-0.5; math.Abs(got-want) > 1e-3 {
		t.Errorf("p95 of 0..299999 = %v, want %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0].
	cases := []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
	}
	for _, c := range cases {
		if q1, q3 := quartiles(c.in); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestAnalyticColumnsMatchMeter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 8; n <= 10; n++ {
		want := uint64(n)
		for i := 1; i < n; i++ {
			want *= 3
		}
		if got := cellOpsBound(n); got != want {
			t.Fatalf("n=%d: Σ k·C(n,k)·2^(n−k) = %d, want n·3^(n−1) = %d", n, got, want)
		}
		m, tr := &core.Meter{}, &benchTracer{}
		core.OptimalOrdering(truthtable.Random(n, rng), &core.SolveOptions{Meter: m, Trace: tr})
		if m.CellOps != want {
			t.Errorf("n=%d: fs metered %d cell ops, want %d", n, m.CellOps, want)
		}
		for _, e := range tr.take() {
			if e.ev.Kind == obs.KindLayerEnd && e.ev.CellOps != layerCellOps(n, e.ev.K) {
				t.Errorf("n=%d layer %d: %d cell ops, want %d", n, e.ev.K, e.ev.CellOps, layerCellOps(n, e.ev.K))
			}
		}
		if r := float64(m.PeakCells) / float64(remark1Bound(n)); r > 2 {
			t.Errorf("n=%d: peak cells %d are %.2f× the Remark 1 bound", n, m.PeakCells, r)
		}
	}
}

func TestVerifierCountsWrongAnswers(t *testing.T) {
	tt := truthtable.Random(6, rand.New(rand.NewSource(2)))
	in := &input{id: 0, family: "random", rule: core.OBDD, tables: []*truthtable.Table{tt}}
	res := core.OptimalOrdering(tt, nil)
	a, err := artifact.Build(tt, res.Ordering)
	if err != nil {
		t.Fatal(err)
	}
	good := a.Encode()
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x10
	broken := append([]int(nil), res.Ordering...)
	broken[0] = broken[1]

	rec := newRecorder()
	add := func(kind opKind, cost uint64, order []int, art []byte, count int) {
		for i := 0; i < count; i++ {
			out := outcome{art: art}
			if art == nil {
				out.res = &core.Result{MinCost: cost, Ordering: order}
			}
			rec.add(op{in: in, kind: kind}, out, time.Millisecond)
		}
	}
	add(opSolve, res.MinCost, res.Ordering, nil, 3)   // correct
	add(opArtifact, 0, nil, good, 2)                  // correct
	add(opSolve, res.MinCost+1, res.Ordering, nil, 2) // tampered MinCost
	add(opSolve, res.MinCost, broken, nil, 1)         // not a permutation
	add(opArtifact, 0, nil, flipped, 1)               // flipped artifact byte

	failed, msgs := newVerifier(context.Background(), workloadByName("portfolio-mixed"), 1).verify(rec)
	if failed != 4 {
		t.Fatalf("verifier counted %d failed ops, want 4 (%v)", failed, msgs)
	}
	if rate := 1 - float64(failed)/float64(rec.attempted()); math.Abs(rate-5.0/9) > 1e-12 {
		t.Errorf("success rate %v, want 5/9", rate)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "child", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "child", Start: 2, End: 5},
		{ID: 4, Parent: 1, Name: "child", Start: 8, End: 12},
	}
	self := selfTimes(spans)
	if got, want := self["parent"], 4e-6; math.Abs(got-want) > 1e-12 {
		t.Errorf("parent self time %v ms, want %v", got, want)
	}
	if got, want := self["child"], 9e-6; math.Abs(got-want) > 1e-12 {
		t.Errorf("child self time %v ms, want %v", got, want)
	}
}

func TestVerdicts(t *testing.T) {
	lower := boundSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := boundSpec{Name: "throughput_ops_s", Better: "higher", Bound: 0.10}
	cases := []struct {
		b             boundSpec
		before, after []float64
		want          string
	}{
		{lower, []float64{10, 10.1, 10.2}, []float64{10.3, 10.2, 10.4}, verdictWithin},
		{lower, []float64{10, 10.1, 10.2}, []float64{12, 12.1, 12.2}, verdictWorse},
		{lower, []float64{10, 10.1, 10.2}, []float64{8, 8.1, 8.2}, verdictBetter},
		{higher, []float64{10, 10.1, 10.2}, []float64{8, 8.1, 8.2}, verdictWorse},
		{lower, []float64{5, 10, 15}, []float64{10, 10.1, 10.2}, verdictUnresolved},
		{lower, []float64{5, 10, 15}, []float64{1, 2, 3}, verdictBetter},
	}
	for i, c := range cases {
		if got, _, _ := verdict(c.b, c.before, c.after); got != c.want {
			t.Errorf("case %d: verdict %q, want %q", i, got, c.want)
		}
	}
}

// specFile is BENCHMARK.json at the repository root.
type specFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []boundSpec             `json:"end_to_end"`
	PerLayer  []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) specFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec specFile
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// smallWorkloads are the benchmark's workloads shrunk to tiny inputs.
func smallWorkloads() []*workload {
	sizes := map[string][]int{
		"portfolio-mixed": {4, 5},
		"dp-frontier":     {5, 6},
		"http-cold":       {4, 5, 6},
		"http-hot":        {4, 5},
	}
	var out []*workload
	for _, w := range workloads {
		small := *w
		small.sizes = sizes[w.name]
		small.perSlot = 1
		if small.popular > 0 {
			small.popular = 16
		}
		out = append(out, &small)
	}
	return out
}

// TestSmokeAllWorkloads runs every workload end to end, timed and
// traced, at tiny sizes and op counts, and checks the reports against
// BENCHMARK.json.
func TestSmokeAllWorkloads(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the suite has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the suite's is %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	if len(spec.PerLayer) != len(layerSpecs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run reports %d", len(spec.PerLayer), len(layerSpecs))
	}
	for i, s := range layerSpecs {
		if got := spec.PerLayer[i]; got.Name != s.name || got.Unit != s.unit || got.Better != s.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the suite %+v", i, got, s)
		}
	}

	start := time.Now()
	cfg := config{seconds: 0, warmOps: 2, setupReps: 1}
	spanNames := map[string]bool{}
	for _, w := range smallWorkloads() {
		rep, err := runTimed(context.Background(), w, 1, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.correct || rep.failed != 0 || rep.attempted < minTailSamples {
			t.Errorf("%s: correct=%v failed=%d attempted=%d %v", w.name, rep.correct, rep.failed, rep.attempted, rep.problems)
		}
		if len(rep.metrics) != len(spec.EndToEnd) {
			t.Fatalf("%s: %d end-to-end metrics, BENCHMARK.json lists %d", w.name, len(rep.metrics), len(spec.EndToEnd))
		}
		for i, m := range rep.metrics {
			if m.name != spec.EndToEnd[i].Name || m.unit != spec.EndToEnd[i].Unit {
				t.Errorf("%s: metric %d is %s (%s), BENCHMARK.json says %s (%s)", w.name, i, m.name, m.unit, spec.EndToEnd[i].Name, spec.EndToEnd[i].Unit)
			}
			if !(m.value > 0) {
				t.Errorf("%s: %s = %v, want a positive value", w.name, m.name, m.value)
			}
		}

		path := filepath.Join(t.TempDir(), "spans.json")
		trep, err := runTraced(context.Background(), w, 1, cfg, path)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !trep.correct {
			t.Errorf("%s traced: %v", w.name, trep.problems)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var file struct{ Spans []span }
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatal(err)
		}
		for _, s := range file.Spans {
			spanNames[s.Name] = true
		}
	}
	for _, layer := range []string{"obddopt.", "heuristics.", "core.portfolio.", "core.dp.", "core.bnb", "server.", "cache.", "artifact.", "truthtable.", "obs."} {
		found := false
		for name := range spanNames {
			found = found || strings.HasPrefix(name, layer)
		}
		if !found {
			t.Errorf("no span of layer %s in the traced runs", layer)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second && !testing.Short() {
		t.Errorf("smoke run took %v, want under 5s", elapsed)
	}
}
