package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"obddopt/internal/core"
	"obddopt/internal/obs"
	"obddopt/internal/pla"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// cfg returns a config with quiet output streams; tests override fields.
func cfg(mut func(*config)) *config {
	c := &config{algo: "fs", ruleName: "obdd", stdout: io.Discard, stderr: io.Discard}
	mut(c)
	return c
}

const adderPLA = ".i 3\n.o 2\n100 10\n010 10\n001 10\n111 11\n11- 01\n1-1 01\n-11 01\n.e\n"

const andCircuit = "inputs 2\n2 = and 0 1\n3 = not 2\noutputs 2 3\n"

func TestRunExpr(t *testing.T) {
	for _, algo := range []string{"fs", "brute", "bnb", "dnc"} {
		c := cfg(func(c *config) { c.exprSrc = "x1 & x2 | x3 & x4"; c.algo = algo; c.meter = true })
		if err := c.run(); err != nil {
			t.Errorf("algo %s: %v", algo, err)
		}
	}
}

func TestRunHexAndZDD(t *testing.T) {
	c := cfg(func(c *config) { c.hexSrc = "3:e8"; c.ruleName = "zdd" })
	if err := c.run(); err != nil {
		t.Errorf("hex+zdd: %v", err)
	}
}

func TestRunCircuitAndPLA(t *testing.T) {
	ck := writeTemp(t, "and.ckt", andCircuit)
	if err := cfg(func(c *config) { c.circFile = ck; c.outIdx = 1 }).run(); err != nil {
		t.Errorf("circuit: %v", err)
	}
	pl := writeTemp(t, "adder.pla", adderPLA)
	if err := cfg(func(c *config) { c.plaFile = pl; c.outIdx = 1 }).run(); err != nil {
		t.Errorf("pla: %v", err)
	}
}

func TestRunDotOutput(t *testing.T) {
	dot := filepath.Join(t.TempDir(), "out.dot")
	if err := cfg(func(c *config) { c.exprSrc = "x1 ^ x2"; c.dotFile = dot }).run(); err != nil {
		t.Fatalf("dot: %v", err)
	}
	data, err := os.ReadFile(dot)
	if err != nil || len(data) == 0 {
		t.Errorf("dot file not written: %v", err)
	}
	// DOT output is OBDD-only.
	if err := cfg(func(c *config) { c.exprSrc = "x1 ^ x2"; c.ruleName = "zdd"; c.dotFile = dot }).run(); err == nil {
		t.Errorf("zdd+dot should error")
	}
}

// TestRunJSON checks the acceptance contract: -json emits one valid JSON
// run report with per-layer events and the final meter counts.
func TestRunJSON(t *testing.T) {
	var out bytes.Buffer
	c := cfg(func(c *config) {
		c.exprSrc = "x1&x2|x3&x4|x5&x6"
		c.jsonOut = true
		c.progress = true // exercise the chained stderr renderer too
		c.stdout = &out
	})
	if err := c.run(); err != nil {
		t.Fatalf("json run: %v", err)
	}
	var rep obs.RunReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Tool != "optobdd" || rep.Algorithm != "fs" || rep.Rule != "OBDD" {
		t.Errorf("report identity wrong: %+v", rep)
	}
	if rep.N != 6 || len(rep.Layers) != 6 {
		t.Errorf("want 6 layers for n=6, got n=%d layers=%d", rep.N, len(rep.Layers))
	}
	meter, ok := rep.Meter.(map[string]any)
	if !ok {
		t.Fatalf("meter section missing: %T", rep.Meter)
	}
	if v, ok := meter["cell_ops"].(float64); !ok || v <= 0 {
		t.Errorf("meter.cell_ops missing or zero: %v", meter["cell_ops"])
	}
	var layerOps float64
	for _, l := range rep.Layers {
		layerOps += float64(l.CellOps)
	}
	if layerOps != meter["cell_ops"].(float64) {
		t.Errorf("layer cell ops %v != meter cell ops %v", layerOps, meter["cell_ops"])
	}
	if rep.Result == nil {
		t.Errorf("report missing result")
	}
}

func TestRunJSONAlgos(t *testing.T) {
	for _, algo := range []string{"bnb", "dnc"} {
		var out bytes.Buffer
		c := cfg(func(c *config) { c.exprSrc = "x1 & x2 | x3"; c.algo = algo; c.jsonOut = true; c.stdout = &out })
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		var rep obs.RunReport
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatalf("%s: invalid JSON: %v", algo, err)
		}
		switch algo {
		case "bnb":
			if rep.BnB == nil || rep.BnB.Expansions == 0 {
				t.Errorf("bnb report missing expansion stats: %+v", rep.BnB)
			}
		case "dnc":
			if rep.Quantum == nil || rep.Quantum.Batches == 0 {
				t.Errorf("dnc report missing quantum stats: %+v", rep.Quantum)
			}
		}
	}
}

func TestRunShared(t *testing.T) {
	pl := writeTemp(t, "adder.pla", adderPLA)
	if err := cfg(func(c *config) { c.plaFile = pl; c.meter = true }).runShared(); err != nil {
		t.Errorf("shared pla: %v", err)
	}
	ck := writeTemp(t, "and.ckt", andCircuit)
	if err := cfg(func(c *config) { c.circFile = ck }).runShared(); err != nil {
		t.Errorf("shared circuit: %v", err)
	}
	if err := cfg(func(c *config) {}).runShared(); err == nil {
		t.Errorf("shared without source should error")
	}
	if err := cfg(func(c *config) { c.circFile = ck; c.plaFile = pl }).runShared(); err == nil {
		t.Errorf("shared with two sources should error")
	}
	if err := cfg(func(c *config) { c.plaFile = pl; c.ruleName = "frob" }).runShared(); err == nil {
		t.Errorf("bad rule should error")
	}
}

func TestRunSharedJSON(t *testing.T) {
	pl := writeTemp(t, "adder.pla", adderPLA)
	var out bytes.Buffer
	c := cfg(func(c *config) { c.plaFile = pl; c.jsonOut = true; c.stdout = &out })
	if err := c.runShared(); err != nil {
		t.Fatalf("shared json: %v", err)
	}
	var rep obs.RunReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if rep.Algorithm != "shared" || rep.N != 3 || len(rep.Layers) != 3 {
		t.Errorf("shared report wrong: algo=%s n=%d layers=%d", rep.Algorithm, rep.N, len(rep.Layers))
	}
}

// TestRunSharedSchedule runs -shared under an explicit schedule, which
// the shared engine honors, and requires the serial shared DP's cost and
// ordering on the fixture's outputs.
func TestRunSharedSchedule(t *testing.T) {
	pl := writeTemp(t, "adder.pla", adderPLA)
	var out bytes.Buffer
	c := cfg(func(c *config) { c.plaFile = pl; c.jsonOut = true; c.stdout = &out })
	fs := flag.NewFlagSet("optobdd", flag.ContinueOnError)
	c.flags.Register(fs, "")
	if err := fs.Parse([]string{"-workers", "3", "-shard-bits", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := c.runShared(); err != nil {
		t.Fatalf("shared with a schedule: %v", err)
	}
	var rep struct {
		Result core.SharedResult `json:"result"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	p, err := pla.Parse(strings.NewReader(adderPLA))
	if err != nil {
		t.Fatal(err)
	}
	want := core.OptimalOrderingShared(p.Tables(), nil)
	if rep.Result.MinCost != want.MinCost || !slices.Equal(rep.Result.Ordering, want.Ordering) {
		t.Errorf("-shared -workers 3 -shard-bits 1: cost %d ordering %v, serial shared DP cost %d ordering %v",
			rep.Result.MinCost, rep.Result.Ordering, want.MinCost, want.Ordering)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*config)
	}{
		{"no source", func(c *config) {}},
		{"two sources", func(c *config) { c.exprSrc = "x1"; c.hexSrc = "1:2" }},
		{"bad algo", func(c *config) { c.exprSrc = "x1"; c.algo = "frob" }},
		{"bad rule", func(c *config) { c.exprSrc = "x1"; c.ruleName = "frob" }},
		{"bad expr", func(c *config) { c.exprSrc = "x1 &" }},
		{"const expr", func(c *config) { c.exprSrc = "0" }},
		{"bad hex", func(c *config) { c.hexSrc = "zz" }},
		{"missing file", func(c *config) { c.circFile = "/nonexistent" }},
		{"missing pla", func(c *config) { c.plaFile = "/nonexistent" }},
	}
	for _, tc := range cases {
		if err := cfg(tc.mut).run(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestRunOutputRange(t *testing.T) {
	ck := writeTemp(t, "and.ckt", andCircuit)
	if err := cfg(func(c *config) { c.circFile = ck; c.outIdx = 9 }).run(); err == nil {
		t.Errorf("out-of-range circuit output should error")
	}
	pl := writeTemp(t, "adder.pla", adderPLA)
	if err := cfg(func(c *config) { c.plaFile = pl; c.outIdx = 9 }).run(); err == nil {
		t.Errorf("out-of-range PLA output should error")
	}
}
