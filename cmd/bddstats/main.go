// Command bddstats inspects a Boolean function's decision diagrams: sizes
// and level profiles under a chosen (or the natural) ordering for both the
// OBDD and ZDD rules, satisfiability counts, support, and how the chosen
// ordering compares to the exact optimum and the sifting heuristic.
//
// Usage examples:
//
//	bddstats -expr 'x1 & x2 | x3 & x4'
//	bddstats -expr '…' -order 3,1,2,4       # root-first, 1-based
//	bddstats -hex '4:8001' -compare
//	bddstats -hex '4:8001' -compare -json   # machine-readable report
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"obddopt/internal/core"
	"obddopt/internal/expr"
	"obddopt/internal/heuristics"
	"obddopt/internal/obs"
	"obddopt/internal/sym"
	"obddopt/internal/truthtable"
)

func main() {
	var (
		exprSrc  = flag.String("expr", "", "Boolean formula over x1, x2, …")
		nVars    = flag.Int("n", 0, "variable count for -expr (default: highest used)")
		hexSrc   = flag.String("hex", "", "truth-table literal n:hexdigits")
		orderStr = flag.String("order", "", "root-first 1-based ordering, e.g. 3,1,2 (default natural)")
		compare  = flag.Bool("compare", false, "also compute the exact optimum and the sifting result")
		jsonOut  = flag.Bool("json", false, "emit a JSON run report on stdout instead of the text summary")
	)
	flag.Parse()
	// Buffer stdout and flush exactly once, after the run completes, so
	// output is emitted deterministically even when interleaved with
	// stderr diagnostics.
	w := bufio.NewWriter(os.Stdout)
	err := run(w, *exprSrc, *nVars, *hexSrc, *orderStr, *compare, *jsonOut)
	w.Flush()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bddstats:", err)
		os.Exit(1)
	}
}

// statsReport is the `details` payload of the bddstats -json report.
type statsReport struct {
	Hex        string              `json:"hex"`
	Satisfying uint64              `json:"satisfying"`
	Assignment uint64              `json:"assignments"`
	Support    int                 `json:"support"`
	Ordering   truthtable.Ordering `json:"ordering"`
	Rules      []ruleStats         `json:"rules"`
	Symmetry   []string            `json:"symmetry,omitempty"`
	Compare    *compareStats       `json:"compare,omitempty"`
}

type ruleStats struct {
	Rule    core.Rule `json:"rule"`
	Size    uint64    `json:"size"`
	Profile []uint64  `json:"profile"`
}

type compareStats struct {
	OptimalSize     uint64              `json:"optimal_size"`
	OptimalOrdering truthtable.Ordering `json:"optimal_ordering"`
	SiftCost        uint64              `json:"sift_nonterminals"`
	SiftOrdering    truthtable.Ordering `json:"sift_ordering"`
	Ratio           float64             `json:"size_ratio"`
}

func run(w io.Writer, exprSrc string, nVars int, hexSrc, orderStr string, compare, jsonOut bool) error {
	var tt *truthtable.Table
	switch {
	case exprSrc != "" && hexSrc == "":
		e, err := expr.Parse(exprSrc)
		if err != nil {
			return err
		}
		n := nVars
		if n == 0 {
			n = e.MaxVar() + 1
		}
		tt, err = expr.ToTruthTable(e, n)
		if err != nil {
			return err
		}
	case hexSrc != "" && exprSrc == "":
		var err error
		tt, err = truthtable.ParseHex(hexSrc)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("give exactly one of -expr or -hex")
	}
	n := tt.NumVars()

	ord := truthtable.ReverseOrdering(n) // natural: x1 at the root
	if orderStr != "" {
		parsed, err := parseOrder(orderStr, n)
		if err != nil {
			return err
		}
		ord = parsed
	}

	stats := statsReport{
		Hex:        tt.Hex(),
		Satisfying: tt.CountOnes(),
		Assignment: tt.Size(),
		Support:    tt.Support().Count(),
		Ordering:   ord,
	}
	for _, rule := range []core.Rule{core.OBDD, core.ZDD} {
		stats.Rules = append(stats.Rules, ruleStats{
			Rule:    rule,
			Size:    core.SizeUnder(tt, ord, rule, nil),
			Profile: core.Profile(tt, ord, rule, nil),
		})
	}
	groups := truthtable.Groups(tt)
	if len(groups) < n {
		for _, g := range groups {
			var names []string
			for _, v := range g.Members(nil) {
				names = append(names, fmt.Sprintf("x%d", v+1))
			}
			stats.Symmetry = append(stats.Symmetry, "{"+strings.Join(names, ",")+"}")
		}
	}
	if compare {
		opt := core.OptimalOrdering(tt, nil)
		sift := heuristics.Sift(tt, core.OBDD, 0)
		cur := core.SizeUnder(tt, ord, core.OBDD, nil)
		stats.Compare = &compareStats{
			OptimalSize:     opt.Size,
			OptimalOrdering: opt.Ordering,
			SiftCost:        sift.MinCost,
			SiftOrdering:    sift.Ordering,
			Ratio:           float64(cur) / float64(opt.Size),
		}
	}

	if jsonOut {
		rep := &obs.RunReport{Tool: "bddstats", N: n, Details: stats}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}

	fmt.Fprintf(w, "function:   %d variables, %d/%d satisfying, support %d vars\n",
		n, stats.Satisfying, stats.Assignment, stats.Support)
	fmt.Fprintf(w, "hex:        %s\n", stats.Hex)
	fmt.Fprintf(w, "ordering:   %s (read first → last)\n", ord)
	for _, rs := range stats.Rules {
		fmt.Fprintf(w, "%-5s size: %d   level widths (bottom-up): %v\n", rs.Rule, rs.Size, rs.Profile)
	}
	if len(stats.Symmetry) > 0 {
		fmt.Fprintf(w, "symmetry:   %s (%.3g effective orderings of %d! total)\n",
			strings.Join(stats.Symmetry, " "), sym.EffectiveOrderings(groups), n)
	} else {
		fmt.Fprintf(w, "symmetry:   none (all %d variables asymmetric)\n", n)
	}
	if stats.Compare != nil {
		c := stats.Compare
		fmt.Fprintf(w, "optimum:    %d nodes under %s\n", c.OptimalSize, c.OptimalOrdering)
		fmt.Fprintf(w, "sifting:    %d nonterminals under %s\n", c.SiftCost, c.SiftOrdering)
		fmt.Fprintf(w, "your order: %.3f× the optimal size\n", c.Ratio)
	}
	return nil
}

func parseOrder(s string, n int) (truthtable.Ordering, error) {
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("ordering has %d entries, function has %d variables", len(parts), n)
	}
	rootFirst := make([]int, n)
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 || v > n {
			return nil, fmt.Errorf("bad ordering entry %q (1-based variable numbers)", p)
		}
		rootFirst[i] = v - 1
	}
	ord := truthtable.FromRootFirst(rootFirst)
	if !ord.Valid() {
		return nil, fmt.Errorf("ordering is not a permutation")
	}
	return ord, nil
}
