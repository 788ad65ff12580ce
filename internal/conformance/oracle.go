package conformance

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"obddopt/internal/artifact"
	"obddopt/internal/core"
	"obddopt/internal/truthtable"
)

// This file is the metamorphic oracle library: machine-checkable
// invariants of exact optimal-ordering solvers. Each Property takes a
// function, transforms it in a way with a *provable* effect on the
// minimum diagram size (none, or an exactly predicted delta), solves
// both sides with the solver under test, and fails on any disagreement.
// Because the expected outcome is derived from the paper's lemmas rather
// than from a reference implementation, the properties catch bugs that
// differential tests against a same-family implementation would share.

// solveWith runs the named registered solver on tt under rule with no
// deadline or budget, so any error is a conformance violation rather
// than an expected early stop (unless the parent ctx itself died).
func solveWith(ctx context.Context, solver string, tt *truthtable.Table, rule core.Rule) (*core.Result, error) {
	s, ok := core.LookupSolver(solver)
	if !ok {
		return nil, fmt.Errorf("%w: unknown solver %q (have %v)", core.ErrInvalidInput, solver, core.SolverNames())
	}
	return s(ctx, tt, &core.SolveOptions{Rule: rule})
}

// Property is one metamorphic invariant. Check solves with the named
// registered solver and returns nil when the invariant holds, a
// descriptive error when it is violated. rng drives the property's
// random choices (permutations, variable picks) and is deterministic
// per check.
type Property struct {
	// Name identifies the property in reports and violation records.
	Name string
	// Doc states the invariant and the lemma it derives from.
	Doc string
	// Rules lists the diagram rules the invariant is proven for (output
	// and input complementation preserve OBDD structure but not the
	// asymmetric zero-suppressed rule).
	Rules []core.Rule
	// Check runs the property for one (solver, table, rule) case.
	Check func(ctx context.Context, solver string, tt *truthtable.Table, rule core.Rule, rng *rand.Rand) error
}

var bothRules = []core.Rule{core.OBDD, core.ZDD}

// Properties returns the metamorphic property families the suite runs.
// The slice is freshly allocated; callers may filter it.
func Properties() []Property {
	return []Property{
		{
			Name:  "reconstruction",
			Doc:   "the returned ordering is a permutation achieving exactly the claimed MinCost, and the profile accounts for it (Lemma 4's recurrence reconstructed bottom-up)",
			Rules: bothRules,
			Check: checkReconstruction,
		},
		{
			Name:  "relabel",
			Doc:   "relabeling variables by a permutation σ leaves MinCost invariant and maps an optimal ordering through σ to an optimal ordering (Lemma 3: level widths depend only on the set of absorbed variables)",
			Rules: bothRules,
			Check: checkRelabel,
		},
		{
			Name:  "complement",
			Doc:   "complementing the output (¬f) preserves MinCost: the OBDD is the same diagram with the terminals exchanged",
			Rules: []core.Rule{core.OBDD},
			Check: checkComplement,
		},
		{
			Name:  "input-complement",
			Doc:   "complementing one input preserves MinCost: each node at that level swaps its children, the node count per level is unchanged",
			Rules: []core.Rule{core.OBDD},
			Check: checkInputComplement,
		},
		{
			Name:  "dummy-variable",
			Doc:   "adding an irrelevant variable changes MinCost by exactly the predicted amount (zero for OBDDs: the Shannon rule skips the level everywhere)",
			Rules: []core.Rule{core.OBDD},
			Check: checkDummyVariable,
		},
		{
			Name:  "shared-singleton",
			Doc:   "SolveShared on the singleton {f} equals Solve on f (Lemmas 7/8: the shared DP restricted to one root is the plain DP), and the shared engine SolveShared runs matches the serial shared DP's cost and ordering",
			Rules: bothRules,
			Check: checkSharedSingleton,
		},
		{
			Name:  "agreement",
			Doc:   "every exact solver agrees with the Friedman–Supowit dynamic program on MinCost (Lemma 4: the recurrence has a unique value)",
			Rules: bothRules,
			Check: checkAgreement,
		},
		{
			Name:  "artifact",
			Doc:   "the OBDD artifact built under the solver's ordering round-trips losslessly through the canonical codec, evaluates identically to the source table on all 2^n inputs, counts satisfying assignments exactly, and (under the OBDD rule) has exactly MinCost nodes",
			Rules: bothRules,
			Check: checkArtifact,
		},
	}
}

// PropertyByName returns the named property.
func PropertyByName(name string) (Property, bool) {
	for _, p := range Properties() {
		if p.Name == name {
			return p, true
		}
	}
	return Property{}, false
}

func checkReconstruction(ctx context.Context, solver string, tt *truthtable.Table, rule core.Rule, rng *rand.Rand) error {
	res, err := solveWith(ctx, solver, tt, rule)
	if err != nil {
		return fmt.Errorf("solve failed: %w", err)
	}
	n := tt.NumVars()
	if res.N != n {
		return fmt.Errorf("result reports n=%d for an n=%d input", res.N, n)
	}
	if len(res.Ordering) != n || !res.Ordering.Valid() {
		return fmt.Errorf("ordering %v is not a permutation of %d variables", res.Ordering, n)
	}
	want := res.MinCost + uint64(res.Terminals)
	if res.Size != want {
		return fmt.Errorf("Size %d != MinCost %d + Terminals %d", res.Size, res.MinCost, res.Terminals)
	}
	if got := core.SizeUnder(tt, res.Ordering, rule, nil); got != want {
		return fmt.Errorf("ordering %v evaluates to size %d, result claims %d", res.Ordering, got, want)
	}
	var sum uint64
	for _, w := range res.Profile {
		sum += w
	}
	if sum != res.MinCost {
		return fmt.Errorf("profile %v sums to %d, MinCost is %d", res.Profile, sum, res.MinCost)
	}
	return nil
}

func checkRelabel(ctx context.Context, solver string, tt *truthtable.Table, rule core.Rule, rng *rand.Rand) error {
	n := tt.NumVars()
	if n == 0 {
		return nil
	}
	ref, err := solveWith(ctx, solver, tt, rule)
	if err != nil {
		return fmt.Errorf("solve failed: %w", err)
	}
	sigma := rng.Perm(n)
	g := tt.Permute(sigma)
	pres, err := solveWith(ctx, solver, g, rule)
	if err != nil {
		return fmt.Errorf("solve of relabeled table failed: %w", err)
	}
	if ref.MinCost != pres.MinCost {
		return fmt.Errorf("MinCost %d changed to %d under relabeling σ=%v", ref.MinCost, pres.MinCost, sigma)
	}
	if ref.Terminals != pres.Terminals {
		return fmt.Errorf("terminal count %d changed to %d under relabeling", ref.Terminals, pres.Terminals)
	}
	// f's variable i is g's variable sigma[i], so an optimal ordering of
	// f maps elementwise through sigma to an ordering of g that must
	// achieve the same size.
	mapped := make(truthtable.Ordering, n)
	for i, v := range ref.Ordering {
		mapped[i] = sigma[v]
	}
	want := ref.MinCost + uint64(ref.Terminals)
	if got := core.SizeUnder(g, mapped, rule, nil); got != want {
		return fmt.Errorf("σ-mapped optimal ordering %v has size %d on the relabeled table, want %d", mapped, got, want)
	}
	return nil
}

func checkComplement(ctx context.Context, solver string, tt *truthtable.Table, rule core.Rule, rng *rand.Rand) error {
	ref, err := solveWith(ctx, solver, tt, rule)
	if err != nil {
		return fmt.Errorf("solve failed: %w", err)
	}
	cres, err := solveWith(ctx, solver, tt.Not(), rule)
	if err != nil {
		return fmt.Errorf("solve of complement failed: %w", err)
	}
	if ref.MinCost != cres.MinCost {
		return fmt.Errorf("MinCost %d changed to %d under output complement", ref.MinCost, cres.MinCost)
	}
	return nil
}

func checkInputComplement(ctx context.Context, solver string, tt *truthtable.Table, rule core.Rule, rng *rand.Rand) error {
	n := tt.NumVars()
	if n == 0 {
		return nil
	}
	v := rng.Intn(n)
	g := truthtable.FromFunc(n, func(x []bool) bool {
		y := append([]bool(nil), x...)
		y[v] = !y[v]
		return tt.Eval(y)
	})
	ref, err := solveWith(ctx, solver, tt, rule)
	if err != nil {
		return fmt.Errorf("solve failed: %w", err)
	}
	cres, err := solveWith(ctx, solver, g, rule)
	if err != nil {
		return fmt.Errorf("solve of input-complemented table failed: %w", err)
	}
	if ref.MinCost != cres.MinCost {
		return fmt.Errorf("MinCost %d changed to %d when input x%d was complemented", ref.MinCost, cres.MinCost, v+1)
	}
	return nil
}

func checkDummyVariable(ctx context.Context, solver string, tt *truthtable.Table, rule core.Rule, rng *rand.Rand) error {
	n := tt.NumVars()
	if n >= truthtable.MaxVars {
		return nil
	}
	p := rng.Intn(n + 1)
	g := truthtable.FromFunc(n+1, func(x []bool) bool {
		y := make([]bool, 0, n)
		y = append(y, x[:p]...)
		y = append(y, x[p+1:]...)
		return tt.Eval(y)
	})
	ref, err := solveWith(ctx, solver, tt, rule)
	if err != nil {
		return fmt.Errorf("solve failed: %w", err)
	}
	dres, err := solveWith(ctx, solver, g, rule)
	if err != nil {
		return fmt.Errorf("solve with dummy variable failed: %w", err)
	}
	// Predicted delta for OBDDs: zero. The Shannon rule skips the
	// irrelevant level under every ordering, so the diagram is unchanged.
	if dres.MinCost != ref.MinCost {
		return fmt.Errorf("MinCost %d became %d after inserting an irrelevant variable at position %d (predicted delta 0)",
			ref.MinCost, dres.MinCost, p)
	}
	return nil
}

func checkSharedSingleton(ctx context.Context, solver string, tt *truthtable.Table, rule core.Rule, rng *rand.Rand) error {
	res, err := solveWith(ctx, solver, tt, rule)
	if err != nil {
		return fmt.Errorf("solve failed: %w", err)
	}
	sh, err := core.OptimalOrderingSharedCtx(ctx, []*truthtable.Table{tt}, &core.SolveOptions{Rule: rule})
	if err != nil {
		return fmt.Errorf("shared solve failed: %w", err)
	}
	// SolveShared runs the engine entry, so hold it to the serial shared
	// DP on the same singleton: equal cost and ordering.
	eng, err := core.OptimalOrderingSharedParallel(ctx, []*truthtable.Table{tt}, &core.SolveOptions{Rule: rule})
	if err != nil {
		return fmt.Errorf("shared engine solve failed: %w", err)
	}
	if eng.MinCost != sh.MinCost || !slices.Equal(eng.Ordering, sh.Ordering) {
		return fmt.Errorf("shared engine cost %d ordering %v != serial shared cost %d ordering %v",
			eng.MinCost, eng.Ordering, sh.MinCost, sh.Ordering)
	}
	if res.MinCost != sh.MinCost {
		return fmt.Errorf("solver MinCost %d != shared-singleton MinCost %d", res.MinCost, sh.MinCost)
	}
	if res.Terminals != sh.Terminals {
		return fmt.Errorf("solver terminals %d != shared-singleton terminals %d", res.Terminals, sh.Terminals)
	}
	want := sh.MinCost + uint64(sh.Terminals)
	if got := core.SharedSizeUnder([]*truthtable.Table{tt}, sh.Ordering, rule); got != want {
		return fmt.Errorf("shared ordering %v evaluates to size %d, shared result claims %d", sh.Ordering, got, want)
	}
	return nil
}

func checkAgreement(ctx context.Context, solver string, tt *truthtable.Table, rule core.Rule, rng *rand.Rand) error {
	res, err := solveWith(ctx, solver, tt, rule)
	if err != nil {
		return fmt.Errorf("solve failed: %w", err)
	}
	ref, err := core.OptimalOrderingCtx(ctx, tt, &core.SolveOptions{Rule: rule})
	if err != nil {
		return fmt.Errorf("reference DP failed: %w", err)
	}
	if res.MinCost != ref.MinCost {
		return fmt.Errorf("solver MinCost %d != dynamic program %d", res.MinCost, ref.MinCost)
	}
	return nil
}

func checkArtifact(ctx context.Context, solver string, tt *truthtable.Table, rule core.Rule, rng *rand.Rand) error {
	res, err := solveWith(ctx, solver, tt, rule)
	if err != nil {
		return fmt.Errorf("solve failed: %w", err)
	}
	// The artifact is always the OBDD of the function under the solver's
	// ordering; only under the OBDD rule is that ordering the diagram's
	// own optimum, so only there does NodeCount pin MinCost.
	a, err := artifact.Build(tt, res.Ordering)
	if err != nil {
		return fmt.Errorf("artifact build: %v", err)
	}
	enc := a.Encode()
	dec, err := artifact.Decode(enc)
	if err != nil {
		return fmt.Errorf("artifact decode: %v", err)
	}
	if !a.Equal(dec) {
		return fmt.Errorf("decode(encode) is not node-identical")
	}
	if re := dec.Encode(); !bytes.Equal(enc, re) {
		return fmt.Errorf("encode→decode→encode is not byte-identical")
	}
	// Exhaustive equivalence: the suite's tables stay at n ≤ 10, so this
	// sweeps all 2^n assignments.
	size := tt.Size()
	x := make([]bool, tt.NumVars())
	for idx := uint64(0); idx < size; idx++ {
		for i := range x {
			x[i] = idx>>uint(i)&1 == 1
		}
		got, err := dec.Eval(x)
		if err != nil {
			return fmt.Errorf("artifact eval: %v", err)
		}
		if got != tt.Bit(idx) {
			return fmt.Errorf("decoded artifact disagrees with the table at assignment %d", idx)
		}
	}
	if got, want := dec.SatCount(), tt.CountOnes(); got != want {
		return fmt.Errorf("artifact SatCount %d, table has %d ones", got, want)
	}
	if rule == core.OBDD && dec.NodeCount() != res.MinCost {
		return fmt.Errorf("artifact has %d nodes, solver claims MinCost %d", dec.NodeCount(), res.MinCost)
	}
	return nil
}

// Violation records one failed conformance check with everything needed
// to reproduce it: the case coordinates and the table literal.
type Violation struct {
	Property string `json:"property"`
	Family   string `json:"family"`
	Solver   string `json:"solver"`
	Rule     string `json:"rule"`
	N        int    `json:"n"`
	Table    string `json:"table"`
	Err      string `json:"err"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s/%s solver=%s rule=%s n=%d table=%s: %s",
		v.Property, v.Family, v.Solver, v.Rule, v.N, v.Table, v.Err)
}

// SuiteConfig parameterizes one metamorphic suite run. The zero value is
// not usable; call (*SuiteConfig).withDefaults via RunSuite.
type SuiteConfig struct {
	// Seed makes the run reproducible: table draws and property
	// randomness all derive from it.
	Seed int64
	// Solvers lists the registered solver names under test; empty
	// selects every registered solver.
	Solvers []string
	// Rules lists the diagram rules; empty selects OBDD and ZDD.
	Rules []core.Rule
	// Families and Properties default to the full library.
	Families   []Family
	Properties []Property
	// MinVars/MaxVars bound the drawn arities (defaults 2..6 — large
	// enough for structure, small enough that brute force stays cheap).
	MinVars, MaxVars int
	// TablesPerFamily is how many tables each family contributes
	// (default 2).
	TablesPerFamily int
}

func (c SuiteConfig) withDefaults() SuiteConfig {
	if len(c.Solvers) == 0 {
		c.Solvers = core.SolverNames()
	}
	if len(c.Rules) == 0 {
		c.Rules = bothRules
	}
	if len(c.Families) == 0 {
		c.Families = Families()
	}
	if len(c.Properties) == 0 {
		c.Properties = Properties()
	}
	if c.MinVars <= 0 {
		c.MinVars = 2
	}
	if c.MaxVars <= 0 {
		c.MaxVars = 6
	}
	if c.MaxVars > truthtable.MaxVars-1 {
		c.MaxVars = truthtable.MaxVars - 1
	}
	if c.MinVars > c.MaxVars {
		c.MinVars = c.MaxVars
	}
	if c.TablesPerFamily <= 0 {
		c.TablesPerFamily = 2
	}
	return c
}

// SuiteReport summarizes one metamorphic suite run.
type SuiteReport struct {
	Seed       int64       `json:"seed"`
	Checks     int         `json:"checks"`
	Tables     int         `json:"tables"`
	Solvers    []string    `json:"solvers"`
	Families   []string    `json:"families"`
	Properties []string    `json:"properties"`
	Violations []Violation `json:"violations,omitempty"`
	ElapsedMS  float64     `json:"elapsed_ms"`
}

// splitmix64 derives independent sub-seeds from one master seed, so each
// check's randomness depends only on its coordinates, not on iteration
// order.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func subSeed(seed int64, parts ...uint64) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x = splitmix64(x ^ p)
	}
	return int64(x)
}

// RunSuite runs every applicable (family × table × rule × property ×
// solver) combination and collects violations. It returns early with
// ctx's error if the context dies mid-run; the partial report is still
// returned. A report with no violations and Checks > 0 is a pass.
func RunSuite(ctx context.Context, cfg SuiteConfig) (*SuiteReport, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	rep := &SuiteReport{Seed: cfg.Seed, Solvers: cfg.Solvers}
	for _, f := range cfg.Families {
		rep.Families = append(rep.Families, f.Name)
	}
	for _, p := range cfg.Properties {
		rep.Properties = append(rep.Properties, p.Name)
	}

	for fi, fam := range cfg.Families {
		for t := 0; t < cfg.TablesPerFamily; t++ {
			if err := ctx.Err(); err != nil {
				rep.ElapsedMS = msSince(start)
				return rep, err
			}
			genRng := rand.New(rand.NewSource(subSeed(cfg.Seed, uint64(fi), uint64(t))))
			n := cfg.MinVars
			if cfg.MaxVars > cfg.MinVars {
				n += genRng.Intn(cfg.MaxVars - cfg.MinVars + 1)
			}
			n = clamp(n, fam.MinVars, fam.MaxVars)
			tt := fam.New(n, genRng)
			rep.Tables++
			hex := tt.Hex()

			for _, rule := range cfg.Rules {
				for pi, prop := range cfg.Properties {
					if !ruleApplies(prop, rule) {
						continue
					}
					for si, solver := range cfg.Solvers {
						if err := ctx.Err(); err != nil {
							rep.ElapsedMS = msSince(start)
							return rep, err
						}
						checkRng := rand.New(rand.NewSource(subSeed(cfg.Seed,
							uint64(fi), uint64(t), uint64(rule), uint64(pi), uint64(si))))
						rep.Checks++
						if err := prop.Check(ctx, solver, tt, rule, checkRng); err != nil {
							if ctx.Err() != nil {
								rep.ElapsedMS = msSince(start)
								return rep, ctx.Err()
							}
							rep.Violations = append(rep.Violations, Violation{
								Property: prop.Name,
								Family:   fam.Name,
								Solver:   solver,
								Rule:     rule.String(),
								N:        n,
								Table:    hex,
								Err:      err.Error(),
							})
						}
					}
				}
			}
		}
	}
	rep.ElapsedMS = msSince(start)
	return rep, nil
}

func ruleApplies(p Property, rule core.Rule) bool {
	for _, r := range p.Rules {
		if r == rule {
			return true
		}
	}
	return false
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
