package main

import (
	"math/rand"
	"strings"
	"sync"

	"obddopt/internal/conformance"
	"obddopt/internal/core"
	"obddopt/internal/truthtable"
)

// opKind is what one operation asks of the system under test.
type opKind uint8

const (
	// opSolve is obddopt.Solve (library) or Client.Solve (HTTP).
	opSolve opKind = iota
	// opArtifact is Client.SolveArtifactRaw: the solve plus the encoded
	// OBDD artifact as the raw response body (OBDD rule only).
	opArtifact
	// opShared is obddopt.SolveShared over a multi-root input.
	opShared
)

var kindNames = [...]string{opSolve: "solve", opArtifact: "artifact", opShared: "shared"}

func (k opKind) String() string { return kindNames[k] }

// input is one distinct problem: a single table, or the roots of a shared
// forest, under one rule.
type input struct {
	id     int
	family string
	rule   core.Rule
	tables []*truthtable.Table
}

func (in *input) n() int { return in.tables[0].NumVars() }

// op is one position of a workload's operation sequence.
type op struct {
	seq  int
	in   *input
	kind opKind
}

// slot is one stratum of a workload's pattern: an operation kind on a
// table of one family, rule and size.
type slot struct {
	fam  conformance.Family
	rule core.Rule
	n    int
	kind opKind
}

var rules = []core.Rule{core.OBDD, core.ZDD}

// patternSeed fixes the order of every workload's pattern. It is not the
// run's seed: the pattern, and so the composition of every run's
// operations, is the same for every seed; the seed picks the tables.
const patternSeed = 0x5eed

// grid returns one slot per (family, rule, size) in a fixed shuffled
// order, so that any stretch of the pattern mixes the strata.
func grid(fams []conformance.Family, sizes []int) []slot {
	var out []slot
	for _, fam := range fams {
		for _, rule := range rules {
			for _, n := range sizes {
				out = append(out, slot{fam: fam, rule: rule, n: n})
			}
		}
	}
	mixed := make([]slot, len(out))
	for i, j := range rand.New(rand.NewSource(patternSeed)).Perm(len(out)) {
		mixed[i] = out[j]
	}
	return mixed
}

// familiesNamed returns the conformance families with the given names.
func familiesNamed(names ...string) []conformance.Family {
	var out []conformance.Family
	for _, fam := range conformance.Families() {
		for _, name := range names {
			if fam.Name == name {
				out = append(out, fam)
			}
		}
	}
	return out
}

func randomFamily() conformance.Family { return familiesNamed("random")[0] }

// plan is a workload's seeded inputs and operation sequence. gen runs
// under mu in sequence order, so the sequence is a function of the seed
// alone, however the callers interleave.
type plan struct {
	mu     sync.Mutex
	rng    *rand.Rand
	inputs []*input
	byKey  map[string]*input
	gen    func(p *plan) op
	seq    int
	// block is the length of the sequence's repeating composition: every
	// aligned stretch of block operations has the same mix of strata.
	block int
	// warm lists the inputs solved into the server's cache during setup.
	warm []*input
}

func newPlan(seed int64) *plan {
	return &plan{rng: rand.New(rand.NewSource(seed)), byKey: make(map[string]*input)}
}

// next returns the next operation of the sequence.
func (p *plan) next() op {
	p.mu.Lock()
	defer p.mu.Unlock()
	o := p.gen(p)
	o.seq = p.seq
	p.seq++
	return o
}

// intern returns the input for (tables, rule), registering it when it is
// new. Inputs are deduplicated by (tables, rule): small families
// (achilles has one member per arity, threshold n) collide with each
// other and with symmetric draws, and a repeated table would turn a cold
// request into a cache hit.
func (p *plan) intern(family string, rule core.Rule, tables ...*truthtable.Table) (in *input, isNew bool) {
	var key strings.Builder
	key.WriteString(rule.String())
	for _, tt := range tables {
		key.WriteByte('|')
		key.WriteString(tt.Hex())
	}
	if in := p.byKey[key.String()]; in != nil {
		return in, false
	}
	in = &input{id: len(p.inputs), family: family, rule: rule, tables: tables}
	p.inputs = append(p.inputs, in)
	p.byKey[key.String()] = in
	return in, true
}

// fresh returns a never-seen input for s: a draw from its family, or,
// once the family has no new member left at that size, from the random
// family, which never runs out.
func (p *plan) fresh(s slot) *input {
	for i := 0; i < 8; i++ {
		if in, isNew := p.intern(s.fam.Name, s.rule, s.fam.New(s.n, p.rng)); isNew {
			return in
		}
	}
	s.fam = randomFamily()
	return p.fresh(s)
}

// cycle repeats pattern; the r-th visit to slot i runs draws[i][r mod
// len(draws[i])].
func cycle(pattern []slot, draws [][]*input) func(p *plan) op {
	return func(p *plan) op {
		i, r := p.seq%len(pattern), p.seq/len(pattern)
		return op{in: draws[i][r%len(draws[i])], kind: pattern[i].kind}
	}
}

// workload is one benchmark traffic mix. The size and count fields are
// the workload's definition; tests shrink them to keep a smoke run fast.
type workload struct {
	name string
	// http selects the loopback obddd path; otherwise the library is
	// called in process.
	http bool
	// clients is the number of closed-loop callers.
	clients int
	// solver is passed to obddopt.Solve's WithSolver; empty keeps the
	// default (the portfolio).
	solver string
	// sizes are the variable counts inputs are drawn at.
	sizes []int
	// perSlot is how many tables each slot of a library pattern cycles
	// through.
	perSlot int
	// popular is the number of distinct hot tables (http-hot only).
	popular int
	// directPerSize is how many inputs per size the traced run's direct
	// module calls take.
	directPerSize int
	// refEvery, when above 1, checks a seeded one in refEvery inputs
	// against the serial fs optimum instead of every input.
	refEvery int
	newPlan  func(w *workload, seed int64) *plan
}

// workloads are the benchmark's traffic mixes, in the order `all` runs
// them. Why each exists is recorded in README.md and BENCHMARK.json.
var workloads = []*workload{
	{
		name: "portfolio-mixed", clients: 1,
		sizes: []int{10, 11, 12, 13}, perSlot: 2, directPerSize: 2,
		newPlan: portfolioMixedPlan,
	},
	{
		name: "dp-frontier", clients: 1, solver: "parallel",
		sizes: []int{12, 13, 14}, perSlot: 2, directPerSize: 1,
		newPlan: dpFrontierPlan,
	},
	{
		name: "http-cold", http: true, clients: 2,
		sizes: []int{9, 10, 11, 12, 13}, directPerSize: 1, refEvery: 8,
		newPlan: httpColdPlan,
	},
	{
		name: "http-hot", http: true, clients: 2,
		sizes: []int{8, 9, 10, 11}, popular: 256, directPerSize: 1,
		newPlan: httpHotPlan,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// drawAll draws perSlot inputs for every slot — a table, or three roots
// for a shared slot — reusing an earlier input where a family repeats
// itself.
func drawAll(p *plan, pattern []slot, perSlot int) [][]*input {
	draws := make([][]*input, len(pattern))
	for i, s := range pattern {
		for d := 0; d < perSlot; d++ {
			var in *input
			if s.kind == opShared {
				in, _ = p.intern(s.fam.Name+"-forest", s.rule, s.fam.New(s.n, p.rng), s.fam.New(s.n, p.rng), s.fam.New(s.n, p.rng))
			} else {
				in, _ = p.intern(s.fam.Name, s.rule, s.fam.New(s.n, p.rng))
			}
			draws[i] = append(draws[i], in)
		}
	}
	return draws
}

// portfolioMixedPlan: every conformance family under both rules at each
// size, perSlot tables per slot.
func portfolioMixedPlan(w *workload, seed int64) *plan {
	p := newPlan(seed)
	pattern := grid(conformance.Families(), w.sizes)
	p.gen, p.block = cycle(pattern, drawAll(p, pattern, w.perSlot)), len(pattern)*w.perSlot
	return p
}

// dpFrontierPlan: the random, symmetric and sparse families at the
// largest sizes; after every third single-table slot comes a shared
// forest of three random roots at the smallest size.
func dpFrontierPlan(w *workload, seed int64) *plan {
	p := newPlan(seed)
	singles := grid(familiesNamed("random", "symmetric", "sparse"), w.sizes)
	var pattern []slot
	for i, s := range singles {
		pattern = append(pattern, s)
		if i%3 == 2 {
			pattern = append(pattern, slot{fam: randomFamily(), rule: rules[(i/3)%2], n: w.sizes[0], kind: opShared})
		}
	}
	p.gen, p.block = cycle(pattern, drawAll(p, pattern, w.perSlot)), len(pattern)*w.perSlot
	return p
}

// httpColdPlan: every request is a table the server has never seen, in
// the strata of the pattern; one OBDD slot in four asks for the raw
// artifact.
func httpColdPlan(w *workload, seed int64) *plan {
	p := newPlan(seed)
	pattern := grid(conformance.Families(), w.sizes)
	obdd := 0
	for i := range pattern {
		if pattern[i].rule == core.OBDD {
			if obdd%4 == 0 {
				pattern[i].kind = opArtifact
			}
			obdd++
		}
	}
	p.block = len(pattern)
	p.gen = func(p *plan) op {
		s := pattern[p.seq%len(pattern)]
		return op{in: p.fresh(s), kind: s.kind}
	}
	return p
}

// hotMissEvery spaces http-hot's misses. A miss holds a client and
// both processors in a portfolio solve for milliseconds while the other
// client's hits wait; at 1 in 50 that contention made up the tail around
// latency_p95_ms and moved it by a quarter from run to run. At 1 in 200
// the 95th percentile lies among ordinary hits.
const hotMissEvery = 200

// httpHotPlan: a fixed set of popular tables, solved into the cache
// during setup, requested with Zipf(1.1) popularity; half the OBDD
// requests ask for the raw artifact. Every hotMissEvery-th request is a
// fresh table at the smallest size (a miss plus a cache write).
// Popularity ranks walk the pattern, so the strata of the most requested
// tables are the same for every seed.
func httpHotPlan(w *workload, seed int64) *plan {
	p := newPlan(seed)
	pattern := grid(conformance.Families(), w.sizes)
	popular := make([]*input, w.popular)
	for r := range popular {
		popular[r] = p.fresh(pattern[r%len(pattern)])
	}
	p.warm = popular
	misses := grid(conformance.Families(), w.sizes[:1])
	zipf := rand.NewZipf(p.rng, 1.1, 1, uint64(len(popular)-1))
	// Popularity draws have no period, so a block is a fixed run of
	// operations: 16 per popular table.
	p.block = 16 * len(popular)
	p.gen = func(p *plan) op {
		var in *input
		if p.seq%hotMissEvery == hotMissEvery-1 {
			in = p.fresh(misses[(p.seq/hotMissEvery)%len(misses)])
		} else {
			in = popular[zipf.Uint64()]
		}
		kind := opSolve
		if in.rule == core.OBDD && p.rng.Intn(2) == 0 {
			kind = opArtifact
		}
		return op{in: in, kind: kind}
	}
	return p
}
