package core

import (
	"slices"
	"testing"

	"obddopt/internal/bitops"
	"obddopt/internal/funcs"
	"obddopt/internal/truthtable"
)

// seedBits packs the first 64 rows of tt into the (n, bits) seed shape
// the fuzz targets use.
func seedBits(tt *truthtable.Table) (int, uint64) {
	var bits uint64
	for idx := uint64(0); idx < tt.Size() && idx < 64; idx++ {
		if tt.Bit(idx) {
			bits |= 1 << idx
		}
	}
	return tt.NumVars(), bits
}

// FuzzFSvsBrute cross-validates the Friedman–Supowit dynamic program
// against the factorial brute-force baseline on random functions of up
// to 6 variables: the DP's MINCOST must equal the true minimum over all
// n! orderings, and the ordering the DP reconstructs must actually
// achieve that cost. Run the seed corpus with plain `go test`; explore
// with `go test -fuzz FuzzFSvsBrute ./internal/core`.
func FuzzFSvsBrute(f *testing.F) {
	f.Add(0, uint64(0))
	f.Add(1, uint64(1))
	f.Add(3, uint64(0xCA))            // the 3-variable multiplexer
	f.Add(4, uint64(0x8000))          // AND of 4 variables
	f.Add(5, uint64(0x96696996_00FF)) // parity-ish upper half
	f.Add(6, uint64(0x0123456789ABCDEF))
	// Structured families with known ordering sensitivity: the
	// Achilles-heel functions (blocked vs interleaved orderings diverge
	// exponentially) and thresholds (totally symmetric, every ordering
	// tied) probe the DP from opposite extremes.
	for _, tt := range []*truthtable.Table{
		funcs.AchillesHeel(2),
		funcs.AchillesHeel(3),
		funcs.Threshold(4, 1),
		funcs.Threshold(5, 2),
		funcs.Threshold(6, 3),
	} {
		n, bits := seedBits(tt)
		f.Add(n, bits)
	}
	f.Fuzz(func(t *testing.T, n int, bits uint64) {
		n = ((n % 7) + 7) % 7 // fold the arity into [0, 6]
		tt := truthtable.New(n)
		size := tt.Size()
		for idx := uint64(0); idx < size && idx < 64; idx++ {
			tt.Set(idx, bits>>idx&1 == 1)
		}

		fs := OptimalOrdering(tt, nil)
		bf := BruteForce(tt, nil)
		if fs.MinCost != bf.MinCost {
			t.Fatalf("n=%d bits=%#x: FS MinCost %d != brute force %d",
				n, bits, fs.MinCost, bf.MinCost)
		}
		if !fs.Ordering.Valid() {
			t.Fatalf("n=%d bits=%#x: FS returned invalid ordering %v", n, bits, fs.Ordering)
		}
		// The reconstructed ordering must achieve the claimed minimum:
		// SizeUnder counts nonterminals plus terminals, MinCost only the
		// nonterminals.
		want := fs.MinCost + uint64(fs.Terminals)
		if got := SizeUnder(tt, fs.Ordering, fs.Rule, nil); got != want {
			t.Fatalf("n=%d bits=%#x: ordering %v has size %d, FS claims %d",
				n, bits, fs.Ordering, got, want)
		}
		// And the level profile is an accounting of that same cost.
		var sum uint64
		for _, w := range fs.Profile {
			sum += w
		}
		if sum != fs.MinCost {
			t.Fatalf("n=%d bits=%#x: profile %v sums to %d, want %d",
				n, bits, fs.Profile, sum, fs.MinCost)
		}
	})
}

// decodeSharedFuzz reads a shared-forest instance and an engine schedule
// from fuzz bytes. data[0] holds n (bits 0–2, so n ≤ 7), the root count
// minus one (bits 3–4) and the rule (bit 5); data[1] holds the worker
// count (1–3, low nibble mod 3) and the shard bits (0–2, high nibble
// mod 3). The rest is the roots' truth tables end to end, one bit per
// cell, least significant bit first; missing bytes read as zero.
func decodeSharedFuzz(data []byte) ([]*truthtable.Table, *SolveOptions) {
	var hdr [2]byte
	copy(hdr[:], data)
	cells := data[min(len(data), 2):]
	n := int(hdr[0] & 7)
	roots := make([]*truthtable.Table, 1+int(hdr[0]>>3&3))
	opts := &SolveOptions{Workers: 1 + int(hdr[1]&0xF)%3, ShardBits: int(hdr[1]>>4) % 3}
	if hdr[0]&0x20 != 0 {
		opts.Rule = ZDD
	}
	bit := uint64(0)
	for r := range roots {
		tt := truthtable.New(n)
		for idx := uint64(0); idx < tt.Size(); idx++ {
			if i := bit / 8; i < uint64(len(cells)) {
				tt.Set(idx, cells[i]>>(bit%8)&1 == 1)
			}
			bit++
		}
		roots[r] = tt
	}
	return roots, opts
}

// FuzzSharedEngine cross-validates the shared-forest DP on the
// work-stealing engine against the serial shared DP — equal MinCost and
// Ordering, under the decoded schedule — against the reference builder,
// whose joint node count and per-level widths under the engine's
// ordering must equal its MinCost and Profile, and, for n ≤ 5, against
// the brute-force minimum over all orderings. Explore with
// `go test -fuzz FuzzSharedEngine ./internal/core`.
func FuzzSharedEngine(f *testing.F) {
	f.Add([]byte{0x0b, 0x00, 0x96, 0xe8})             // adder: sum and carry over 3 variables
	f.Add([]byte{0x3f, 0x25, 0xa5, 0x0f, 0xff, 0x3c}) // 4 ZDD roots over 7 variables, mostly zero
	f.Fuzz(func(t *testing.T, data []byte) {
		roots, opts := decodeSharedFuzz(data)
		serial := OptimalOrderingShared(roots, &SolveOptions{Rule: opts.Rule})
		m := &Meter{}
		opts.Meter = m
		res, err := OptimalOrderingSharedParallel(nil, roots, opts)
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		if res.MinCost != serial.MinCost || !slices.Equal(res.Ordering, serial.Ordering) {
			t.Fatalf("engine cost %d ordering %v, serial cost %d ordering %v (w=%d sb=%d)",
				res.MinCost, res.Ordering, serial.MinCost, serial.Ordering, opts.Workers, opts.ShardBits)
		}
		if m.LiveCells != 0 {
			t.Fatalf("engine leaves %d live cells", m.LiveCells)
		}
		if widths, nodes := refForest(roots, res.Ordering, opts.Rule); nodes != res.MinCost || !slices.Equal(widths, res.Profile) {
			t.Fatalf("engine cost %d profile %v under %v, reference builder %d %v",
				res.MinCost, res.Profile, res.Ordering, nodes, widths)
		}
		if n := roots[0].NumVars(); n <= 5 {
			if bf := BruteForceShared(roots, opts.Rule); bf.MinCost != res.MinCost {
				t.Fatalf("n=%d: engine cost %d, brute force %d", n, res.MinCost, bf.MinCost)
			}
		}
	})
}

// decodeOrbitFuzz reads a function symmetric by construction and an
// engine schedule from fuzz bytes. data[0] holds n (low nibble mod 9, so
// n ≤ 8) and the rule (bit 4); data[1] the worker count (low nibble mod
// 5, 0 being the default schedule) and the shard bits (high nibble mod
// 3). The next n bytes label the variables (mod n); equal labels form
// one group. The rest are the function's values, one bit per tuple of
// per-group member counts, least significant bit first; missing bytes
// read as zero.
func decodeOrbitFuzz(data []byte) (*truthtable.Table, []bitops.Mask, *SolveOptions) {
	var hdr [2]byte
	copy(hdr[:], data)
	data = data[min(len(data), 2):]
	n := int(hdr[0]&0xF) % 9
	opts := &SolveOptions{Workers: int(hdr[1]&0xF) % 5, ShardBits: int(hdr[1]>>4) % 3}
	if hdr[0]&0x10 != 0 {
		opts.Rule = ZDD
	}
	byLabel := make([]bitops.Mask, n)
	for v := 0; v < n; v++ {
		label := 0
		if v < len(data) {
			label = int(data[v]) % n
		}
		byLabel[label] = byLabel[label].With(v)
	}
	values := data[min(len(data), n):]
	var groups []bitops.Mask
	for _, g := range byLabel {
		if g != 0 {
			groups = append(groups, g)
		}
	}
	tt := truthtable.New(n)
	for idx := uint64(0); idx < tt.Size(); idx++ {
		// Mixed-radix index of the per-group counts: invariant under
		// any exchange inside a group.
		tuple, radix := uint64(0), uint64(1)
		for _, g := range groups {
			tuple += radix * uint64((bitops.Mask(idx) & g).Count())
			radix *= uint64(g.Count() + 1)
		}
		if i := tuple / 8; i < uint64(len(values)) {
			tt.Set(idx, values[i]>>(tuple%8)&1 == 1)
		}
	}
	return tt, groups, opts
}

// FuzzOrbitEngine cross-validates the DP over symmetry orbits against
// the serial full-lattice DP on functions symmetric by construction:
// under the decoded partition and schedule, and under the portfolio's
// own detected groups, MinCost, Ordering and Profile must be identical,
// Meter.CellOps must equal OrbitBounds' closed form, and every cell must
// be released. Explore with `go test -fuzz FuzzOrbitEngine ./internal/core`.
func FuzzOrbitEngine(f *testing.F) {
	f.Add([]byte{0x08, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0x96, 0x01})                   // totally symmetric n=8
	f.Add([]byte{0x18, 0x12, 0, 0, 1, 1, 2, 2, 3, 3, 0xe8, 0xfe, 0x80, 0x7f, 0x11}) // four pairs, ZDD
	f.Add([]byte{0x07, 0x21, 0, 1, 2, 0, 1, 2, 3, 0xa5, 0x3c, 0x0f, 0xf0, 0x69})    // interleaved triples
	f.Add([]byte{0x06, 0x03, 0, 1, 2, 3, 4, 5, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc}) // all singletons
	f.Fuzz(func(t *testing.T, data []byte) {
		tt, groups, opts := decodeOrbitFuzz(data)
		want, err := OptimalOrderingCtx(nil, tt, &SolveOptions{Rule: opts.Rule})
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			groups []bitops.Mask
			solve  func(*SolveOptions) (*Result, error)
		}{
			{groups, func(o *SolveOptions) (*Result, error) { return optimalOrderingOrbits(nil, tt, groups, o) }},
			{truthtable.Groups(tt), func(o *SolveOptions) (*Result, error) { return Portfolio(nil, tt, o) }},
		} {
			m := &Meter{}
			o := *opts
			o.Meter = m
			got, err := run.solve(&o)
			if err != nil {
				t.Fatalf("groups %v: %v", run.groups, err)
			}
			if got.MinCost != want.MinCost || !slices.Equal(got.Ordering, want.Ordering) || !slices.Equal(got.Profile, want.Profile) {
				t.Fatalf("groups %v (w=%d sb=%d): orbit %d %v %v, fs %d %v %v", run.groups, o.Workers, o.ShardBits,
					got.MinCost, got.Ordering, got.Profile, want.MinCost, want.Ordering, want.Profile)
			}
			if ops, _ := OrbitBounds(run.groups); m.CellOps != ops {
				t.Fatalf("groups %v: CellOps %d, closed form %d", run.groups, m.CellOps, ops)
			}
			if m.LiveCells != 0 {
				t.Fatalf("groups %v: %d live cells after the run", run.groups, m.LiveCells)
			}
		}
	})
}
