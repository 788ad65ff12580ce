package artifact_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"obddopt/internal/artifact"
	"obddopt/internal/bdd"
	"obddopt/internal/conformance"
	"obddopt/internal/funcs"
	"obddopt/internal/truthtable"
)

// roundTripTables is the structured roster the unit tests sweep:
// constants, single literals, and the function families with distinct
// level shapes (full levels, skipped levels, wide bottom levels).
func roundTripTables(t *testing.T) []*truthtable.Table {
	t.Helper()
	tables := []*truthtable.Table{
		truthtable.New(0), // constant false, n = 0
	}
	one := truthtable.New(0)
	one.Set(0, true)
	tables = append(tables, one)
	for n := 1; n <= 6; n++ {
		tables = append(tables,
			truthtable.New(n),
			funcs.Parity(n),
			funcs.Threshold(n, (n+1)/2),
		)
		allOnes := truthtable.New(n)
		for i := uint64(0); i < allOnes.Size(); i++ {
			allOnes.Set(i, true)
		}
		tables = append(tables, allOnes)
	}
	tables = append(tables,
		funcs.Multiplexer(1),
		funcs.Multiplexer(2),
		funcs.HiddenWeightedBit(5),
		funcs.ReadOnceChain(8),
		funcs.Comparator(3),
	)
	rng := rand.New(rand.NewSource(42))
	for n := 2; n <= 8; n++ {
		tables = append(tables, truthtable.Random(n, rng))
	}
	return tables
}

// orderingsFor yields a few distinct orderings per table: natural,
// identity-reversed, and one seeded shuffle.
func orderingsFor(n int, rng *rand.Rand) []truthtable.Ordering {
	ords := []truthtable.Ordering{nil, truthtable.ReverseOrdering(n)}
	if n >= 2 {
		perm := make(truthtable.Ordering, n)
		for i, v := range rng.Perm(n) {
			perm[i] = v
		}
		ords = append(ords, perm)
	}
	return ords
}

func TestRoundTripLosslessAndCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tt := range roundTripTables(t) {
		for _, ord := range orderingsFor(tt.NumVars(), rng) {
			a, err := artifact.Build(tt, ord)
			if err != nil {
				t.Fatalf("Build(%s, %v): %v", tt.Hex(), ord, err)
			}
			enc := a.Encode()
			dec, err := artifact.Decode(enc)
			if err != nil {
				t.Fatalf("Decode(Encode(%s)): %v", tt.Hex(), err)
			}
			if !a.Equal(dec) {
				t.Fatalf("decode(encode) not node-identical for %s under %v", tt.Hex(), ord)
			}
			if re := dec.Encode(); !bytes.Equal(enc, re) {
				t.Fatalf("encode→decode→encode not byte-identical for %s under %v", tt.Hex(), ord)
			}
			if got := dec.ToTruthTable(); got.Hex() != tt.Hex() {
				t.Fatalf("decoded artifact denotes %s, want %s", got.Hex(), tt.Hex())
			}
			if err := artifact.Verify(dec, tt); err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if got, want := dec.SatCount(), tt.CountOnes(); got != want {
				t.Fatalf("SatCount %d, table has %d ones (%s under %v)", got, want, tt.Hex(), ord)
			}
		}
	}
}

// TestBuildMatchesManager cross-checks NodeCount and level structure
// against the bdd.Manager the artifact was distilled from.
func TestBuildMatchesManager(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tt := range roundTripTables(t) {
		n := tt.NumVars()
		for _, ord := range orderingsFor(n, rng) {
			a, err := artifact.Build(tt, ord)
			if err != nil {
				t.Fatal(err)
			}
			eff := ord
			if eff == nil {
				eff = truthtable.ReverseOrdering(n)
			}
			m := bdd.New(n, eff)
			root := m.FromTruthTable(tt)
			if got, want := a.NodeCount(), m.CountNodes(root); got != want {
				t.Fatalf("NodeCount %d, manager counts %d (%s under %v)", got, want, tt.Hex(), ord)
			}
			if got, want := a.SatCount(), m.SatCount(root); got != want {
				t.Fatalf("SatCount %d, manager says %d", got, want)
			}
			// bdd.LevelCounts is indexed bottom-up (Profile order), the
			// artifact root-first.
			lc := m.LevelCounts(root)
			for lvl, c := range a.LevelCounts() {
				if want := lc[n-1-lvl]; uint64(c) != want {
					t.Fatalf("level %d count %d, manager says %d", lvl, c, want)
				}
			}
		}
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := artifact.Build(nil, nil); err == nil {
		t.Fatal("Build(nil) accepted")
	}
	tt := funcs.Parity(3)
	for _, ord := range []truthtable.Ordering{{0, 1}, {0, 0, 1}, {0, 1, 3}} {
		if _, err := artifact.Build(tt, ord); err == nil {
			t.Fatalf("Build accepted bad ordering %v", ord)
		}
	}
}

func TestSatCountConstants(t *testing.T) {
	for n := 0; n <= 4; n++ {
		f := truthtable.New(n)
		af, err := artifact.Build(f, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := af.SatCount(); got != 0 {
			t.Fatalf("n=%d constant false: SatCount %d", n, got)
		}
		for i := uint64(0); i < f.Size(); i++ {
			f.Set(i, true)
		}
		at, err := artifact.Build(f, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := at.SatCount(), uint64(1)<<uint(n); got != want {
			t.Fatalf("n=%d constant true: SatCount %d, want %d", n, got, want)
		}
		if at.NodeCount() != 0 {
			t.Fatalf("constant with %d nodes", at.NodeCount())
		}
	}
}

// TestGoldenCorpus replays the artifact contract over the full golden
// corpus: byte-identical round trips, truth-table equivalence, SatCount
// against CountOnes, NodeCount against the pinned MinCost for OBDD
// entries — and the compression criterion of the acceptance bar:
// artifact bytes at most 60% of a naive fixed-width (level, lo, hi)
// dump, summed over the corpus.
func TestGoldenCorpus(t *testing.T) {
	entries, err := conformance.DefaultGolden()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("empty golden corpus")
	}
	var artifactBytes, naiveBytes uint64
	for _, e := range entries {
		tt, err := truthtable.ParseHex(e.Table)
		if err != nil {
			t.Fatalf("%s: %v", e.Table, err)
		}
		a, err := artifact.Build(tt, truthtable.Ordering(e.Ordering))
		if err != nil {
			t.Fatalf("%s/%s: %v", e.Table, e.Rule, err)
		}
		enc := a.Encode()
		dec, err := artifact.Decode(enc)
		if err != nil {
			t.Fatalf("%s/%s: decode: %v", e.Table, e.Rule, err)
		}
		if !bytes.Equal(enc, dec.Encode()) {
			t.Fatalf("%s/%s: encode→decode→encode drifted", e.Table, e.Rule)
		}
		if err := artifact.Verify(dec, tt); err != nil {
			t.Fatalf("%s/%s: %v", e.Table, e.Rule, err)
		}
		if got, want := dec.SatCount(), tt.CountOnes(); got != want {
			t.Fatalf("%s/%s: SatCount %d, want %d", e.Table, e.Rule, got, want)
		}
		if e.Rule == "obdd" {
			if got := dec.NodeCount(); got != e.MinCost {
				t.Fatalf("%s: NodeCount %d, corpus pins MinCost %d", e.Table, got, e.MinCost)
			}
		}
		artifactBytes += uint64(len(enc))
		// Naive fixed-width dump: uint32 n + per-variable uint32 ordering
		// + a (level, lo, hi) uint32 triple per node + uint32 root.
		naiveBytes += uint64(8 + 4*tt.NumVars() + 12*int(a.NodeCount()))
	}
	t.Logf("corpus: %d entries, %d artifact bytes vs %d naive bytes (%.1f%%)",
		len(entries), artifactBytes, naiveBytes, 100*float64(artifactBytes)/float64(naiveBytes))
	if artifactBytes*100 > naiveBytes*60 {
		t.Fatalf("artifact encoding too large: %d bytes vs naive %d — exceeds the 60%% bar", artifactBytes, naiveBytes)
	}
}

// corrupt applies f to a copy of enc and asserts Decode rejects it with
// a typed error.
func corrupt(t *testing.T, name string, enc []byte, f func([]byte) []byte, want error) {
	t.Helper()
	mut := f(append([]byte(nil), enc...))
	_, err := artifact.Decode(mut)
	if err == nil {
		t.Fatalf("%s: Decode accepted the mutated stream", name)
	}
	if want != nil && !errors.Is(err, want) {
		t.Fatalf("%s: error %v, want %v", name, err, want)
	}
	if !errors.Is(err, artifact.ErrBadMagic) && !errors.Is(err, artifact.ErrBadVersion) &&
		!errors.Is(err, artifact.ErrTruncated) && !errors.Is(err, artifact.ErrCorrupt) {
		t.Fatalf("%s: error %v is not one of the typed sentinels", name, err)
	}
}

func TestDecodeTypedErrors(t *testing.T) {
	a, err := artifact.Build(funcs.Parity(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	enc := a.Encode()

	corrupt(t, "empty", enc, func(b []byte) []byte { return nil }, artifact.ErrTruncated)
	corrupt(t, "short-magic", enc, func(b []byte) []byte { return b[:3] }, artifact.ErrTruncated)
	corrupt(t, "bad-magic", enc, func(b []byte) []byte { b[0] = 'X'; return b }, artifact.ErrBadMagic)
	corrupt(t, "bad-version", enc, func(b []byte) []byte { b[4] = 99; return b }, artifact.ErrBadVersion)
	corrupt(t, "huge-n", enc, func(b []byte) []byte { b[5] = 200; return b }, artifact.ErrCorrupt)
	// Every proper prefix is rejected, and with ErrTruncated once past
	// the magic.
	for i := 0; i < len(enc); i++ {
		_, err := artifact.Decode(enc[:i])
		if err == nil {
			t.Fatalf("Decode accepted the %d-byte prefix of a %d-byte stream", i, len(enc))
		}
		if !errors.Is(err, artifact.ErrTruncated) {
			t.Fatalf("prefix %d: error %v, want ErrTruncated", i, err)
		}
	}
	corrupt(t, "trailing", enc, func(b []byte) []byte { return append(b, 0) }, artifact.ErrCorrupt)
	corrupt(t, "padding", enc, func(b []byte) []byte { b[len(b)-1] |= 0x80; return b }, nil)
}

// stream hand-assembles an encoded artifact from header fields and raw
// level bytes, for corruption cases a mutation of a valid stream cannot
// reach.
func stream(n int, ordering []byte, counts []byte, root byte, levels ...byte) []byte {
	b := []byte("OBDa\x01")
	b = append(b, byte(n))
	b = append(b, ordering...)
	b = append(b, counts...)
	b = append(b, root)
	return append(b, levels...)
}

func TestDecodeRejectsNonCanonical(t *testing.T) {
	// Reference: parity of 2 variables under the natural ordering.
	// counts = [1, 2]; level 1 packs (0,1),(1,0) in 1-bit edges → 0x06;
	// level 0 packs (2,3) in 2-bit edges → 0x0e; root = 4.
	valid := stream(2, []byte{1, 0}, []byte{1, 2}, 4, 0x06, 0x0e)
	if a, err := artifact.Decode(valid); err != nil {
		t.Fatalf("reference stream rejected: %v", err)
	} else if got, want := a.ToTruthTable().Hex(), funcs.Parity(2).Hex(); got != want {
		t.Fatalf("reference stream denotes %s, want %s", got, want)
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"ordering-not-permutation", stream(2, []byte{0, 0}, []byte{1, 2}, 4, 0x06, 0x0e)},
		{"ordering-out-of-range", stream(2, []byte{2, 0}, []byte{1, 2}, 4, 0x06, 0x0e)},
		{"root-not-total-plus-one", stream(2, []byte{1, 0}, []byte{1, 2}, 3, 0x06, 0x0e)},
		{"constant-root-nonterminal", stream(2, []byte{1, 0}, []byte{0, 0}, 2)},
		{"redundant-node", stream(2, []byte{1, 0}, []byte{1, 2}, 4, 0x07, 0x0e)},    // level-1 node (1,1)
		{"duplicate-node", stream(2, []byte{1, 0}, []byte{1, 2}, 4, 0x05, 0x0e)},    // (1,0),(1,0)
		{"unsorted-level", stream(2, []byte{1, 0}, []byte{1, 2}, 4, 0x09, 0x0e)},    // (1,0),(0,1)
		{"edge-out-of-range", stream(2, []byte{1, 0}, []byte{1, 1}, 3, 0x02, 0x0c)}, // root (0,3): 3 ≥ base 3
		{"unreachable-node", stream(2, []byte{1, 0}, []byte{1, 2}, 4, 0x06, 0x04)},  // root (0,1) strands ids 2 and 3
		// 0x80 0x00 decodes to the same value as 0x00 but re-encodes
		// shorter, so canonicality demands minimal varints (fuzzer find).
		{"nonminimal-varint-n", []byte("OBDa\x01\x80\x00")},
		{"nonminimal-varint-root", stream(2, []byte{1, 0}, []byte{0, 0}, 0x80, 0x00)},
	}
	for _, tc := range cases {
		_, err := artifact.Decode(tc.data)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !errors.Is(err, artifact.ErrCorrupt) {
			t.Fatalf("%s: error %v, want ErrCorrupt", tc.name, err)
		}
	}
}

func TestDecodedOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tt := range roundTripTables(t) {
		for _, ord := range orderingsFor(tt.NumVars(), rng) {
			a, err := artifact.Build(tt, ord)
			if err != nil {
				t.Fatal(err)
			}
			enc := a.Encode()
			got, err := artifact.DecodedOrdering(enc)
			if err != nil {
				t.Fatal(err)
			}
			want := a.Ordering()
			if len(got) != len(want) {
				t.Fatalf("ordering length %d, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("DecodedOrdering %v, artifact carries %v", got, want)
				}
			}
		}
	}
	if _, err := artifact.DecodedOrdering([]byte("OB")); !errors.Is(err, artifact.ErrTruncated) {
		t.Fatalf("short header: %v, want ErrTruncated", err)
	}
	if _, err := artifact.DecodedOrdering([]byte("XBDa\x01\x00")); !errors.Is(err, artifact.ErrBadMagic) {
		t.Fatalf("bad magic: %v, want ErrBadMagic", err)
	}
}

func TestEvalRejectsWrongArity(t *testing.T) {
	a, err := artifact.Build(funcs.Parity(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Eval([]bool{true}); err == nil {
		t.Fatal("Eval accepted a 1-assignment for a 3-variable artifact")
	}
}

func TestVerifyDetectsMismatch(t *testing.T) {
	tt := funcs.Parity(4)
	a, err := artifact.Build(tt, nil)
	if err != nil {
		t.Fatal(err)
	}
	other := funcs.Threshold(4, 2)
	if err := artifact.Verify(a, other); err == nil {
		t.Fatal("Verify accepted an artifact of a different function")
	}
	if err := artifact.Verify(a, funcs.Parity(3)); err == nil {
		t.Fatal("Verify accepted a variable-count mismatch")
	}
	if err := artifact.Verify(nil, tt); err == nil {
		t.Fatal("Verify accepted a nil artifact")
	}
}

// TestVerifySampledPath exercises the sampled branch (n > 16) once:
// parity of 17 variables has a 18-node OBDD, so Build is cheap even
// though the table is 2^17 bits.
func TestVerifySampledPath(t *testing.T) {
	if testing.Short() {
		t.Skip("large table in -short mode")
	}
	tt := funcs.Parity(17)
	a, err := artifact.Build(tt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := artifact.Verify(a, tt); err != nil {
		t.Fatal(err)
	}
	if got, want := a.SatCount(), tt.CountOnes(); got != want {
		t.Fatalf("SatCount %d, want %d", got, want)
	}
	// Flip a bit the Weyl sample is guaranteed to visit: the first
	// sampled index (one step of the sequence, reduced mod the size).
	const step = 0x9e3779b97f4a7c15
	hit := uint64(step) % tt.Size()
	flipped := funcs.Parity(17)
	flipped.Set(hit, !flipped.Bit(hit))
	if err := artifact.Verify(a, flipped); err == nil {
		t.Fatalf("sampled Verify missed a disagreement at index %d", hit)
	}
}

func TestEqual(t *testing.T) {
	a, _ := artifact.Build(funcs.Parity(3), nil)
	b, _ := artifact.Build(funcs.Parity(3), nil)
	c, _ := artifact.Build(funcs.Threshold(3, 2), nil)
	d, _ := artifact.Build(funcs.Parity(3), truthtable.Ordering{0, 1, 2})
	if !a.Equal(b) {
		t.Fatal("identical builds not Equal")
	}
	if a.Equal(c) {
		t.Fatal("different functions Equal")
	}
	// Parity is symmetric, so a and d share node structure — only the
	// recorded ordering differs, and Equal must see it.
	if a.Equal(d) {
		t.Fatal("Equal ignored the ordering")
	}
	if a.Equal(nil) || (*artifact.Artifact)(nil).Equal(a) {
		t.Fatal("nil comparisons")
	}
	var nilA, nilB *artifact.Artifact
	if !nilA.Equal(nilB) {
		t.Fatal("nil.Equal(nil) should hold")
	}
}
