package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"obddopt/internal/truthtable"
)

// TestClassCountMatchesCompaction is the soundness property of the
// engine's candidate pricing: for every destination S of random tables
// and 2–3-root shared bases (n ≤ 9, both rules) and every member p of S,
// classWidth over the classes of S's built table equals the width
// compactInto reports for p. The table is built from S's lowest member
// and from its highest, so copied-through labels, the all-distinct pass
// and the representative pass all occur; one base whose IDs start past
// 2^16 runs the wide label set.
func TestClassCountMatchesCompaction(t *testing.T) {
	ws := acquireWorkspace()
	defer ws.release()
	wk := &wsWorker{ws: ws}
	rng := rand.New(rand.NewSource(2101))
	type base struct {
		name string
		ctx  *fsContext
	}
	var bases []base
	for n := 1; n <= 9; n++ {
		bases = append(bases, base{fmt.Sprintf("random n=%d", n), baseContext(truthtable.Random(n, rng))})
	}
	for _, n := range []int{3, 6, 9} {
		for roots := 2; roots <= 3; roots++ {
			bases = append(bases, base{fmt.Sprintf("shared n=%d roots=%d", n, roots), baseContextShared(randomRoots(n, roots, rng))})
		}
	}
	wide := baseContextShared(randomRoots(7, 2, rng))
	wide.cost = 1 << 16
	bases = append(bases, base{"wide shared n=7 roots=2", wide})

	// passes counts the pricings per kernel path: all distinct,
	// representatives below 2^16, wide representatives.
	var passes [3]int
	for _, b := range bases {
		for _, rule := range []Rule{OBDD, ZDD} {
			n := b.ctx.n
			// tables[S] absorbs S with its lowest member last; ceil[S]
			// is the first fresh ID of a compaction reading it.
			tables := make([][]uint32, 1<<n)
			ceil := make([]uint32, 1<<n)
			tables[0], ceil[0] = b.ctx.table, b.ctx.nextID()
			compactSub := func(s uint64, p int) ([]uint32, uint64) {
				pred := s &^ (1 << uint(p))
				pos := uint(p - bits.OnesCount64(pred&(1<<uint(p)-1)))
				dst := make([]uint32, len(tables[pred])/2)
				resetDedup(&ws.dd, uint64(len(dst)), ceil[pred])
				return dst, compactInto(dst, tables[pred], pos, rule, ceil[pred], &ws.dd)
			}
			for s := uint64(1); s < 1<<n; s++ {
				low := bits.TrailingZeros64(s)
				dst, width := compactSub(s, low)
				tables[s], ceil[s] = dst, ceil[s&^(1<<uint(low))]+uint32(width)
			}
			for s := uint64(1); s < 1<<n; s++ {
				want := make(map[int]uint64)
				for rest := s; rest != 0; rest &= rest - 1 {
					p := bits.TrailingZeros64(rest)
					_, want[p] = compactSub(s, p)
				}
				for _, built := range []int{bits.TrailingZeros64(s), 63 - bits.LeadingZeros64(s)} {
					dst, width := compactSub(s, built)
					idCap := ceil[s&^(1<<uint(built))] + uint32(width)
					var reps []uint32
					kernel := 0
					if width != uint64(len(dst)) {
						kernel = 1
						if idCap > 1<<16 {
							kernel = 2
						}
						reps = wk.classReps(dst, kernel == 2, nil)
					}
					for rest := s; rest != 0; rest &= rest - 1 {
						p := bits.TrailingZeros64(rest)
						if p == built {
							continue
						}
						pred := s &^ (1 << uint(p))
						pos := uint(p - bits.OnesCount64(pred&(1<<uint(p)-1)))
						passes[kernel]++
						if got := classWidth(tables[pred], pos, rule, reps); got != want[p] {
							t.Fatalf("%s %v: S=%#b built from %d (width %d of %d cells), candidate %d: class price %d, compaction width %d",
								b.name, rule, s, built, width, len(dst), p, got, want[p])
						}
					}
				}
			}
		}
	}
	t.Logf("pricings: %d all-distinct, %d representative, %d wide representative", passes[0], passes[1], passes[2])
	for kernel, name := range []string{"all-distinct", "representative", "wide representative"} {
		if passes[kernel] == 0 {
			t.Errorf("the %s pass never ran", name)
		}
	}
}
