package core

import (
	"math/rand"
	"testing"

	"obddopt/internal/truthtable"
)

// TestCompactIntoWideMatchesPacked is the differential property of the
// two compaction kernels: for the same source table, absorbed position
// and rule, the wide (64-bit dedup) kernel and the packed 32-bit kernel
// assign the same skip cells verbatim and the same fresh nodes up to the
// id0 offset, and report the same width. resetDedup selects the layout
// purely from id0+expect, so forcing id0 past the 16-bit ceiling runs
// the exact code path large instances take.
func TestCompactIntoWideMatchesPacked(t *testing.T) {
	const wideID0 = 1 << 17 // forces dd.Reset (wide) in resetDedup
	ws := acquireWorkspace()
	defer ws.release()
	rng := rand.New(rand.NewSource(211))
	for _, rule := range []Rule{OBDD, ZDD} {
		for trial := 0; trial < 12; trial++ {
			n := 3 + trial%4 // 3..6: halves of 4..32 hit both the 8-lane and tail loops
			var tt *truthtable.Table
			switch trial {
			case 0:
				// All-false: every chunk takes the word-parallel bulk skip.
				tt = truthtable.New(n)
			case 1:
				// Parity: no cell skips, every pair hits the dedup table.
				tt = truthtable.FromFunc(n, func(x []bool) bool {
					v := false
					for _, b := range x {
						v = v != b
					}
					return v
				})
			default:
				tt = truthtable.Random(n, rng)
			}
			src := baseContext(tt).table
			for pos := uint(0); pos < uint(n); pos++ {
				size := uint64(len(src)) / 2
				ref := make([]uint32, size)
				resetDedup(&ws.dd, size, 2)
				if !ws.dd.Compact32() {
					t.Fatal("reference resetDedup did not select the packed layout")
				}
				wRef := compactInto(ref, src, pos, rule, 2, &ws.dd)

				wide := make([]uint32, size)
				resetDedup(&ws.dd, size, wideID0)
				if ws.dd.Compact32() {
					t.Fatal("wide resetDedup selected the packed layout")
				}
				wWide := compactInto(wide, src, pos, rule, wideID0, &ws.dd)

				if wRef != wWide {
					t.Fatalf("rule=%v n=%d pos=%d: width %d (packed) != %d (wide)",
						rule, n, pos, wRef, wWide)
				}
				for i := range ref {
					want := ref[i]
					if want >= 2 { // fresh node: shifted by the id0 delta
						want = want - 2 + wideID0
					}
					if wide[i] != want {
						t.Fatalf("rule=%v n=%d pos=%d cell %d: wide %d, want %d (packed %d)",
							rule, n, pos, i, wide[i], want, ref[i])
					}
				}
			}
		}
	}
}

// TestMeterResetAndUnderflow covers the Meter reuse contract: Reset
// zeroes every counter, and free clamps at zero instead of wrapping.
func TestMeterResetAndUnderflow(t *testing.T) {
	m := &Meter{}
	m.addCells(7)
	m.alloc(16)
	m.Reset()
	if *m != (Meter{}) {
		t.Fatalf("Reset left %+v", *m)
	}
	m.alloc(4)
	m.free(9) // more than live: clamps to zero
	if m.LiveCells != 0 {
		t.Fatalf("LiveCells = %d after over-free, want 0", m.LiveCells)
	}
}
