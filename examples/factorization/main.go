// Factorization: use ZDD weak division (Minato's unate cube-set algebra)
// to factor a two-level cover — the discrete-optimization application
// Remark 2 gestures at. The cover of f = a·c + a·d + b·c + b·d + e is
// represented as a family of cubes; dividing by the kernel {a, b}
// extracts the factor (a + b)(c + d), leaving remainder e. The exact
// ordering algorithm (ZDD rule) then certifies the cover family's minimum
// ZDD representation.
//
//	go run ./examples/factorization
package main

import (
	"fmt"

	"obddopt/internal/bitops"
	"obddopt/internal/core"
	"obddopt/internal/truthtable"
	"obddopt/internal/zdd"
)

func main() {
	// Elements 0..4 = literals a, b, c, d, e. A cube is a set of literals.
	names := []string{"a", "b", "c", "d", "e"}
	m := zdd.New(5, nil)
	cover := m.FromFamily([]bitops.Mask{
		0b00101, // a·c
		0b01001, // a·d
		0b00110, // b·c
		0b01010, // b·d
		0b10000, // e
	})
	fmt.Println("cover F =", famString(m, cover, names))

	divisor := m.FromFamily([]bitops.Mask{0b00001, 0b00010}) // {a, b}
	q := m.Divide(cover, divisor)
	r := m.Remainder(cover, divisor)
	fmt.Println("divisor D =", famString(m, divisor, names))
	fmt.Println("quotient F/D =", famString(m, q, names))
	fmt.Println("remainder =", famString(m, r, names))

	// Verify the factorization F = (F/D ⋈ D) ∪ rem recomposes the cover.
	recomposed := m.Union(m.Join(q, divisor), r)
	fmt.Println("recomposes exactly:", recomposed == cover)

	// Certify the minimum ZDD of the cover family with the exact DP.
	chi := truthtable.New(5)
	for _, s := range m.ToFamily(cover) {
		chi.Set(uint64(s), true)
	}
	res := core.OptimalOrdering(chi, &core.SolveOptions{Rule: core.ZDD})
	fmt.Printf("minimum ZDD of the cover: %d nodes under %s\n", res.MinCost, res.Ordering)
	mOpt := zdd.New(5, res.Ordering)
	fmt.Println("manager agrees:", mOpt.CountNodes(mOpt.FromTruthTable(chi)) == res.MinCost)
}

func famString(m *zdd.Manager, f zdd.Node, names []string) string {
	out := ""
	for i, s := range m.ToFamily(f) {
		if i > 0 {
			out += " + "
		}
		if s == 0 {
			out += "1"
			continue
		}
		for _, v := range s.Members(nil) {
			out += names[v]
		}
	}
	if out == "" {
		return "0"
	}
	return out
}
