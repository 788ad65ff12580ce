package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"obddopt/internal/artifact"
	"obddopt/internal/core"
	"obddopt/internal/truthtable"
)

// verifier checks the distinct answers of a run. Every answer must carry
// a permutation under which the diagram has exactly the reported cost,
// and every artifact must decode and denote its table. The cost must
// also equal the serial fs optimum, on every input or, when the workload
// says so, on a seeded sample of them.
type verifier struct {
	ctx  context.Context
	w    *workload
	seed int64

	mu   sync.Mutex
	refs map[int]*reference
}

// reference is one input's fs optimum, computed once however many
// answers are checked against it.
type reference struct {
	once sync.Once
	cost uint64
	err  error
}

func newVerifier(ctx context.Context, w *workload, seed int64) *verifier {
	return &verifier{ctx: ctx, w: w, seed: seed, refs: make(map[int]*reference)}
}

// wantRef reports whether in's answers are held against the fs optimum.
func (v *verifier) wantRef(in *input) bool {
	if v.w.refEvery <= 1 {
		return true
	}
	return splitmix(uint64(v.seed)^uint64(in.id)*0x9e3779b97f4a7c15)%uint64(v.w.refEvery) == 0
}

// ref returns the serial fs optimum of in, computing it once.
func (v *verifier) ref(in *input) (uint64, error) {
	v.mu.Lock()
	r := v.refs[in.id]
	if r == nil {
		r = &reference{}
		v.refs[in.id] = r
	}
	v.mu.Unlock()
	r.once.Do(func() {
		opts := &core.SolveOptions{Rule: in.rule}
		if len(in.tables) > 1 {
			var res *core.SharedResult
			if res, r.err = core.OptimalOrderingSharedCtx(v.ctx, in.tables, opts); r.err == nil {
				r.cost = res.MinCost
			}
		} else {
			var res *core.Result
			if res, r.err = core.OptimalOrderingCtx(v.ctx, in.tables[0], opts); r.err == nil {
				r.cost = res.MinCost
			}
		}
		if r.err != nil {
			r.err = fmt.Errorf("fs reference for input %d: %w", in.id, r.err)
		}
	})
	return r.cost, r.err
}

// check returns nil when ent is a correct answer to its input.
func (v *verifier) check(ent *resultEntry) error {
	in := ent.in
	cost, order, rule := ent.cost, truthtable.Ordering(ent.order), in.rule
	if ent.kind == opArtifact {
		a, err := artifact.Decode(ent.art)
		if err != nil {
			return err
		}
		if err := artifact.Verify(a, in.tables[0]); err != nil {
			return err
		}
		cost, order, rule = a.NodeCount(), a.Ordering(), core.OBDD
	}
	if len(order) != in.n() || !order.Valid() {
		return fmt.Errorf("ordering %v is not a permutation of %d variables", order, in.n())
	}
	var widths []uint64
	if len(in.tables) > 1 {
		widths = core.SharedProfile(in.tables, order, rule)
	} else {
		widths = core.Profile(in.tables[0], order, rule, nil)
	}
	var size uint64
	for _, w := range widths {
		size += w
	}
	if size != cost {
		return fmt.Errorf("reported cost %d, but its ordering gives %d", cost, size)
	}
	if !v.wantRef(in) {
		return nil
	}
	ref, err := v.ref(in)
	if err != nil {
		return err
	}
	if ref != cost {
		return fmt.Errorf("cost %d, but the fs optimum is %d", cost, ref)
	}
	return nil
}

// verify checks every distinct answer in rec and returns how many
// operations got a wrong one, with a few of the reasons. The checks are
// independent, so they run on every processor.
func (v *verifier) verify(rec *recorder) (failed int, msgs []string) {
	ents := make([]*resultEntry, 0, len(rec.entries))
	for _, ent := range rec.entries {
		ents = append(ents, ent)
	}
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].in.id != ents[j].in.id {
			return ents[i].in.id < ents[j].in.id
		}
		return ents[i].count > ents[j].count
	})
	errs := make([]error, len(ents))
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(ents) {
					return
				}
				errs[i] = v.check(ents[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			continue
		}
		ent := ents[i]
		failed += ent.count
		if len(msgs) < 5 {
			msgs = append(msgs, fmt.Sprintf("input %d (%s %s n=%d, %s): %v",
				ent.in.id, ent.in.family, ent.in.rule, ent.in.n(), ent.kind, err))
		}
	}
	return failed, msgs
}

// splitmix is the SplitMix64 finalizer, a cheap seeded hash.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
