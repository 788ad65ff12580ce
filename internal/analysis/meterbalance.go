package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// MeterBalance enforces the cell-accounting contract behind the paper's
// complexity claims: the Meter's LiveCells gauge (Remark 1's two-layer
// space measure) is only trustworthy if every (*Meter).alloc is paired
// with a (*Meter).free on every exit path — including the early
// ErrCanceled / ErrBudgetExceeded returns the cancellable engine added.
//
// The check is path-sensitive: a CFG is built per function (and per
// function literal) and a worklist fixpoint tracks, for every alloc call
// site, whether some path can reach a return with the cells still held.
// An alloc site is keyed by the source text of its argument, so
// m.free(size) discharges m.alloc(size) specifically; a free whose
// argument matches no outstanding alloc conservatively discharges every
// outstanding site (the meter counts quantities, not identities).
//
// Ownership transfers are PROVEN, not waived: a return whose result
// carries a table — a []uint32 / [][]uint32, or a struct holding one
// (fsContext, dpState) — hands every outstanding allocation to the
// caller, so the path is balanced by transfer. This is what discharges
// compact and DnC's extend without an annotation: the allocated
// cells leave through the return value, and a `return nil, err` path (a
// nil carrier) gets no such credit.
//
// Deferred frees and the abort/cleanup-closure idiom (a local closure
// containing frees, called before an early return) are both replayed
// into the exit fact before a path is judged.
var MeterBalance = &Analyzer{
	Name: "meterbalance",
	Doc: "report paths that return with (*Meter).alloc'd cells still held and not transferred; " +
		"pair every alloc with a free on every path or return the table to the caller",
	Run: runMeterBalance,
}

// meterMethodCall reports whether call is m.<name>(...) on a receiver
// whose (possibly pointer) type is named Meter.
func meterMethodCall(pass *Pass, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	if tv, ok := pass.TypesInfo.Types[sel.X]; ok {
		return namedTypeName(tv.Type) == "Meter"
	}
	return false
}

func runMeterBalance(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// The Meter's own methods are the accounting primitives, not
			// their users.
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				if tv, ok := pass.TypesInfo.Types[fd.Recv.List[0].Type]; ok && namedTypeName(tv.Type) == "Meter" {
					continue
				}
			}
			for _, g := range funcCFGs(fd) {
				checkMeterGraph(pass, g)
			}
		}
	}
	return nil
}

// meterKey identifies one alloc site: its position plus the source text
// of its argument (the quantity being accounted).
type meterKey struct {
	pos token.Pos
	arg string
}

// meterFlow is the meterbalance transfer function over one function
// graph.
type meterFlow struct {
	pass *Pass
	g    funcGraph
	// closureFrees maps a local variable bound to a function literal to
	// the free-argument texts its body performs (the abort-closure
	// idiom); a call through the variable replays them.
	closureFrees map[types.Object][]string
	// hasAnyFree records whether the graph contains any free at all
	// (directly, deferred, or in a local closure); hasCarrierReturn
	// whether any return transfers a table. Together they select between
	// the "no free anywhere" and the "leaking path" diagnostic.
	hasAnyFree       bool
	hasCarrierReturn bool
}

type meterFact = map[meterKey]resState

func (mf *meterFlow) Entry() meterFact              { return meterFact{} }
func (mf *meterFlow) Clone(f meterFact) meterFact   { return cloneStates(f) }
func (mf *meterFlow) Join(a, b meterFact) meterFact { return joinStates(a, b) }
func (mf *meterFlow) Equal(a, b meterFact) bool     { return equalStates(a, b) }

func (mf *meterFlow) Apply(f meterFact, n ast.Node) meterFact {
	inspectNoLits(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case meterMethodCall(mf.pass, call, "alloc"):
			arg := ""
			if len(call.Args) > 0 {
				arg = exprText(call.Args[0])
			}
			f[meterKey{pos: call.Pos(), arg: arg}] = stateHeld
		case meterMethodCall(mf.pass, call, "free"):
			arg := ""
			if len(call.Args) > 0 {
				arg = exprText(call.Args[0])
			}
			applyMeterFree(f, arg)
		default:
			// A call through a local cleanup closure replays its frees.
			if id, ok := call.Fun.(*ast.Ident); ok {
				if obj := mf.pass.TypesInfo.Uses[id]; obj != nil {
					for _, arg := range mf.closureFrees[obj] {
						applyMeterFree(f, arg)
					}
				}
			}
		}
		return true
	})
	if ret, ok := n.(*ast.ReturnStmt); ok {
		if mf.carrierReturn(ret) {
			for k, s := range f {
				if s.mayBeHeld() {
					f[k] = (s &^ stateHeld) | stateEscaped
				}
			}
		}
	}
	return f
}

// applyMeterFree discharges held allocations: sites whose argument text
// matches exactly, or — when none matches — every held site (a free of
// cells the analyzer cannot attribute still lowers LiveCells).
func applyMeterFree(f meterFact, arg string) {
	matched := false
	for k, s := range f {
		if k.arg == arg && s.mayBeHeld() {
			f[k] = (s &^ stateHeld) | stateReleased
			matched = true
		}
	}
	if matched {
		return
	}
	for k, s := range f {
		if s.mayBeHeld() {
			f[k] = (s &^ stateHeld) | stateReleased
		}
	}
}

// carrierReturn reports whether ret transfers table ownership to the
// caller: some non-nil result's type is (or contains) a table slice.
func (mf *meterFlow) carrierReturn(ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		// A bare return transfers through named results.
		if res := mf.g.typ.Results; res != nil {
			for _, field := range res.List {
				if len(field.Names) == 0 {
					continue
				}
				if tv, ok := mf.pass.TypesInfo.Types[field.Type]; ok && isTableCarrier(tv.Type) {
					return true
				}
			}
		}
		return false
	}
	for _, e := range ret.Results {
		if id, ok := e.(*ast.Ident); ok && id.Name == "nil" {
			continue
		}
		if tv, ok := mf.pass.TypesInfo.Types[e]; ok && isTableCarrier(tv.Type) {
			return true
		}
	}
	return false
}

// isTableCarrier reports whether t is a table slice ([]uint32 or
// [][]uint32) or a (pointer to a) struct with a table-slice field — the
// shapes whose return moves metered cells across the function boundary.
func isTableCarrier(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	u := t.Underlying()
	if isTableSlice(u) {
		return true
	}
	st, ok := u.(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isTableSlice(st.Field(i).Type().Underlying()) {
			return true
		}
	}
	return false
}

// isTableSlice matches []uint32 and [][]uint32.
func isTableSlice(t types.Type) bool {
	sl, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	elem := sl.Elem().Underlying()
	if b, ok := elem.(*types.Basic); ok {
		return b.Kind() == types.Uint32
	}
	if inner, ok := elem.(*types.Slice); ok {
		if b, ok := inner.Elem().Underlying().(*types.Basic); ok {
			return b.Kind() == types.Uint32
		}
	}
	return false
}

// checkMeterGraph runs the fixpoint over one function graph and reports
// paths that return with cells held.
func checkMeterGraph(pass *Pass, g funcGraph) {
	mf := &meterFlow{pass: pass, g: g, closureFrees: map[types.Object][]string{}}

	// Pre-scan: local cleanup closures, the presence of any free, and
	// whether any return transfers a table.
	for _, blk := range g.cfg.Blocks {
		for _, n := range blk.Nodes {
			collectMeterPrescan(pass, mf, n)
			if ret, ok := n.(*ast.ReturnStmt); ok && mf.carrierReturn(ret) {
				mf.hasCarrierReturn = true
			}
		}
	}
	for _, d := range g.cfg.Defers {
		ast.Inspect(d, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok && meterMethodCall(pass, call, "free") {
				mf.hasAnyFree = true
			}
			return true
		})
	}

	sol := Fixpoint[meterFact](g.cfg, mf)
	reportedSites := map[token.Pos]bool{}
	ReplayFacts[meterFact](g.cfg, mf, sol, func(f meterFact, n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		// Judge the exit fact after replaying deferred frees.
		eff := mf.Clone(f)
		for _, d := range g.cfg.Defers {
			applyDeferredMeterFrees(pass, mf, eff, d)
		}
		if mf.carrierReturn(ret) {
			return
		}
		// Report definite leaks only: the site is held and NO path into
		// this return ever released or transferred it. A key carrying a
		// Released/Escaped bit reached this exit balanced on some path —
		// typically a zero-trip retire loop or a flag-correlated free —
		// and flagging it would punish the engine's own rolling-layer
		// idiom (see runDP's abort sweep).
		var leaks []meterKey
		for k, s := range eff {
			if s.mayBeHeld() && s&(stateReleased|stateEscaped) == 0 {
				leaks = append(leaks, k)
			}
		}
		if len(leaks) == 0 {
			return
		}
		sort.Slice(leaks, func(i, j int) bool { return leaks[i].pos < leaks[j].pos })
		if !mf.hasAnyFree && !mf.hasCarrierReturn {
			// The classic leak: allocs with no release anywhere. Anchor at
			// the alloc so an ownership-transfer annotation sits with it.
			for _, k := range leaks {
				if !reportedSites[k.pos] {
					reportedSites[k.pos] = true
					pass.Reportf(k.pos,
						"(*Meter).alloc with no (*Meter).free anywhere in %s: metered cells leak unless ownership transfers to the caller (return the table or annotate with //lint:allow meterbalance <why>)",
						g.name)
				}
			}
			return
		}
		k := leaks[0]
		pass.Reportf(ret.Pos(),
			"return path in %s after (*Meter).alloc at line %d with no (*Meter).free on this path: early exits (ErrCanceled/ErrBudgetExceeded) must release every table they own",
			g.name, pass.Fset.Position(k.pos).Line)
	})
}

// collectMeterPrescan records local closures containing frees and whether
// any free exists in the graph at all.
func collectMeterPrescan(pass *Pass, mf *meterFlow, n ast.Node) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			if meterMethodCall(pass, x, "free") {
				mf.hasAnyFree = true
			}
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				lit, ok := rhs.(*ast.FuncLit)
				if !ok || i >= len(x.Lhs) {
					continue
				}
				id, ok := x.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj == nil {
					continue
				}
				var frees []string
				ast.Inspect(lit.Body, func(y ast.Node) bool {
					if call, ok := y.(*ast.CallExpr); ok && meterMethodCall(pass, call, "free") {
						arg := ""
						if len(call.Args) > 0 {
							arg = exprText(call.Args[0])
						}
						frees = append(frees, arg)
						mf.hasAnyFree = true
					}
					return true
				})
				if len(frees) > 0 {
					mf.closureFrees[obj] = frees
				}
			}
		}
		return true
	})
}

// applyDeferredMeterFrees replays the frees a defer performs (directly or
// inside a deferred closure) into the exit fact.
func applyDeferredMeterFrees(pass *Pass, mf *meterFlow, f meterFact, d *ast.DeferStmt) {
	ast.Inspect(d, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if meterMethodCall(pass, call, "free") {
			arg := ""
			if len(call.Args) > 0 {
				arg = exprText(call.Args[0])
			}
			applyMeterFree(f, arg)
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil {
				for _, arg := range mf.closureFrees[obj] {
					applyMeterFree(f, arg)
				}
			}
		}
		return true
	})
}

// inspectNoLits walks n without descending into nested function literals
// (each literal is analyzed as its own graph).
func inspectNoLits(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		return fn(x)
	})
}
