package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
)

// ArenaOwner enforces the block-ownership discipline behind the arena's
// recycling contract (internal/core/arena): every []uint32 block a
// function obtains with (*Arena).GetU32, or a layer slab it obtains with
// (*Arena).GetSlab, must, on every path to every return, be either
//
//   - put back with (*Arena).PutU32 or (*Arena).PutSlab (directly or via
//     a recycle helper that the block variable is passed to), or
//   - transferred to a sanctioned owner: stored into a table slot
//     (an element of a local slice or of a whitelisted struct's slice
//     field) or into a field of one of the engine's owning structs
//     (fsContext, dpState, workspace, wsLayer, wsRing, Arena),
//     or returned to the caller.
//
// A store into a field of any other struct is an escape out of the
// ownership model and is reported at the store: a block squirreled away
// in unsanctioned storage can never be recycled and silently defeats
// Remark 1's two-layer space bound. The check mirrors meterbalance but
// tracks block identities (variables) instead of metered quantities, so
// it is the storage-side twin of the LiveCells accounting: GetU32/PutU32
// must balance exactly where alloc/free do.
//
// Like meterbalance, the analyzer reports definite leaks only: a block
// is flagged at a return only if NO path into that return released or
// transferred it. Blocks acquired straight into composite literals or
// slice elements (never bound to a variable) are the container's
// responsibility and are not tracked.
var ArenaOwner = &Analyzer{
	Name: "arenaowner",
	Doc: "report arena blocks and slabs ((*Arena).GetU32/GetSlab) that a path can leak — neither " +
		"PutU32/PutSlab back nor transferred into sanctioned table storage or the return value — " +
		"and blocks escaping into fields outside the dpState/workspace/wsRing ownership whitelist",
	Run: runArenaOwner,
}

// arenaOwnerWhitelist names the struct types sanctioned to own arena
// blocks: the DP's context/state carriers — including the work-stealing
// scheduler's per-layer result arrays (wsLayer) and its ring of layer
// slabs (wsRing), which the engine's releaseAll hands back to the
// ring's arena — and the arena itself.
var arenaOwnerWhitelist = map[string]bool{
	"fsContext": true,
	"dpState":   true,
	"workspace": true,
	"wsLayer":   true,
	"wsRing":    true,
	"Arena":     true,
}

// arenaGets and arenaPuts name the Arena methods that acquire a block
// and put one back.
var (
	arenaGets = []string{"GetU32", "GetSlab"}
	arenaPuts = []string{"PutU32", "PutSlab"}
)

func runArenaOwner(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// The arena's own methods implement the primitives being
			// checked; their free-list pops are not acquisitions.
			if recvNamed(pass, fd) == "Arena" {
				continue
			}
			for _, g := range funcCFGs(fd) {
				checkArenaGraph(pass, g)
			}
		}
	}
	return nil
}

// recvNamed returns the name of fd's receiver type ("" for functions).
func recvNamed(pass *Pass, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return ""
	}
	if tv, ok := pass.TypesInfo.Types[fd.Recv.List[0].Type]; ok {
		return namedTypeName(tv.Type)
	}
	return ""
}

// arenaMethodCall reports whether call is a.<name>(...), for one of
// names, on a receiver whose (possibly pointer) type is named Arena.
func arenaMethodCall(pass *Pass, call *ast.CallExpr, names []string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !slices.Contains(names, sel.Sel.Name) {
		return false
	}
	if tv, ok := pass.TypesInfo.Types[sel.X]; ok {
		return namedTypeName(tv.Type) == "Arena"
	}
	return false
}

// arenaKey identifies one tracked block: the variable bound to the
// GetU32/GetSlab result and the acquisition site. Rebinding the variable
// at a new acquisition kills the old key (a strong update — the variable
// can only hold one block at a time).
type arenaKey struct {
	obj  types.Object
	site token.Pos
}

type arenaFact = map[arenaKey]resState

// arenaFlow is the arenaowner transfer function over one function graph.
type arenaFlow struct {
	pass *Pass
	g    funcGraph
	// escapes collects field-store escape reports found during Apply;
	// Apply runs both under Fixpoint and Replay, so reports are deduped
	// by position and emitted after the replay.
	escapes map[token.Pos]string
}

func (af *arenaFlow) Entry() arenaFact              { return arenaFact{} }
func (af *arenaFlow) Clone(f arenaFact) arenaFact   { return cloneStates(f) }
func (af *arenaFlow) Join(a, b arenaFact) arenaFact { return joinStates(a, b) }
func (af *arenaFlow) Equal(a, b arenaFact) bool     { return equalStates(a, b) }

func (af *arenaFlow) Apply(f arenaFact, n ast.Node) arenaFact {
	switch n := n.(type) {
	case *ast.DeferStmt:
		// Deferred puts run at the exits, not at registration: they are
		// replayed into the exit fact by checkArenaGraph.
		return f
	case *ast.AssignStmt:
		af.applyAssign(f, n)
		return f
	case *ast.ReturnStmt:
		// Any tracked variable appearing in a result expression is handed
		// to the caller.
		for _, e := range n.Results {
			inspectNoLits(e, func(x ast.Node) bool {
				if id, ok := x.(*ast.Ident); ok {
					af.markObjState(f, id, stateEscaped)
				}
				return true
			})
		}
		return f
	}
	inspectNoLits(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			af.applyCall(f, x)
		case *ast.CompositeLit:
			af.applyCompositeLit(f, x)
		case *ast.AssignStmt:
			// Assignments nested inside other nodes (e.g. an if-statement
			// init clause decomposed into the condition node).
			af.applyAssign(f, x)
		}
		return true
	})
	return f
}

// applyAssign handles the statement forms that move block ownership:
// binding a GetU32/GetSlab result to a variable, storing a tracked
// variable into a slice element or struct field, and rebinding.
func (af *arenaFlow) applyAssign(f arenaFact, as *ast.AssignStmt) {
	// Process RHS side effects first (a GetU32/GetSlab in the RHS of a
	// store).
	for _, rhs := range as.Rhs {
		inspectNoLits(rhs, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.CallExpr:
				if !arenaMethodCall(af.pass, x, arenaGets) {
					af.applyCall(f, x)
				}
			case *ast.CompositeLit:
				af.applyCompositeLit(f, x)
			}
			return true
		})
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		lhs := as.Lhs[i]
		if call, ok := rhs.(*ast.CallExpr); ok && arenaMethodCall(af.pass, call, arenaGets) {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				if obj := af.identObj(id); obj != nil {
					// Strong update: the variable now holds the new block.
					for k := range f {
						if k.obj == obj {
							delete(f, k)
						}
					}
					f[arenaKey{obj: obj, site: call.Pos()}] = stateHeld
					continue
				}
			}
			// Acquired straight into a slot: the container owns it.
			af.checkStoreTarget(f, lhs, call.Pos())
			continue
		}
		// Storing a tracked variable (or an expression mentioning one)
		// into a slot transfers — or escapes — that block.
		if id, ok := rhs.(*ast.Ident); ok {
			if obj := af.identObj(id); obj != nil && af.tracked(f, obj) {
				if _, isIdent := lhs.(*ast.Ident); isIdent {
					// Aliasing (y := x): the alias may outlive our
					// tracking; treat as a transfer to stay quiet rather
					// than chase alias sets.
					af.markObjState(f, id, stateEscaped)
					continue
				}
				af.checkStoreTarget(f, lhs, 0)
				af.markObjState(f, id, stateEscaped)
			}
		}
	}
}

// checkStoreTarget judges an assignment target receiving a block. Slice
// element stores are transfers (table storage); field stores are checked
// against the ownership whitelist and reported when the owner is not
// sanctioned. pos anchors the report (0 = at the target).
func (af *arenaFlow) checkStoreTarget(f arenaFact, lhs ast.Expr, pos token.Pos) {
	base := lhs
	for {
		ix, ok := base.(*ast.IndexExpr)
		if !ok {
			break
		}
		base = ix.X
	}
	sel, ok := base.(*ast.SelectorExpr)
	if !ok {
		// Element of a local slice (tables[r] = dst): sanctioned table
		// storage.
		return
	}
	if tv, ok := af.pass.TypesInfo.Types[sel.X]; ok {
		name := namedTypeName(tv.Type)
		if arenaOwnerWhitelist[name] {
			return
		}
		at := pos
		if at == 0 {
			at = lhs.Pos()
		}
		af.escapes[at] = "arena block stored into field " + exprText(lhs) + " of " + name +
			": outside the fsContext/dpState/workspace/wsLayer/wsRing ownership whitelist, " +
			"the block can never be recycled (annotate with //lint:allow arenaowner <why> if sanctioned)"
	}
}

// applyCall handles PutU32/PutSlab (release) and tracked variables passed
// to other calls: passing a block to a callee transfers responsibility
// (recycle helpers, kernels that retain it) only when the callee is a
// Put; otherwise the block is merely borrowed and stays held.
func (af *arenaFlow) applyCall(f arenaFact, call *ast.CallExpr) {
	if arenaMethodCall(af.pass, call, arenaPuts) && len(call.Args) == 1 {
		if id, ok := call.Args[0].(*ast.Ident); ok {
			af.markObjState(f, id, stateReleased)
		}
	}
}

// applyCompositeLit transfers tracked variables used as composite-literal
// values, checking struct literals against the whitelist.
func (af *arenaFlow) applyCompositeLit(f arenaFact, lit *ast.CompositeLit) {
	var anyTracked []*ast.Ident
	for _, elt := range lit.Elts {
		v := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			v = kv.Value
		}
		if id, ok := v.(*ast.Ident); ok {
			if obj := af.identObj(id); obj != nil && af.tracked(f, obj) {
				anyTracked = append(anyTracked, id)
			}
		}
	}
	if len(anyTracked) == 0 {
		return
	}
	name := ""
	if tv, ok := af.pass.TypesInfo.Types[lit]; ok {
		name = namedTypeName(tv.Type)
	}
	if name != "" && !arenaOwnerWhitelist[name] {
		if _, isStruct := structUnder(af.pass, lit); isStruct {
			af.escapes[lit.Pos()] = "arena block stored into a " + name + " literal: outside the " +
				"fsContext/dpState/workspace/wsLayer/wsRing ownership whitelist, the block can never be " +
				"recycled (annotate with //lint:allow arenaowner <why> if sanctioned)"
		}
	}
	for _, id := range anyTracked {
		af.markObjState(f, id, stateEscaped)
	}
}

// structUnder reports whether lit's type is (a pointer to) a struct.
func structUnder(pass *Pass, lit *ast.CompositeLit) (*types.Struct, bool) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok || tv.Type == nil {
		return nil, false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// markObjState moves every key of id's object out of Held into state.
func (af *arenaFlow) markObjState(f arenaFact, id *ast.Ident, state resState) {
	obj := af.identObj(id)
	if obj == nil {
		return
	}
	for k, s := range f {
		if k.obj == obj && s.mayBeHeld() {
			f[k] = (s &^ stateHeld) | state
		}
	}
}

func (af *arenaFlow) identObj(id *ast.Ident) types.Object {
	if obj := af.pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return af.pass.TypesInfo.Defs[id]
}

func (af *arenaFlow) tracked(f arenaFact, obj types.Object) bool {
	for k := range f {
		if k.obj == obj {
			return true
		}
	}
	return false
}

// checkArenaGraph runs the fixpoint over one function graph and reports
// definite leaks at returns plus field-store escapes.
func checkArenaGraph(pass *Pass, g funcGraph) {
	af := &arenaFlow{pass: pass, g: g, escapes: map[token.Pos]string{}}
	sol := Fixpoint[arenaFact](g.cfg, af)
	reported := map[token.Pos]bool{}
	ReplayFacts[arenaFact](g.cfg, af, sol, func(f arenaFact, n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		eff := af.Clone(f)
		eff = af.Apply(eff, ret)
		for _, d := range g.cfg.Defers {
			applyDeferredArenaPuts(pass, af, eff, d)
		}
		var leaks []arenaKey
		for k, s := range eff {
			if s.mayBeHeld() && s&(stateReleased|stateEscaped) == 0 {
				leaks = append(leaks, k)
			}
		}
		if len(leaks) == 0 {
			return
		}
		sort.Slice(leaks, func(i, j int) bool { return leaks[i].site < leaks[j].site })
		k := leaks[0]
		if reported[ret.Pos()] {
			return
		}
		reported[ret.Pos()] = true
		pass.Reportf(ret.Pos(),
			"return path in %s leaks the arena block %q obtained at line %d: every path — including "+
				"ErrCanceled/ErrBudgetExceeded exits — must PutU32/PutSlab the block back or transfer it "+
				"into table storage or the return value",
			g.name, k.obj.Name(), pass.Fset.Position(k.site).Line)
	})
	var escPos []token.Pos
	for p := range af.escapes {
		escPos = append(escPos, p)
	}
	sort.Slice(escPos, func(i, j int) bool { return escPos[i] < escPos[j] })
	for _, p := range escPos {
		pass.Reportf(p, "%s", af.escapes[p])
	}
}

// applyDeferredArenaPuts replays PutU32/PutSlab calls a defer performs
// (directly or inside a deferred closure) into the exit fact.
func applyDeferredArenaPuts(pass *Pass, af *arenaFlow, f arenaFact, d *ast.DeferStmt) {
	ast.Inspect(d, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok && arenaMethodCall(pass, call, arenaPuts) && len(call.Args) == 1 {
			if id, ok := call.Args[0].(*ast.Ident); ok {
				af.markObjState(f, id, stateReleased)
			}
		}
		return true
	})
}
