package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The lifecycle engine: a reusable per-path obligation checker extracted
// from spanend's original liveness walk. An *acquire* (a call the spec's
// matcher recognizes) creates an obligation on the enclosing function; a
// *release* (another matched call) discharges it; the engine walks the
// function's statement paths — if/switch/select/for, early returns,
// terminal calls — and reports every path on which the obligation is
// still open where the spec says it must not be.
//
// The engine is deliberately a lightweight path walk, not a full CFG:
// goto is not modeled, loops are scanned once (twice with loop-carry),
// and conditions are opaque except for the two refinements below. That
// is the same trade spanend always made, now shared:
//
//   - nil-guard refinement (spec.nilGuards): inside `v == nil` (or the
//     implicit else of `v != nil`) the resource is statically nil and
//     the obligation vacuous — Active methods and refunds are nil-safe.
//     Guards on the resource's origin (`if root != nil` for
//     sp := root.Child(...)) refine the same way.
//   - error-guard refinement (spec.errGuards): for acquires of the form
//     `v, err := acquire(...)`, inside `err != nil` the acquire itself
//     failed and created no obligation. The refinement dies the moment
//     err is reassigned (the guard then tests a later call's outcome).
//
// Two obligation disciplines are supported:
//
//   - all paths (spanend): the resource must be released on every path
//     out of the function — return, fall-off-the-end, or (without
//     loop-carry) the end of the loop iteration that acquired it.
//   - error returns only (caprefund): the obligation fires only on
//     returns whose error slot provably carries an error (an error-typed
//     identifier or an explicit error-constructor call — a tuple-forward
//     like `return g.settle(...)` is treated as the success path,
//     whose consumer legitimately keeps the charge).
//
// Hand-off is the escape hatch in both disciplines: a deferred release,
// a release inside any function literal (the closure or goroutine that
// will complete the work owns the obligation from the point the literal
// appears), or — when the spec provides an escape classifier — any use
// of the bound variable that leaves the function (returned, passed,
// captured, stored). Escaped obligations are the new owner's problem,
// checked where that owner lives.

// lifeKind classifies how an obligation was left open.
type lifeKind int

const (
	// lifeDiscarded: the acquire's result was not bound at all.
	lifeDiscarded lifeKind = iota
	// lifeReturn: still open at a return statement.
	lifeReturn
	// lifeFallOff: still open when the function body runs out.
	lifeFallOff
	// lifeLoopEnd: acquired inside a loop body and still open at the end
	// of the iteration (only without loop-carry).
	lifeLoopEnd
	// lifeCarried: a loop-carried obligation from an earlier iteration is
	// open at an error return (only with loop-carry).
	lifeCarried
)

// lifeAcquire describes one recognized acquisition.
type lifeAcquire struct {
	// obj is the variable the resource was bound to; nil when the
	// binding is blank or the matcher tracks the obligation positionally.
	obj types.Object
	// origin is the receiver the resource was derived from (root in
	// root.Child(...)); nil-guard refinement applies to it too.
	origin types.Object
	// errObj is the error bound alongside the acquire, for error-guard
	// refinement; nil when the acquire returns no error.
	errObj types.Object
	// discard marks an acquire whose result was dropped on the floor.
	discard bool
}

// lifeVar is one tracked obligation within a function scope.
type lifeVar struct {
	lifeAcquire
	scope funcScope
	start *ast.AssignStmt // the binding statement, nil for unbound acquires
	stmt  ast.Stmt        // the statement containing the acquire
	pos   token.Pos       // the acquire call position
}

// lifeSpec parameterizes the engine for one analyzer.
type lifeSpec struct {
	// acquire classifies a call; parent is the innermost enclosing node
	// (ExprStmt, AssignStmt, ...). Return nil for "not an acquire".
	acquire func(p *Pass, call *ast.CallExpr, parent ast.Node) *lifeAcquire
	// isRelease reports whether a call discharges v's obligation.
	isRelease func(info *types.Info, call *ast.CallExpr, v *lifeVar) bool
	// useIsLocal classifies one identifier occurrence of v.obj: true
	// keeps the obligation local, false means ownership escapes and the
	// check is skipped. nil disables escape analysis.
	useIsLocal func(id *ast.Ident, stack []ast.Node) bool
	// closureRelease: a function literal containing a release acts as a
	// hand-off at the statement where the literal appears (the closure
	// or goroutine now owns the obligation).
	closureRelease bool
	// nilGuards enables nil-comparison path refinement on obj/origin.
	nilGuards bool
	// errGuards enables error-binding path refinement at the acquire.
	errGuards bool
	// errReturnsOnly restricts the obligation to error-carrying returns.
	errReturnsOnly bool
	// loopCarry accumulates obligations across loop iterations instead
	// of demanding per-iteration release.
	loopCarry bool
	// report renders one open obligation.
	report func(p *Pass, v *lifeVar, pos token.Pos, kind lifeKind)
}

// runLifecycle applies one spec to every function scope in the unit.
func runLifecycle(pass *Pass, spec *lifeSpec) {
	for _, file := range pass.Files() {
		for _, scope := range funcScopes(file) {
			lifecycleScope(pass, spec, scope)
		}
	}
}

// lifecycleScope finds this scope's acquires and checks each one.
func lifecycleScope(pass *Pass, spec *lifeSpec, scope funcScope) {
	var vars []*lifeVar
	walkStack(scope.body, func(n ast.Node, stack []ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // nested literals are their own scopes
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var parent ast.Node
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		acq := spec.acquire(pass, call, parent)
		if acq == nil {
			return true
		}
		v := &lifeVar{lifeAcquire: *acq, scope: scope, pos: call.Pos()}
		if as, ok := parent.(*ast.AssignStmt); ok {
			v.start = as
			v.stmt = as
		} else if es, ok := parent.(*ast.ExprStmt); ok {
			v.stmt = es
		}
		if acq.discard {
			spec.report(pass, v, call.Pos(), lifeDiscarded)
			return true
		}
		vars = append(vars, v)
		return true
	})
	for _, v := range vars {
		lifecycleVar(pass, spec, scope, v)
	}
}

// lifecycleVar runs escape/defer pre-analysis and then the path walk for
// one tracked obligation.
func lifecycleVar(pass *Pass, spec *lifeSpec, scope funcScope, v *lifeVar) {
	info := pass.Info()
	escaped := false
	deferred := false

	walkStack(scope.body, func(n ast.Node, stack []ast.Node) bool {
		if escaped {
			return false
		}
		if d, ok := n.(*ast.DeferStmt); ok {
			if deferReleases(info, spec, d, v) {
				deferred = true
			}
		}
		if spec.useIsLocal == nil || v.obj == nil {
			return true
		}
		id, ok := n.(*ast.Ident)
		if !ok || (info.Uses[id] != v.obj && info.Defs[id] != v.obj) {
			return true
		}
		if !spec.useIsLocal(id, stack) {
			escaped = true
		}
		return true
	})
	if escaped || deferred {
		return
	}

	f := &lifeFlow{pass: pass, spec: spec, info: info, v: v, seen: map[reportKey]bool{}}
	st, terminated := f.scan(scope.body.List, lifeState{errValid: true})
	if !terminated && st.open() && !spec.errReturnsOnly {
		f.report(v.pos, lifeFallOff)
	}
}

// deferReleases reports whether the defer discharges v — directly
// (defer sp.End()) or inside a deferred closure.
func deferReleases(info *types.Info, spec *lifeSpec, d *ast.DeferStmt, v *lifeVar) bool {
	if spec.isRelease(info, d.Call, v) {
		return true
	}
	lit, ok := d.Call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	return closureReleases(info, spec, lit, v)
}

// closureReleases reports whether a function literal contains a release
// of v anywhere in its body.
func closureReleases(info *types.Info, spec *lifeSpec, lit *ast.FuncLit, v *lifeVar) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && spec.isRelease(info, call, v) {
			found = true
		}
		return !found
	})
	return found
}

// lifeState is the per-path obligation state, passed by value through
// the walk so branches refine independently.
type lifeState struct {
	// fresh: the acquire on this path succeeded and is undischarged.
	fresh bool
	// carried: an obligation accumulated from an earlier loop iteration.
	carried bool
	// errValid: the acquire's error binding has not been reassigned, so
	// error guards still refine the acquire's own outcome.
	errValid bool
}

func (s lifeState) open() bool { return s.fresh || s.carried }

func (s lifeState) closed() lifeState {
	s.fresh, s.carried = false, false
	return s
}

type reportKey struct {
	pos  token.Pos
	kind lifeKind
}

// lifeFlow walks statement lists tracking the obligation state.
type lifeFlow struct {
	pass *Pass
	spec *lifeSpec
	info *types.Info
	v    *lifeVar
	seen map[reportKey]bool
}

func (f *lifeFlow) report(pos token.Pos, kind lifeKind) {
	key := reportKey{pos, kind}
	if f.seen[key] {
		return
	}
	f.seen[key] = true
	f.spec.report(f.pass, f.v, pos, kind)
}

// scan processes one statement list. It returns the state after the
// list and whether every path through it terminated (returned, exited).
func (f *lifeFlow) scan(stmts []ast.Stmt, st lifeState) (lifeState, bool) {
	for _, s := range stmts {
		var terminated bool
		st, terminated = f.stmt(s, st)
		if terminated {
			return st, true
		}
	}
	return st, false
}

func (f *lifeFlow) stmt(s ast.Stmt, st lifeState) (lifeState, bool) {
	// A function literal that releases is a hand-off: from here on the
	// closure (a completion goroutine, a stored callback) owns the
	// obligation.
	if f.spec.closureRelease && f.handsOffToClosure(s) {
		return st.closed(), false
	}
	switch stmt := s.(type) {
	case *ast.AssignStmt:
		if stmt == f.v.start {
			st.fresh = true
			st.errValid = f.v.errObj != nil
			return st, false
		}
		if f.v.errObj != nil && assignsObj(f.info, stmt, f.v.errObj) {
			st.errValid = false
		}
		return st, false
	case *ast.ExprStmt:
		if stmt == f.v.stmt {
			// An unbound acquire tracked by statement identity (no
			// variable, no error binding to refine on).
			st.fresh, st.errValid = true, false
			return st, false
		}
		call, ok := stmt.X.(*ast.CallExpr)
		if !ok {
			return st, false
		}
		if f.spec.isRelease(f.info, call, f.v) {
			return st.closed(), false
		}
		if isTerminalCall(f.info, call) {
			return st, true
		}
		return st, false
	case *ast.ReturnStmt:
		if st.open() && (!f.spec.errReturnsOnly || isErrorReturn(f.info, stmt)) {
			kind := lifeReturn
			if !st.fresh && st.carried {
				kind = lifeCarried
			}
			f.report(stmt.Pos(), kind)
		}
		return st.closed(), true
	case *ast.BranchStmt:
		// break/continue/goto leave this list; treat as terminating it.
		return st, true
	case *ast.BlockStmt:
		return f.scan(stmt.List, st)
	case *ast.LabeledStmt:
		return f.stmt(stmt.Stmt, st)
	case *ast.IfStmt:
		return f.ifStmt(stmt, st)
	case *ast.ForStmt:
		return f.loop(stmt.Body, stmt.Cond == nil, st)
	case *ast.RangeStmt:
		return f.loop(stmt.Body, false, st)
	case *ast.SwitchStmt:
		return f.clauses(caseBodies(stmt.Body), hasDefaultClause(stmt.Body), st)
	case *ast.TypeSwitchStmt:
		return f.clauses(caseBodies(stmt.Body), hasDefaultClause(stmt.Body), st)
	case *ast.SelectStmt:
		// A select always executes exactly one of its clauses.
		return f.clauses(commBodies(stmt.Body), true, st)
	default:
		return st, false
	}
}

// handsOffToClosure reports whether the statement contains a function
// literal that releases v (the closure takes the obligation with it).
// Deferred closures are already handled by the pre-scan; goroutines,
// assignments, and arguments land here.
func (f *lifeFlow) handsOffToClosure(s ast.Stmt) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			if closureReleases(f.info, f.spec, lit, f.v) {
				found = true
			}
			return false
		}
		return !found
	})
	return found
}

// assignsObj reports whether the assignment rebinds obj.
func assignsObj(info *types.Info, as *ast.AssignStmt, obj types.Object) bool {
	for _, lhs := range as.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if info.Defs[id] == obj || info.Uses[id] == obj {
				return true
			}
		}
	}
	return false
}

// guardKind classifies an if condition relative to the tracked resource:
// +1 for "x != nil", -1 for "x == nil", 0 for unrelated, where x is the
// resource or its origin. On the nil side the resource is nil and the
// obligation vacuous.
func (f *lifeFlow) guardKind(cond ast.Expr) int {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || !isNilComparison(b) {
		return 0
	}
	other := b.X
	if id, ok := ast.Unparen(b.X).(*ast.Ident); ok && id.Name == "nil" {
		other = b.Y
	}
	id, ok := ast.Unparen(other).(*ast.Ident)
	if !ok {
		return 0
	}
	obj := f.info.Uses[id]
	if obj == nil {
		return 0
	}
	if (f.v.obj == nil || obj != f.v.obj) && (f.v.origin == nil || obj != f.v.origin) {
		return 0
	}
	if b.Op == token.NEQ {
		return 1
	}
	return -1
}

// errGuardKind classifies an if condition against the acquire's error
// binding: +1 for "err != nil" (the acquire failed on the then side),
// -1 for "err == nil", 0 for unrelated.
func (f *lifeFlow) errGuardKind(cond ast.Expr, st lifeState) int {
	if f.v.errObj == nil || !st.errValid {
		return 0
	}
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || !isNilComparison(b) {
		return 0
	}
	other := b.X
	if id, ok := ast.Unparen(b.X).(*ast.Ident); ok && id.Name == "nil" {
		other = b.Y
	}
	id, ok := ast.Unparen(other).(*ast.Ident)
	if !ok || f.info.Uses[id] != f.v.errObj {
		return 0
	}
	if b.Op == token.NEQ {
		return 1
	}
	return -1
}

func (f *lifeFlow) ifStmt(stmt *ast.IfStmt, st lifeState) (lifeState, bool) {
	if stmt.Init != nil {
		st, _ = f.stmt(stmt.Init, st)
	}

	thenEntry, elseEntry := st, st
	if f.spec.nilGuards {
		// Path refinement: inside "x == nil" (or the implicit else of
		// "x != nil") the resource is statically nil — the obligation is
		// vacuous there.
		switch f.guardKind(stmt.Cond) {
		case -1:
			thenEntry = thenEntry.closed()
		case 1:
			elseEntry = elseEntry.closed()
		}
	}
	if f.spec.errGuards {
		// Inside "err != nil" the acquire itself failed: no fresh
		// obligation exists there (a carried one persists).
		switch f.errGuardKind(stmt.Cond, st) {
		case 1:
			thenEntry.fresh = false
		case -1:
			elseEntry.fresh = false
		}
	}

	thenOut, thenTerm := f.scan(stmt.Body.List, thenEntry)
	elseOut, elseTerm := elseEntry, false
	if stmt.Else != nil {
		elseOut, elseTerm = f.stmt(stmt.Else, elseEntry)
	}

	if thenTerm && elseTerm {
		return st.closed(), true
	}
	out := st.closed()
	out.errValid = false
	if !thenTerm {
		out.fresh = out.fresh || thenOut.fresh
		out.carried = out.carried || thenOut.carried
		out.errValid = out.errValid || thenOut.errValid
	}
	if !elseTerm {
		out.fresh = out.fresh || elseOut.fresh
		out.carried = out.carried || elseOut.carried
		out.errValid = out.errValid || elseOut.errValid
	}
	return out, false
}

// loop scans a loop body. Without loop-carry, a resource acquired inside
// the body must be discharged by the end of the iteration (the next
// iteration rebinds it); with loop-carry, undischarged acquisitions
// accumulate and the body is scanned once more with the obligation
// carried, so error returns in later iterations see the earlier
// iterations' charge. A resource already live from outside stays live,
// since the body may run zero times.
func (f *lifeFlow) loop(body *ast.BlockStmt, infinite bool, st lifeState) (lifeState, bool) {
	bodyOut, _ := f.scan(body.List, st)
	if bodyOut.open() && !st.open() {
		if f.spec.loopCarry {
			carry := st
			carry.carried = true
			f.scan(body.List, carry)
		} else {
			f.report(f.v.pos, lifeLoopEnd)
		}
	}
	if infinite && !loopBreaks(body) {
		return st.closed(), true
	}
	return st, false
}

func (f *lifeFlow) clauses(bodies [][]ast.Stmt, exhaustive bool, st lifeState) (lifeState, bool) {
	out := st.closed()
	out.errValid = false
	allTerminated := true
	for _, b := range bodies {
		clauseOut, t := f.scan(b, st)
		if !t {
			allTerminated = false
			out.fresh = out.fresh || clauseOut.fresh
			out.carried = out.carried || clauseOut.carried
			out.errValid = out.errValid || clauseOut.errValid
		}
	}
	if !exhaustive {
		// No default: the no-match path continues with state unchanged.
		allTerminated = false
		out.fresh = out.fresh || st.fresh
		out.carried = out.carried || st.carried
		out.errValid = out.errValid || st.errValid
	}
	if allTerminated {
		return st.closed(), true
	}
	return out, false
}

// isErrorReturn reports whether a return statement provably carries an
// error: some result expression of error type is an identifier,
// selector, or explicit error-constructing call — but not the nil
// literal, and not a multi-result tuple forward (`return f(x)` where f's
// error outcome is unknown; that is the consumer's success path).
func isErrorReturn(info *types.Info, ret *ast.ReturnStmt) bool {
	for _, res := range ret.Results {
		res = ast.Unparen(res)
		tv, ok := info.Types[res]
		if !ok || tv.Type == nil || !isErrorType(tv.Type) {
			continue
		}
		switch e := res.(type) {
		case *ast.Ident:
			if e.Name != "nil" {
				return true
			}
		case *ast.SelectorExpr:
			return true
		case *ast.CallExpr:
			// A call whose own type is `error` explicitly constructs the
			// error being returned (errs.Wrapf, wire.Faultf, ...).
			return true
		}
	}
	return false
}

// ---- shared control-flow helpers (used by the engine and golife) ----

// loopBreaks reports whether the loop body contains a break that exits
// it (shallow: nested loops/switches own their breaks).
func loopBreaks(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch inner := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
			return false
		case *ast.BranchStmt:
			if inner.Tok == token.BREAK {
				found = true
			}
		}
		return !found
	})
	return found
}

func caseBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, s := range body.List {
		if cc, ok := s.(*ast.CaseClause); ok {
			out = append(out, cc.Body)
		}
	}
	return out
}

func commBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, s := range body.List {
		if cc, ok := s.(*ast.CommClause); ok {
			out = append(out, cc.Body)
		}
	}
	return out
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, s := range body.List {
		if cc, ok := s.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// isTerminalCall recognizes calls that do not return: panic, os.Exit,
// runtime.Goexit, and testing's Fatal/FailNow/Skip family.
func isTerminalCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
	case *ast.SelectorExpr:
		f, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok {
			return false
		}
		switch funcPkgPath(f) {
		case "os":
			return f.Name() == "Exit"
		case "runtime":
			return f.Name() == "Goexit"
		case "testing":
			switch f.Name() {
			case "Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow":
				return true
			}
		}
	}
	return false
}

func isNilComparison(b *ast.BinaryExpr) bool {
	if b.Op != token.EQL && b.Op != token.NEQ {
		return false
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return isNil(b.X) || isNil(b.Y)
}
