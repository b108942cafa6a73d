package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CapRefund enforces the paper's capability refund contract: a
// capability charge — a `Process` call on the client's walk, an
// `Unprocess` call on the server's, or a whole-chain `wrapRequest` —
// must be handed back through a Refunder on every error return. A
// request that a chain rejects must cost nothing on the side that walked
// it: the client mirrors are charged at issue time, so any path that
// errors out before the server could have executed must refund, or every
// failover retry double-charges the mirror and quota drifts toward
// denying early; the server's authorities are charged as the request is
// un-processed, so a reject further down the reverse walk must refund
// them, or a request that never executed spends the server's budget.
//
// The check runs on the shared lifecycle engine in error-return mode:
// a matched acquire opens an obligation, any call whose name contains
// "refund" (the glue chain's refund, Refunder.Refund) discharges
// it, and only returns that provably carry an error are checked — a
// success return keeps the charge by design (the server executed), and
// so does a tuple-forwarding `return g.settle(...)`, which owns the
// refund of the attempt it settles.
// Charges accumulated across loop iterations are carried: an error
// return in iteration i must also refund the iterations before it (the
// chain-prefix bug this analyzer exists to catch, and its suffix twin on
// the reverse walk). A refund inside a
// function literal — a completion goroutine, a pending's resolution
// callback — counts as a hand-off at the point the literal appears.
//
// Error guards refine paths: inside `if err != nil` on the acquire's
// own error binding, the acquire itself failed and charged nothing.
// Test files are exempt (they exercise failure paths deliberately).
var CapRefund = &Analyzer{
	Name: "caprefund",
	Doc:  "capability quota/ratelimit charges must be refunded on every error return",
	Run:  runCapRefund,
}

func runCapRefund(pass *Pass) {
	if pass.Unit.Test {
		return
	}
	for _, file := range pass.Files() {
		if strings.HasSuffix(pass.Fset().Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, scope := range funcScopes(file) {
			lifecycleScope(pass, &lifeSpec{
				acquire:        capAcquire,
				isRelease:      capRelease,
				closureRelease: true,
				errGuards:      true,
				errReturnsOnly: true,
				loopCarry:      true,
				report:         capReport,
			}, scope)
		}
	}
}

// capAcquire recognizes a capability charge: a call to the chain's
// Process or Unprocess (the capability.Capability interface methods or
// any declared in internal/capability) or to a wrapRequest helper that
// runs a whole chain. The charge has no handle object — the obligation is
// positional — but the error binding, when present, feeds the error-
// guard refinement.
func capAcquire(pass *Pass, call *ast.CallExpr, parent ast.Node) *lifeAcquire {
	f := calleeFunc(pass.Info(), call)
	if f == nil || !pathHasSuffix(funcPkgPath(f), "internal/capability") {
		return nil
	}
	switch f.Name() {
	case "Process", "Unprocess", "wrapRequest":
	default:
		return nil
	}
	acq := &lifeAcquire{}
	if as, ok := parent.(*ast.AssignStmt); ok {
		acq.errObj = errBinding(pass.Info(), as)
	}
	return acq
}

// errBinding returns the object bound to the assignment's error-typed
// result, if exactly one identifier on the left has type error.
func errBinding(info *types.Info, as *ast.AssignStmt) types.Object {
	var found types.Object
	for _, lhs := range as.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil || obj.Type() == nil || !isErrorType(obj.Type()) {
			continue
		}
		if found != nil {
			return nil
		}
		found = obj
	}
	return found
}

// capRelease matches any statically resolvable call whose name contains
// "refund" (case-insensitive): Refunder.Refund, the glue chain's refund,
// and test doubles alike.
func capRelease(info *types.Info, call *ast.CallExpr, _ *lifeVar) bool {
	f := calleeFunc(info, call)
	return f != nil && strings.Contains(strings.ToLower(f.Name()), "refund")
}

func capReport(p *Pass, v *lifeVar, pos token.Pos, kind lifeKind) {
	switch kind {
	case lifeReturn:
		p.Reportf(pos, "capability charge is not refunded on this error return: route it through a Refunder before returning")
	case lifeCarried:
		p.Reportf(pos, "capability charges from earlier loop iterations are not refunded on this error return: refund the part of the chain already walked")
	}
}
