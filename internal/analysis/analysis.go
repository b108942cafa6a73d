// Package analysis is the project's own static-analyzer suite: a small,
// dependency-free driver (go/parser + go/types with the source importer)
// plus the analyzers that machine-check the contracts the runtime's
// correctness arguments rest on.
//
// The paper's position is that opening the ORB's internals is safe only
// while the open parts obey strict contracts — ordered protocol tables,
// capability chains that always un-process, instrumentation that costs
// nothing when off. The codebase grew the same kind of contracts:
// injected clocks so fault suites are deterministic, span begin/end
// pairing so traces stay connected, quota refunds on failure, no
// blocking while a mutex is held on mux/pool paths. All of them regress
// silently in review; each analyzer here encodes one of them so `make
// lint` catches the regression instead.
//
// The analyzers:
//
//   - nosleep:     time.Sleep/time.After/time.NewTimer outside
//     internal/clock (tests included) — use the injected clock.
//   - lockedblock: no channel operation, Invoke*, net.Conn write/read,
//     or clock wait between an explicit mu.Lock() and its Unlock().
//   - spanend:     every obs span started in a function ends on all
//     return paths (or is deferred, or ownership escapes).
//   - checkederr:  wire encode/decode, transport send/close, and
//     capability process/unprocess errors may not be discarded.
//   - ctxflow:     exported *Ctx functions must thread their context
//     into callees — no context.Background(), no dropping into a
//     non-Ctx sibling.
//   - codederr:    errors are built with the errs constructors so they
//     carry a taxonomy code — no naked fmt.Errorf outside internal/errs
//     (test files exempt).
//   - golife:      every goroutine spawned outside tests has a provable
//     exit path — no infinite loop without a return/break/terminal, no
//     empty select{}.
//   - lockorder:   nested mutex acquisitions must follow the edges
//     declared in lockorder.manifest; inversions of declared edges are
//     deadlock-capable cycles.
//   - caprefund:   a capability quota/ratelimit charge (Process,
//     Unprocess or wrapRequest) is refunded on every error return.
//
// spanend, golife's sibling caprefund, and any future ownership check
// share the lifecycle engine in lifecycle.go: acquire-site detection,
// per-path release obligations, escape/hand-off and defer handling,
// and nil/error-guard path refinement, parameterized by matchers.
//
// Deliberate violations are suppressed per line with
//
//	//lint:ignore <analyzer>[,<analyzer>|all] <reason>
//
// on, or immediately above, the offending line. The reason is
// mandatory. When the full suite runs, a directive that suppresses
// nothing is itself reported (as staleignore): delete suppressions
// that have outlived their violation.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"time"

	"openhpcxx/internal/errs"
)

// Diagnostic is one finding, formatted by the driver as
// "file:line:col: [analyzer] message".
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one project-invariant check.
type Analyzer struct {
	// Name keys -only/-skip selection and //lint:ignore suppression.
	Name string
	// Doc is a one-line description for the driver's -list output.
	Doc string
	// Run inspects one type-checked unit and reports through the pass.
	Run func(*Pass)
}

// Pass hands one analyzer one type-checked unit.
type Pass struct {
	Analyzer *Analyzer
	Unit     *Unit
	report   func(Diagnostic)
}

// Fset returns the unit's file set.
func (p *Pass) Fset() *token.FileSet { return p.Unit.Fset }

// Files returns the unit's syntax trees.
func (p *Pass) Files() []*ast.File { return p.Unit.Files }

// Pkg returns the unit's type-checked package.
func (p *Pass) Pkg() *types.Package { return p.Unit.Pkg }

// Info returns the unit's type information.
func (p *Pass) Info() *types.Info { return p.Unit.Info }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Unit.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All lists every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{NoSleep, LockedBlock, SpanEnd, CheckedErr, CtxFlow, CodedErr, GoLife, LockOrder, CapRefund}
}

// ByName resolves a comma-separated analyzer list ("nosleep,spanend").
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, errs.Newf(errs.Config, "analysis: unknown analyzer %q", n)
		}
	}
	return out, nil
}

// Select filters All() down by -only / -skip expressions (either may be
// empty; -only wins over -skip).
func Select(only, skip string) ([]*Analyzer, error) {
	if only != "" {
		return ByName(only)
	}
	skipped, err := ByName(skip)
	if err != nil {
		return nil, err
	}
	var out []*Analyzer
	for _, a := range All() {
		drop := false
		for _, s := range skipped {
			if s == a {
				drop = true
			}
		}
		if !drop {
			out = append(out, a)
		}
	}
	return out, nil
}

// Timing is one analyzer's cumulative wall time across all units.
type Timing struct {
	Name     string
	Duration time.Duration
}

// StaleIgnoreName is the pseudo-analyzer stale-suppression findings are
// reported under. It has no Run function and is not in All(): the
// driver itself emits these, and only when the full suite ran — a
// partial -only/-skip run cannot tell "the directive is stale" from
// "the analyzer it mutes didn't run".
const StaleIgnoreName = "staleignore"

// Run executes the analyzers over the units, applies //lint:ignore
// suppressions, and returns the surviving findings sorted by position.
// When the run includes every analyzer in All(), a //lint:ignore that
// suppressed nothing is itself reported (as staleignore): a suppression
// that has outlived its violation hides nothing today and a real
// finding tomorrow.
func Run(units []*Unit, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunTimed(units, analyzers)
	return diags
}

// RunTimed is Run plus per-analyzer cumulative wall time, for the
// driver's -v output.
func RunTimed(units []*Unit, analyzers []*Analyzer) ([]Diagnostic, []Timing) {
	var diags []Diagnostic
	elapsed := map[string]time.Duration{}
	full := runsFullSuite(analyzers)
	for _, u := range units {
		sup := suppressions(u)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Unit: u}
			pass.report = func(d Diagnostic) {
				if !sup.covers(d) {
					diags = append(diags, d)
				}
			}
			start := time.Now()
			a.Run(pass)
			elapsed[a.Name] += time.Since(start)
		}
		if full {
			for _, dir := range sup.list {
				if !dir.used {
					diags = append(diags, Diagnostic{
						Pos:      dir.pos,
						Analyzer: StaleIgnoreName,
						Message: fmt.Sprintf("stale suppression: no %s finding fires here anymore — delete this //lint:ignore (reason was: %s)",
							strings.Join(dir.names, ","), dir.reason),
					})
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	var timings []Timing
	for _, a := range analyzers {
		timings = append(timings, Timing{Name: a.Name, Duration: elapsed[a.Name]})
	}
	return diags, timings
}

// runsFullSuite reports whether the analyzer set covers all of All(),
// which is what arms stale-suppression detection.
func runsFullSuite(analyzers []*Analyzer) bool {
	have := map[string]bool{}
	for _, a := range analyzers {
		have[a.Name] = true
	}
	for _, a := range All() {
		if !have[a.Name] {
			return false
		}
	}
	return true
}

// Ignore is one //lint:ignore directive, for the driver's -ignores
// inventory mode.
type Ignore struct {
	Pos    token.Position `json:"-"`
	File   string         `json:"file"`
	Line   int            `json:"line"`
	Names  []string       `json:"analyzers"`
	Reason string         `json:"reason"`
}

// Ignores lists every //lint:ignore directive in the units, in position
// order.
func Ignores(units []*Unit) []Ignore {
	var out []Ignore
	for _, u := range units {
		for _, dir := range suppressions(u).list {
			out = append(out, Ignore{
				Pos:    dir.pos,
				File:   dir.pos.Filename,
				Line:   dir.pos.Line,
				Names:  dir.names,
				Reason: dir.reason,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// ---- shared type/AST helpers ----

// pathHasSuffix reports whether an import path is, or ends with, the
// given slash-separated suffix ("internal/clock" matches both
// "openhpcxx/internal/clock" and a golden-corpus "x/internal/clock").
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// calleeFunc resolves the *types.Func a call statically invokes
// (package function, method, or interface method); nil for builtins,
// type conversions, and indirect calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	case *ast.IndexExpr: // generic instantiation F[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			if f, ok := info.Uses[id].(*types.Func); ok {
				return f
			}
		}
	case *ast.IndexListExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			if f, ok := info.Uses[id].(*types.Func); ok {
				return f
			}
		}
	}
	return nil
}

// funcPkgPath returns the declaring package path of f ("" for builtins).
func funcPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// returnsError reports whether any of f's results is the error type.
func returnsError(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return types.Implements(t, errorIface)
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// walkStack traverses root calling f with each node and the stack of
// its ancestors (outermost first, not including n itself). Returning
// false prunes the subtree.
func walkStack(root ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !f(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// funcScopes yields every function body in the file — declarations and
// literals — exactly once, with a printable name.
func funcScopes(file *ast.File) []funcScope {
	var out []funcScope
	ast.Inspect(file, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, funcScope{name: fn.Name.Name, decl: fn, body: fn.Body})
			}
		case *ast.FuncLit:
			out = append(out, funcScope{name: "func literal", lit: fn, body: fn.Body})
		}
		return true
	})
	return out
}

type funcScope struct {
	name string
	decl *ast.FuncDecl
	lit  *ast.FuncLit
	body *ast.BlockStmt
}

// node returns the function node itself.
func (s funcScope) node() ast.Node {
	if s.decl != nil {
		return s.decl
	}
	return s.lit
}

var ignoreRe = regexp.MustCompile(`^//\s*lint:ignore\s+(\S+)\s+(\S.*)$`)

// ignoreDirective is one parsed //lint:ignore comment. used flips when
// the directive actually suppresses a finding, which is what separates
// a live suppression from a stale one.
type ignoreDirective struct {
	pos    token.Position
	names  []string
	reason string
	used   bool
}

func (d *ignoreDirective) muting(analyzer string) bool {
	for _, n := range d.names {
		if n == "all" || n == analyzer {
			return true
		}
	}
	return false
}

// suppressionIndex holds a unit's directives, indexed by the file lines
// they mute (their own line and the line directly below).
type suppressionIndex struct {
	list   []*ignoreDirective
	byLine map[string]map[int][]*ignoreDirective
}

func (s *suppressionIndex) covers(d Diagnostic) bool {
	covered := false
	for _, dir := range s.byLine[d.Pos.Filename][d.Pos.Line] {
		if dir.muting(d.Analyzer) {
			dir.used = true
			covered = true
		}
	}
	return covered
}

// suppressions scans a unit's comments for //lint:ignore directives. A
// directive mutes the named analyzers on its own line and on the line
// directly below it (so it can trail the offending statement or sit
// above it). The reason is mandatory — a directive without one does not
// parse and suppresses nothing.
func suppressions(u *Unit) *suppressionIndex {
	idx := &suppressionIndex{byLine: map[string]map[int][]*ignoreDirective{}}
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				dir := &ignoreDirective{
					pos:    u.Fset.Position(c.Pos()),
					reason: strings.TrimSpace(m[2]),
				}
				for _, n := range strings.Split(m[1], ",") {
					dir.names = append(dir.names, strings.TrimSpace(n))
				}
				idx.list = append(idx.list, dir)
				byLine := idx.byLine[dir.pos.Filename]
				if byLine == nil {
					byLine = map[int][]*ignoreDirective{}
					idx.byLine[dir.pos.Filename] = byLine
				}
				for _, line := range []int{dir.pos.Line, dir.pos.Line + 1} {
					byLine[line] = append(byLine[line], dir)
				}
			}
		}
	}
	return idx
}
