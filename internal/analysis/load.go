// The loader: enumerate packages under ./...-style patterns, parse them
// (tests included), and type-check against the stdlib source importer —
// no external tooling, no network, no go.sum entries.
package analysis

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"openhpcxx/internal/errs"
)

// Unit is one type-checked body of code: a package together with its
// in-package test files, or a package's external (_test) test package.
type Unit struct {
	// Path is the unit's import path. Real packages get
	// module-path-qualified paths; golden-corpus packages are keyed by
	// their directory below testdata/src.
	Path string
	// Dir is the absolute directory the files came from.
	Dir string
	// Test marks an external test package (package foo_test).
	Test bool

	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Load parses and type-checks every package matched by the patterns
// ("./internal/...", "./cmd/ohpc-lint", ...) relative to root, which
// must be the module root (the directory holding go.mod). Each matched
// directory yields up to two units: the package including its
// in-package test files, and — when present — its external test
// package.
//
// Directories are checked by a bounded worker pool. The token.FileSet
// is safe for concurrent AddFile/Position, and the source importer is
// serialized behind lockedImporter, so concurrent units contend only on
// first-import of a shared dependency and overlap everywhere else —
// parsing, and checking their own files' bodies.
func Load(root string, patterns []string) ([]*Unit, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	dirs, err := matchDirs(root, patterns)
	if err != nil {
		return nil, err
	}
	fset, imp := sharedImporter()

	type slot struct {
		units []*Unit
		err   error
	}
	slots := make([]slot, len(dirs))
	workers := min(runtime.GOMAXPROCS(0), 8, len(dirs))
	if workers < 1 {
		workers = 1
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				dir := dirs[i]
				rel, err := filepath.Rel(root, dir)
				if err != nil {
					slots[i].err = err
					continue
				}
				importPath := modPath
				if rel != "." {
					importPath = modPath + "/" + filepath.ToSlash(rel)
				}
				slots[i].units, slots[i].err = loadDir(fset, imp, dir, importPath)
			}
		}()
	}
	for i := range dirs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	// Flatten in directory order so output is deterministic regardless
	// of which worker finished first; report the first error the serial
	// loader would have hit.
	var units []*Unit
	for _, s := range slots {
		if s.err != nil {
			return nil, s.err
		}
		units = append(units, s.units...)
	}
	return units, nil
}

// LoadDir loads one directory outside the normal pattern walk — the
// golden-test harness uses it to type-check a corpus package under
// testdata with a synthetic import path.
func LoadDir(dir, importPath string) ([]*Unit, error) {
	fset, imp := sharedImporter()
	return loadDir(fset, imp, dir, importPath)
}

// sharedImporter returns the process's one file set and source importer.
// The importer type-checks imported packages (stdlib and this module
// alike) from source and caches them, so every Load and LoadDir after
// the first finds the standard library already checked.
var sharedImporter = sync.OnceValues(func() (*token.FileSet, types.Importer) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return fset, &lockedImporter{imp: imp, done: map[string]*types.Package{}}
})

// lockedImporter serializes the source importer, whose cache is not
// goroutine-safe (the *types.Package values it returns are immutable
// once complete), and remembers its answer per import path: the source
// importer runs `go list` to find a module package's directory before
// it consults its own cache, on every import of every unit.
type lockedImporter struct {
	mu   sync.Mutex
	imp  types.ImporterFrom
	done map[string]*types.Package
}

func (l *lockedImporter) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *lockedImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if pkg := l.done[path]; pkg != nil {
		return pkg, nil
	}
	pkg, err := l.imp.ImportFrom(path, dir, mode)
	if err == nil {
		l.done[path] = pkg
	}
	return pkg, err
}

// modulePath reads the module path out of root's go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", errs.Wrap(errs.Config, err, "analysis: reading go.mod")
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", errs.Newf(errs.Config, "analysis: no module line in %s/go.mod", root)
}

// matchDirs expands the patterns into package directories, skipping
// testdata and hidden directories.
func matchDirs(root string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
		}
		base := filepath.Join(root, filepath.FromSlash(pat))
		info, err := os.Stat(base)
		if err != nil || !info.IsDir() {
			return nil, errs.Newf(errs.Config, "analysis: pattern %q: not a directory", pat)
		}
		if !recursive {
			if hasGoFiles(base) {
				add(base)
			}
			continue
		}
		err = filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// loadDir parses one directory and type-checks its units.
func loadDir(fset *token.FileSet, imp types.Importer, dir, importPath string) ([]*Unit, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	bctx := build.Default
	var pkgFiles, extFiles []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		// Honor build constraints with the default tag set, so files
		// like race_on_test.go (//go:build race) don't double-declare
		// symbols against their !race twin.
		if ok, err := bctx.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, errs.Wrap(errs.Config, err, "analysis")
		}
		if strings.HasSuffix(file.Name.Name, "_test") {
			extFiles = append(extFiles, file)
		} else {
			pkgFiles = append(pkgFiles, file)
		}
	}
	var units []*Unit
	if len(pkgFiles) > 0 {
		u, err := check(fset, imp, dir, importPath, pkgFiles, false)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	if len(extFiles) > 0 {
		u, err := check(fset, imp, dir, importPath+"_test", extFiles, true)
		if err != nil && len(units) > 0 {
			// export_test.go idiom: import the package as checked above.
			u, err = check(fset, selfImporter{imp, importPath, units[0].Pkg}, dir, importPath+"_test", extFiles, true)
		}
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return units, nil
}

// selfImporter resolves path to pkg and everything else through imp.
type selfImporter struct {
	imp  types.Importer
	path string
	pkg  *types.Package
}

func (s selfImporter) Import(path string) (*types.Package, error) {
	if path == s.path {
		return s.pkg, nil
	}
	return s.imp.Import(path)
}

// check type-checks one unit's files.
func check(fset *token.FileSet, imp types.Importer, dir, path string, files []*ast.File, test bool) (*Unit, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var tcErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { tcErrs = append(tcErrs, err) },
	}
	pkg, err := conf.Check(path, fset, files, info)
	if len(tcErrs) > 0 {
		return nil, errs.Wrapf(errs.Config, errors.Join(tcErrs...), "analysis: type-checking %s", path)
	}
	if err != nil {
		return nil, errs.Wrapf(errs.Config, err, "analysis: type-checking %s", path)
	}
	return &Unit{Path: path, Dir: dir, Test: test, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}
