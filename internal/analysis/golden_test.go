package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// goldenCorpora maps each analyzer to its corpus under testdata/src.
// Every corpus is a real, type-checked package; `// want "regex"`
// trailing comments mark the lines that must produce findings, and
// every finding must be wanted — positives and negatives in one file.
var goldenCorpora = []string{
	"nosleep",
	"lockedblock",
	"spanend",
	"checkederr",
	"ctxflow",
	"codederr",
	"golife",
	"lockorder",
	"caprefund",
}

// wantRe extracts the expectation regex from a trailing comment.
var wantRe = regexp.MustCompile(`//\s*want\s+"([^"]+)"`)

type expectation struct {
	rx      *regexp.Regexp
	matched bool
}

func TestGolden(t *testing.T) {
	for _, name := range goldenCorpora {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", name)
			units, err := LoadDir(dir, "golden/"+name)
			if err != nil {
				t.Fatalf("loading corpus: %v", err)
			}
			if len(units) == 0 {
				t.Fatalf("corpus %s loaded no units", dir)
			}
			az, err := Select(name, "")
			if err != nil {
				t.Fatal(err)
			}
			diags := Run(units, az)
			wants := collectWants(t, units)

			var problems []string
			for _, d := range diags {
				key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
				exps := wants[key]
				claimed := false
				for _, e := range exps {
					if !e.matched && e.rx.MatchString(d.Message) {
						e.matched = true
						claimed = true
						break
					}
				}
				if !claimed {
					problems = append(problems, fmt.Sprintf("unexpected finding: %s", d))
				}
			}
			var keys []string
			for k := range wants {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				for _, e := range wants[k] {
					if !e.matched {
						problems = append(problems, fmt.Sprintf("%s: wanted %q, got no matching finding", k, e.rx))
					}
				}
			}
			if len(problems) > 0 {
				t.Errorf("corpus %s:\n%s", name, strings.Join(problems, "\n"))
			}
		})
	}
}

// collectWants scans corpus comments for `// want "regex"` markers,
// keyed by file:line of the comment (wants trail the offending line).
func collectWants(t *testing.T, units []*Unit) map[string][]*expectation {
	t.Helper()
	wants := map[string][]*expectation{}
	for _, u := range units {
		for _, file := range u.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					rx, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want regex %q: %v", m[1], err)
					}
					pos := u.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					wants[key] = append(wants[key], &expectation{rx: rx})
				}
			}
		}
	}
	return wants
}

// TestRepoClean is the self-check: the shipped tree must be free of
// findings from every analyzer — the cleanup the suite demanded stays
// done. (Golden corpora live under testdata and are excluded from the
// walk.)
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	units, err := Load(root, []string{"./internal/...", "./cmd/..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags := Run(units, All())
	for _, d := range diags {
		t.Errorf("repo finding: %s", d)
	}
}
