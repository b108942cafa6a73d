package main

import (
	"regexp"
	"testing"

	"openhpcxx/internal/bench"
)

// TestFigSelection: -fig takes exactly one id of the figure table or
// "all"; the prefixes, lists and empty string the old substring check
// let through select nothing (main then exits 2), and every id is named
// in the flag's usage text.
func TestFigSelection(t *testing.T) {
	usage := figUsage()
	for _, f := range bench.Figures() {
		got := selectFigures(f.ID)
		if len(got) != 1 || got[0].ID != f.ID {
			t.Errorf("-fig=%s selected %d figures", f.ID, len(got))
		}
		if !regexp.MustCompile(`[ ,]` + regexp.QuoteMeta(f.ID) + `,`).MatchString(usage) {
			t.Errorf("id %q is not in the -fig usage text %q", f.ID, usage)
		}
	}
	if got := selectFigures("all"); len(got) != len(bench.Figures()) {
		t.Errorf("-fig=all selected %d of %d figures", len(got), len(bench.Figures()))
	}
	for _, bad := range []string{"", "a", "l", "1 2", "1,2", "ALL", "s1 ", "zz"} {
		if got := selectFigures(bad); got != nil {
			t.Errorf("-fig=%q selected %d figures, want none", bad, len(got))
		}
	}
}
