package main

import (
	"strings"
	"testing"
)

// TestSimOutcomes runs -mode sim in-process and pins the scenario's
// outcomes. sim itself fails unless the collaborator's feed is refused
// with FaultNoMethod and the paying client's cut-off is FaultQuota.
func TestSimOutcomes(t *testing.T) {
	var out strings.Builder
	if err := run("sim", &out); err != nil {
		t.Fatalf("sim: %v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 7 {
		t.Fatalf("sim printed %d lines, want 7:\n%s", len(lines), out.String())
	}
	// The analyst's feed lands; the collaborator is served over glue and
	// refused "feed"; the paying client is served 3 times, then cut off.
	for i, want := range []string{
		"forecast[42]=31.5°C",
		"over glue ",
		`has no method "feed"`,
		"request 1 served (quota)",
		"request 2 served (quota)",
		"request 3 served (quota)",
		"request 4 rejected: request quota of 3 exhausted",
	} {
		if !strings.Contains(lines[i], want) {
			t.Errorf("line %d = %q, want it to contain %q", i+1, lines[i], want)
		}
	}
}

func TestUnknownModeFails(t *testing.T) {
	if err := run("nope", &strings.Builder{}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}
