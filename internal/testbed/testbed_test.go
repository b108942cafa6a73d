package testbed

import (
	"errors"
	"runtime"
	"testing"

	"openhpcxx/internal/core"
	"openhpcxx/internal/netsim"
)

// TestBuilderRoundTrip builds the smallest useful testbed and calls the
// echo servant through it, with the hook observing from Build to Close.
func TestBuilderRoundTrip(t *testing.T) {
	var events []string
	b := New("rt", func(label string, rt *core.Runtime) func() {
		events = append(events, "attach "+label)
		return func() { events = append(events, "detach") }
	})
	b.LAN("lan", "campus", netsim.ProfileUnshaped, "cm", "sm")
	client := b.Context("client", "cm")
	server := b.Context("server", "sm").BindAll().Echo("")
	ref := server.Ref(server.Stream(), server.SHM(), server.Nexus())
	if err := b.Build(); err != nil {
		t.Fatal(err)
	}
	out, err := core.Call[*core.Int32Slice, core.Int32Slice](client.Ctx.NewGlobalPtr(ref), "exchange", Ints(5))
	if err != nil || len(out.V) != 5 || out.V[4] != 4 {
		t.Fatalf("exchange: %v, %v", out, err)
	}
	b.Close()
	b.Close()
	if len(events) != 2 || events[0] != "attach rt" || events[1] != "detach" {
		t.Fatalf("hook saw %v, want one attach and one detach", events)
	}
}

// TestBuilderStickyError: the first failing step's error is what Build
// returns, the steps after it never run, and the runtime is closed — no
// goroutine of the half-built world survives.
func TestBuilderStickyError(t *testing.T) {
	baseline := runtime.NumGoroutine()
	hooked := false
	b := New("sticky", func(string, *core.Runtime) func() { hooked = true; return nil })
	b.LAN("lan", "campus", netsim.ProfileUnshaped, "cm", "sm")
	server := b.Context("server", "sm").BindAll().Echo("obj")
	boom := errors.New("boom")
	b.Do(func() error { return boom })
	ran := false
	b.Do(func() error { ran = true; return nil })
	// Later steps of every kind are no-ops, including ones on a node
	// whose context was never created (machine "nowhere" does not
	// exist, but that error must not replace the first).
	ghost := b.Context("ghost", "nowhere").Bind(7000).Echo("")
	if ghost.Ctx != nil || ghost.Ref(ghost.Stream()) != nil || server.Ref(server.Stream()) != nil {
		t.Fatal("steps after the failure produced handles")
	}
	err := b.Build()
	if !errors.Is(err, boom) {
		t.Fatalf("Build returned %v, want the failing step's error", err)
	}
	if ran || hooked {
		t.Fatalf("after the failure: later step ran=%v, hook attached=%v", ran, hooked)
	}
	b.Close()
	for i := 0; runtime.NumGoroutine() > baseline; i++ {
		if i > 1000 {
			t.Fatalf("%d goroutines after a failed Build, baseline %d", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
	}
}

// TestBuilderStepErrors: each kind of step reports its own failure.
func TestBuilderStepErrors(t *testing.T) {
	for name, step := range map[string]func(b *Builder){
		"unknown machine": func(b *Builder) { b.Context("c", "nowhere") },
		"port in use":     func(b *Builder) { b.Context("a", "sm").Bind(7001); b.Context("b", "sm").Bind(7001) },
		"duplicate id":    func(b *Builder) { b.Context("a", "sm").Echo("x").Echo("x") },
		"unbound entry":   func(b *Builder) { b.Context("a", "sm").Echo("").Nexus() },
	} {
		b := New("steps", nil)
		b.LAN("lan", "campus", netsim.ProfileUnshaped, "cm", "sm")
		step(b)
		if err := b.Build(); err == nil {
			b.Close()
			t.Errorf("%s: Build succeeded", name)
		}
	}
}

// TestRebindAfterRestart: a node bound at a fixed port comes back at
// the advertised address through the FaultPlan restart hook.
func TestRebindAfterRestart(t *testing.T) {
	b := New("rebind", nil)
	defer b.Close()
	b.LAN("lan", "campus", netsim.ProfileUnshaped, "cm", "sm")
	client := b.Context("client", "cm")
	server := b.Context("server", "sm").Bind(7002).Echo("obj")
	ref := server.Ref(server.Stream())
	if err := b.Build(); err != nil {
		t.Fatal(err)
	}
	plan := new(netsim.FaultPlan)
	plan.CrashAt(0, "sm").RestartAt(0, "sm", server.Rebind)
	plan.Run(b.Net).Wait()
	gp := client.Ctx.NewGlobalPtr(ref)
	if _, err := core.Call[*core.Int32Slice, core.Int32Slice](gp, "exchange", Ints(1)); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
}
