// Migration walks through the paper's Figure 4 experiment by hand: a
// client on machine M0 holds one global pointer while the server object
// hops M1 -> M2 -> M3 -> M0. At every station the same GP transparently
// re-runs protocol selection against Figure 4-B's table
//
//	0  glue protocol with timeout and security capabilities
//	1  glue protocol with timeout capability
//	2  shared memory based protocol
//	3  Nexus based protocol that uses TCP
//
// and the choice changes exactly as the paper describes.
//
//	go run ./examples/migration
package main

import (
	"fmt"
	"log"
	"time"

	"openhpcxx/internal/bench"
	"openhpcxx/internal/capability"
	"openhpcxx/internal/core"
	"openhpcxx/internal/migrate"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/testbed"
)

func main() {
	// Localities: M0 and M3 share the client's LAN; M1 is on another
	// campus; M2 is on another LAN of the client's campus.
	net := netsim.New()
	profile := netsim.ProfileATM155.Scaled(16)
	net.AddLAN("lan0", "campus1", profile)
	net.AddLAN("lan1", "campus2", profile)
	net.AddLAN("lan2", "campus1", profile)
	net.CampusLink = profile
	net.WANLink = profile
	net.MustAddMachine("M0", "lan0")
	net.MustAddMachine("M1", "lan1")
	net.MustAddMachine("M2", "lan2")
	net.MustAddMachine("M3", "lan0")

	rt := core.NewRuntime(net, "migration-example")
	capability.Install(rt.DefaultPool())
	rt.RegisterIface(testbed.ExchangeIface, testbed.ExchangeActivator)
	defer rt.Close()

	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}

	// A fully bound context on every machine the object will visit.
	mkCtx := func(name, machine string) *core.Context {
		ctx, err := rt.NewContext(name, netsim.MachineID(machine))
		must(err)
		must(ctx.BindSHM())
		must(ctx.BindSim(0))
		must(ctx.BindNexusSim(0))
		return ctx
	}
	s1 := mkCtx("S1", "M1")
	s2 := mkCtx("S2", "M2")
	s3 := mkCtx("S3", "M3")
	s4 := mkCtx("S4", "M0")

	client, err := rt.NewContext("client", "M0")
	must(err)

	// The server object starts on M1.
	impl, methods := testbed.ExchangeActivator()
	servant, err := s1.Export(testbed.ExchangeIface, impl, methods)
	must(err)

	streamE, err := s1.EntryStream()
	must(err)
	shmE, err := s1.EntrySHM()
	must(err)
	nexusE, err := s1.EntryNexus()
	must(err)
	glueTS, err := capability.GlueEntry(s1, "mig-ts", streamE,
		capability.NewScopedQuota(0, time.Time{}, capability.ScopeCrossLAN),
		capability.NewRandomEncrypt(capability.ScopeCrossCampus))
	must(err)
	glueT, err := capability.GlueEntry(s1, "mig-t", streamE,
		capability.NewScopedQuota(0, time.Time{}, capability.ScopeCrossLAN))
	must(err)
	ref := s1.NewRef(servant, glueTS, glueT, shmE, nexusE)

	fmt.Println("protocol table (preference order):")
	for i, e := range ref.Protocols {
		fmt.Printf("  %d  %s\n", i, capability.DescribeEntry(e))
	}
	fmt.Println()

	gp := client.NewGlobalPtr(ref)
	entryName := []string{"glue(timeout+security)", "glue(timeout)", "shared memory", "nexus-tcp"}

	cur := ref
	curCtx := s1
	for _, hop := range []*core.Context{s1, s2, s3, s4} {
		if hop != curCtx {
			var err error
			cur, err = migrate.MoveLocal(curCtx, cur, hop)
			must(err)
			curCtx = hop
			fmt.Printf("-- object migrated to context %s on machine %s --\n",
				hop.Name(), hop.Locality().Machine)
		}
		// Exchange arrays; the first call after a migration chases the
		// forwarding tombstone and re-selects.
		m, err := bench.MeasureExchange(gp, 16384, 3, 50*time.Millisecond)
		must(err)
		idx, _, err := gp.SelectedEntry()
		must(err)
		fmt.Printf("client on M0 -> server on %-3s selected table[%d] %-24s  %8.2f Mbps\n",
			hop.Locality().Machine, idx, entryName[idx], m.BandwidthBps/1e6)
	}
	fmt.Println("\nsame global pointer, four different protocols — no client changes.")

	fmt.Println("\nruntime adaptivity event log:")
	for _, ev := range rt.Events() {
		fmt.Println("  " + ev.String())
	}
}
