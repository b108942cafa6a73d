// Customproto demonstrates the paper's open-architecture claim (§3.2):
// "custom protocols are supported by having users write their own
// proto-classes that satisfy a standard interface."
//
// The udprel package — written entirely outside the ORB — implements
// reliable request/reply messaging over lossy datagrams. This example
// registers it into the protocol pool next to the built-ins, serves an
// object over it across a link that drops 20% of all packets, stacks
// the glue protocol (quota + encryption) on top of it, and finally
// migrates the object while a client keeps calling.
//
//	go run ./examples/customproto
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
	"openhpcxx/internal/proto/udprel"
	"openhpcxx/internal/testbed"
)

func main() {
	net := netsim.New()
	net.AddLAN("lan", "campus", netsim.ProfileEthernet.Scaled(16))
	net.MustAddMachine("alpha", "lan")
	net.MustAddMachine("beta", "lan")
	net.MustAddMachine("gamma", "lan")

	// The link between client and first server drops every fifth
	// datagram and jitters delivery; udprel recovers underneath the ORB.
	net.Seed(2026)
	net.SetDatagramShaping("alpha", "beta", netsim.DatagramProfile{
		Link:     netsim.ProfileEthernet.Scaled(16),
		LossRate: 0.20,
		Jitter:   time.Millisecond,
	})

	rt := core.NewRuntime(net, "customproto")
	capability.Install(rt.DefaultPool())
	arq := udprel.Config{RTO: 10 * time.Millisecond, MaxTries: 30}
	rt.DefaultPool().Register(udprel.NewFactory(arq)) // the custom proto-class
	rt.RegisterIface(testbed.ExchangeIface, testbed.ExchangeActivator)
	// Objects served over udprel survive migration once a reanchorer is
	// registered (the same hook the built-ins use internally).
	migrate.RegisterReanchor(udprel.ID, func(dst *core.Context, old core.ProtoEntry) (core.ProtoEntry, bool, error) {
		ne, err := udprel.Entry(dst)
		return ne, err == nil, nil
	})
	defer rt.Close()

	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}

	server, err := rt.NewContext("server", "beta")
	must(err)
	must(udprel.Bind(server, 0, arq))
	impl, methods := testbed.ExchangeActivator()
	servant, err := server.Export(testbed.ExchangeIface, impl, methods)
	must(err)

	base, err := udprel.Entry(server)
	must(err)
	glueE, err := capability.GlueEntry(server, "udprel-sealed", base,
		capability.NewQuota(1000, time.Time{}),
		capability.NewRandomEncrypt(capability.ScopeAlways))
	must(err)
	ref := server.NewRef(servant, glueE, base)

	client, err := rt.NewContext("client", "alpha")
	must(err)
	gp := client.NewGlobalPtr(ref)

	m, err := bench.MeasureExchange(gp, 4096, 5, 100*time.Millisecond)
	must(err)
	id, _ := gp.SelectedProtocol()
	fmt.Printf("client -> beta over %s(base=udprel) across a 20%%-loss link: %.2f Mbps, avg rtt %v\n",
		id, m.BandwidthBps/1e6, m.AvgRTT)

	// Migrate the object to gamma; the same GP keeps working and the
	// custom protocol entry is re-anchored to the new home.
	target, err := rt.NewContext("server2", "gamma")
	must(err)
	must(udprel.Bind(target, 0, arq))
	_, err = migrate.MoveLocal(server, ref, target)
	must(err)

	m, err = bench.MeasureExchange(gp, 4096, 5, 100*time.Millisecond)
	must(err)
	fmt.Printf("after migration to gamma (lossless link):             %.2f Mbps, avg rtt %v\n",
		m.BandwidthBps/1e6, m.AvgRTT)

	fmt.Printf("\nmetrics:\n%s", rt.Metrics().Dump())
}
