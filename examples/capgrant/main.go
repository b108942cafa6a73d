// Capgrant demonstrates that capabilities are first-class and travel
// with object references between processes (paper §1: "capabilities can
// be exchanged between processes").
//
// A server process mints a reference whose glue protocol carries a
// 5-request quota and an encryption capability, and publishes it in the
// registry. A broker process resolves it and — without talking to the
// server — hands it on to a worker process, which spends the budget.
// The quota is enforced server-side, so the grant is shared: requests
// made by the broker count against the worker's budget too.
//
//	go run ./examples/capgrant
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"openhpcxx/internal/capability"
	"openhpcxx/internal/core"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/registry"
	"openhpcxx/internal/testbed"
	"openhpcxx/internal/wire"
)

func main() {
	net := netsim.New()
	net.AddLAN("lan", "campus", netsim.ProfileEthernet.Scaled(16))
	net.MustAddMachine("srv", "lan")
	net.MustAddMachine("broker", "lan")
	net.MustAddMachine("worker", "lan")

	// Three runtimes = three OS processes sharing only the network.
	newProc := func(name string) *core.Runtime {
		rt := core.NewRuntime(net, name)
		capability.Install(rt.DefaultPool())
		return rt
	}
	serverProc := newProc("server-proc")
	defer serverProc.Close()
	brokerProc := newProc("broker-proc")
	defer brokerProc.Close()
	workerProc := newProc("worker-proc")
	defer workerProc.Close()

	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}

	// Server process: service + registry.
	server, err := serverProc.NewContext("server", "srv")
	must(err)
	must(server.BindSim(8000))
	regCtx, err := serverProc.NewContext("names", "srv")
	must(err)
	must(regCtx.BindSim(8001))
	_, _, err = registry.Serve(regCtx)
	must(err)

	impl, methods := testbed.ExchangeActivator()
	servant, err := server.Export(testbed.ExchangeIface, impl, methods)
	must(err)
	streamE, err := server.EntryStream()
	must(err)
	grant, err := capability.GlueEntry(server, "grant-42", streamE,
		capability.NewQuota(5, time.Time{}),
		capability.NewRandomEncrypt(capability.ScopeAlways))
	must(err)
	grantRef := server.NewRef(servant, grant)

	sReg := registry.NewClient(server, registry.RefAt("sim://srv:8001"))
	must(sReg.Bind("grants/worker-42", grantRef))
	fmt.Println("server: minted a 5-request encrypted grant and published it as grants/worker-42")

	// Broker process: resolves the grant, uses a bit of it, passes it on.
	broker, err := brokerProc.NewContext("broker", "broker")
	must(err)
	bReg := registry.NewClient(broker, registry.RefAt("sim://srv:8001"))
	ref, err := bReg.Lookup("grants/worker-42")
	must(err)

	bGP := broker.NewGlobalPtr(ref)
	spend(bGP, "broker", 2)

	// "Passing the capability": just hand over the serialized reference.
	blob, err := core.EncodeRef(ref)
	must(err)
	fmt.Printf("broker: forwarding the grant to the worker (%d-byte reference, capabilities inside)\n", len(blob))

	// Worker process: receives the bytes, reconstructs the reference,
	// and spends the rest of the shared budget.
	workerRef, err := core.DecodeRef(blob)
	must(err)
	worker, err := workerProc.NewContext("worker", "worker")
	must(err)
	wGP := worker.NewGlobalPtr(workerRef)
	spend(wGP, "worker", 4)
}

// spend makes n exchange calls, reporting quota exhaustion.
func spend(gp *core.GlobalPtr, who string, n int) {
	arr := &core.Int32Slice{V: make([]int32, 64)}
	for i := 1; i <= n; i++ {
		_, err := core.Call[*core.Int32Slice, core.Int32Slice](gp, "exchange", arr)
		if err != nil {
			var f *wire.Fault
			if errors.As(err, &f) && f.Code == wire.FaultQuota {
				fmt.Printf("%s: request %d refused — %s\n", who, i, f.Message)
				return
			}
			log.Fatal(err)
		}
		fmt.Printf("%s: request %d served under the grant\n", who, i)
	}
}
