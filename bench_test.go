// Package openhpcxx_test holds the repository-level benchmark harness:
// one benchmark per figure of the paper's evaluation, plus ablation
// benches for the design decisions called out in DESIGN.md. Run with
//
//	go test -bench=. -benchmem .
//
// Absolute numbers depend on the host; the shapes (who wins, by what
// factor) are what reproduce the paper.
package openhpcxx_test

import (
	"fmt"
	"testing"
	"time"

	"openhpcxx/internal/bench"
	"openhpcxx/internal/capability"
	"openhpcxx/internal/core"
	"openhpcxx/internal/hpcxx"
	"openhpcxx/internal/migrate"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/testbed"
	"openhpcxx/internal/xdr"
)

// benchSizes is the subset of the paper's 1..1M sweep exercised under
// testing.B (the full sweep runs in cmd/ohpc-bench).
var benchSizes = []int{1, 1024, 65536, 1 << 20}

// figure5 drives one (series, size) cell through a deployment.
func figure5(b *testing.B, profile netsim.LinkProfile) {
	d, err := bench.NewFig5Deployment(profile, bench.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(d.Close)
	for _, name := range bench.SeriesNames() {
		gp, err := d.GlobalPtr(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range benchSizes {
			arr := &core.Int32Slice{V: make([]int32, n)}
			b.Run(fmt.Sprintf("%s/ints=%d", name, n), func(b *testing.B) {
				payload := int64(4 + 4*n)
				b.SetBytes(2 * payload) // request + reply
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := core.Call[*core.Int32Slice, core.Int32Slice](gp, "exchange", arr); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFigure5ATM reproduces Figure 5's ATM sweep (time-scaled 8x so
// the benchmark completes quickly; shapes are preserved).
func BenchmarkFigure5ATM(b *testing.B) {
	figure5(b, netsim.ProfileATM155.Scaled(8))
}

// BenchmarkFigure5Ethernet reproduces the Ethernet run the paper reports
// as "virtually identical".
func BenchmarkFigure5Ethernet(b *testing.B) {
	figure5(b, netsim.ProfileEthernet.Scaled(8))
}

// BenchmarkFigure4Scenario measures a full migration tour (4 stations,
// one protocol re-selection each) — the end-to-end cost of the paper's
// Figure 4 experiment at a small payload.
func BenchmarkFigure4Scenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		steps, err := bench.RunFigure4(bench.Fig4Config{
			SampleInts:  256,
			MinReps:     1,
			MinDuration: time.Nanosecond,
			Profile:     netsim.ProfileUnshaped,
		}, bench.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(steps) != 4 {
			b.Fatalf("%d steps", len(steps))
		}
	}
}

// BenchmarkFigure3Scenario measures the adaptive-authentication scenario
// (two clients, one migration, four observations).
func BenchmarkFigure3Scenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFigure3(bench.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// capOverheadWorld builds a client/server pair over an unshaped link so
// per-request capability cost is not hidden behind network cost.
func capOverheadWorld(b *testing.B, caps ...capability.Capability) *core.GlobalPtr {
	b.Helper()
	n := netsim.New()
	n.AddLAN("lan", "c", netsim.ProfileUnshaped)
	n.MustAddMachine("cm", "lan")
	n.MustAddMachine("sm", "lan")
	rt := core.NewRuntime(n, "bench")
	capability.Install(rt.DefaultPool())
	rt.RegisterIface(testbed.ExchangeIface, testbed.ExchangeActivator)
	b.Cleanup(rt.Close)

	server, err := rt.NewContext("server", "sm")
	if err != nil {
		b.Fatal(err)
	}
	if err := server.BindSim(0); err != nil {
		b.Fatal(err)
	}
	impl, methods := testbed.ExchangeActivator()
	s, err := server.Export(testbed.ExchangeIface, impl, methods)
	if err != nil {
		b.Fatal(err)
	}
	streamE, err := server.EntryStream()
	if err != nil {
		b.Fatal(err)
	}
	entry := streamE
	if len(caps) > 0 {
		entry, err = capability.GlueEntry(server, fmt.Sprintf("bench-%s-%d", b.Name(), len(caps)), streamE, caps...)
		if err != nil {
			b.Fatal(err)
		}
	}
	client, err := rt.NewContext("client", "cm")
	if err != nil {
		b.Fatal(err)
	}
	return client.NewGlobalPtr(server.NewRef(s, entry))
}

// BenchmarkCapabilityOverhead decomposes the cost behind Figure 5's
// "capabilities add only a small amount of overhead" claim: each row is
// the per-exchange cost with one capability (or none) on an unshaped
// link — the worst case for relative overhead.
func BenchmarkCapabilityOverhead(b *testing.B) {
	const n = 4096
	mk := map[string]func() []capability.Capability{
		"bare":     func() []capability.Capability { return nil },
		"quota":    func() []capability.Capability { return []capability.Capability{capability.NewQuota(0, time.Time{})} },
		"trace":    func() []capability.Capability { return []capability.Capability{capability.NewTrace()} },
		"checksum": func() []capability.Capability { return []capability.Capability{capability.NewChecksum()} },
		"auth": func() []capability.Capability {
			return []capability.Capability{capability.MustNewAuth("p", []byte("k"), capability.ScopeAlways)}
		},
		"encrypt": func() []capability.Capability {
			return []capability.Capability{capability.NewRandomEncrypt(capability.ScopeAlways)}
		},
		"compress": func() []capability.Capability {
			return []capability.Capability{capability.MustNewCompress(6, 64, capability.ScopeAlways)}
		},
	}
	for _, name := range []string{"bare", "quota", "trace", "checksum", "auth", "encrypt", "compress"} {
		b.Run(name, func(b *testing.B) {
			gp := capOverheadWorld(b, mk[name]()...)
			arr := &core.Int32Slice{V: make([]int32, n)}
			b.SetBytes(2 * int64(4+4*n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Call[*core.Int32Slice, core.Int32Slice](gp, "exchange", arr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGlueDepth measures per-exchange cost against the number of
// stacked capabilities (trace capabilities: pure pipeline overhead).
func BenchmarkGlueDepth(b *testing.B) {
	for _, depth := range []int{0, 1, 2, 4, 8} {
		b.Run(fmt.Sprintf("caps=%d", depth), func(b *testing.B) {
			caps := make([]capability.Capability, depth)
			for i := range caps {
				caps[i] = capability.NewTrace()
			}
			gp := capOverheadWorld(b, caps...)
			arr := &core.Int32Slice{V: make([]int32, 1024)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Call[*core.Int32Slice, core.Int32Slice](gp, "exchange", arr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProtocolSelection measures the automatic run-time protocol
// selection path (invalidate + re-select against a 4-entry table) —
// the cost the ORB pays to be adaptive.
func BenchmarkProtocolSelection(b *testing.B) {
	d, err := bench.NewFig5Deployment(netsim.ProfileUnshaped, bench.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(d.Close)
	gp, err := d.GlobalPtr(bench.SeriesGlueSecurity)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gp.Invalidate()
		if _, err := gp.SelectedProtocol(); err != nil {
			b.Fatal(err)
		}
	}
}

// migratableBlob is a servant with a state blob of configurable size.
type migratableBlob struct{ state []byte }

func (m *migratableBlob) Snapshot() ([]byte, error) { return m.state, nil }
func (m *migratableBlob) Restore(s []byte) error    { m.state = s; return nil }

const blobIface = "bench.Blob"

// BenchmarkMigration measures end-to-end object migration latency
// against snapshot size.
func BenchmarkMigration(b *testing.B) {
	for _, size := range []int{0, 1 << 10, 1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("state=%dB", size), func(b *testing.B) {
			n := netsim.New()
			n.AddLAN("lan", "c", netsim.ProfileUnshaped)
			n.MustAddMachine("m1", "lan")
			n.MustAddMachine("m2", "lan")
			rt := core.NewRuntime(n, "bench")
			rt.RegisterIface(blobIface, func() (any, map[string]core.Method) {
				return &migratableBlob{}, map[string]core.Method{}
			})
			b.Cleanup(rt.Close)
			a, err := rt.NewContext("a", "m1")
			if err != nil {
				b.Fatal(err)
			}
			if err := a.BindSim(0); err != nil {
				b.Fatal(err)
			}
			c, err := rt.NewContext("b", "m2")
			if err != nil {
				b.Fatal(err)
			}
			if err := c.BindSim(0); err != nil {
				b.Fatal(err)
			}
			impl := &migratableBlob{state: make([]byte, size)}
			s, err := a.Export(blobIface, impl, map[string]core.Method{})
			if err != nil {
				b.Fatal(err)
			}
			e, _ := a.EntryStream()
			ref := a.NewRef(s, e)
			src, dst := a, c
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				newRef, err := migrate.MoveLocal(src, ref, dst)
				if err != nil {
					b.Fatal(err)
				}
				ref = newRef
				src, dst = dst, src
			}
		})
	}
}

// BenchmarkRefCodec measures object-reference serialization, the cost of
// passing capabilities between processes.
func BenchmarkRefCodec(b *testing.B) {
	ref := &core.ObjectRef{
		Object: "ctx/obj-1",
		Iface:  testbed.ExchangeIface,
		Epoch:  3,
		Server: netsim.Locality{Machine: "m1", LAN: "lan1", Campus: "c1", Process: "p"},
		Protocols: []core.ProtoEntry{
			{ID: core.ProtoGlue, Data: make([]byte, 200)},
			{ID: core.ProtoSHM, Data: make([]byte, 40)},
			{ID: core.ProtoStream, Data: make([]byte, 40)},
			{ID: core.ProtoNexus, Data: make([]byte, 48)},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := core.EncodeRef(ref)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.DecodeRef(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXDRIntArray isolates the marshaling substrate's share of the
// exchange cost.
func BenchmarkXDRIntArray(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("ints=%d", n), func(b *testing.B) {
			v := make([]int32, n)
			e := xdr.NewEncoder(4 + 4*n)
			b.SetBytes(int64(4 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Reset()
				e.PutInt32s(v)
				if _, err := xdr.NewDecoder(e.Bytes()).Int32s(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGroupGather measures hpcxx collective scaling: one typed
// gather across N member objects (concurrent member invocations).
func BenchmarkGroupGather(b *testing.B) {
	for _, members := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("members=%d", members), func(b *testing.B) {
			n := netsim.New()
			n.AddLAN("lan", "c", netsim.ProfileUnshaped)
			n.MustAddMachine("m0", "lan")
			rt := core.NewRuntime(n, "p")
			b.Cleanup(rt.Close)
			client, err := rt.NewContext("client", "m0")
			if err != nil {
				b.Fatal(err)
			}
			var gps []*core.GlobalPtr
			for i := 0; i < members; i++ {
				ctx, err := rt.NewContext(fmt.Sprintf("w%d", i), "m0")
				if err != nil {
					b.Fatal(err)
				}
				if err := ctx.BindSim(0); err != nil {
					b.Fatal(err)
				}
				impl, methods := testbed.ExchangeActivator()
				s, err := ctx.Export(testbed.ExchangeIface, impl, methods)
				if err != nil {
					b.Fatal(err)
				}
				e, _ := ctx.EntryStream()
				gps = append(gps, client.NewGlobalPtr(ctx.NewRef(s, e)))
			}
			g := hpcxx.NewGroup(gps...)
			req := &core.Int32Slice{V: make([]int32, 256)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				replies, err := hpcxx.Gather[*core.Int32Slice, core.Int32Slice](g, "exchange", req)
				if err != nil {
					b.Fatal(err)
				}
				if len(replies) != members {
					b.Fatal("short gather")
				}
			}
		})
	}
}
