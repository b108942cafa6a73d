package main

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"openhpcxx/internal/capability"
	"openhpcxx/internal/core"
	"openhpcxx/internal/future"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/transport"
	"openhpcxx/internal/wire"
	"openhpcxx/internal/xdr"
)

// A layer cell replays one workload message shape through one layer's
// public functions under testing.Benchmark and yields <cell>.ns,
// <cell>.allocs and <cell>.alloc_B per operation. The cells measure each
// layer from outside; README.md says which end-to-end metric each one
// should move.
type cell struct {
	name string
	run  func(b *testing.B)
}

// shapeInts maps a message shape's name to its element count.
var shapeInts = map[string]int{"small": smallInts, "mid": midInts, "bulk": bulkInts}

// protoDirect is the benchmark's base protocol for the cells that leave
// wire and transport out: its Call hands the frame straight to the
// server context's dispatcher.
const protoDirect core.ProtoID = "benchmark-direct"

type directFactory struct{ server *core.Context }

func (directFactory) ID() core.ProtoID { return protoDirect }

func (directFactory) Applicable(core.ProtoEntry, netsim.Locality, netsim.Locality) bool { return true }

func (f directFactory) New(core.ProtoEntry, *core.ObjectRef, *core.Context) (core.Protocol, error) {
	return directProto(f), nil
}

type directProto struct{ server *core.Context }

func (directProto) ID() core.ProtoID { return protoDirect }
func (directProto) Close() error     { return nil }

func (p directProto) Call(m *wire.Message) (*wire.Message, error) {
	reply := p.server.Dispatch(m)
	if reply == nil {
		return nil, fmt.Errorf("benchmark: no reply to %v frame", m.Type)
	}
	return reply, nil
}

// cellWorld is what the cells share: one runtime with a server context
// that hosts the echo servant and is bound on shm and loopback TCP, a
// client context on the server's machine, and two bare transport echo
// servers.
type cellWorld struct {
	rt      *core.Runtime
	server  *core.Context
	client  *core.Context
	servant *core.Servant
	muxes   map[string]*transport.Mux // "tcp", "shm": a mux on a transport-only echo server
	closers []func()
}

func (w *cellWorld) close() {
	for i := len(w.closers) - 1; i >= 0; i-- {
		w.closers[i]()
	}
}

func newCellWorld() (*cellWorld, error) {
	topo := netsim.New()
	topo.AddLAN("lan", "campus", netsim.ProfileUnshaped)
	topo.MustAddMachine(nearMachine, "lan")
	rt := core.NewRuntime(topo, "benchmark")
	w := &cellWorld{rt: rt, muxes: map[string]*transport.Mux{}, closers: []func(){rt.Close}}
	var err error
	if w.server, err = rt.NewContext("cell-server", nearMachine); err != nil {
		return nil, w.abandon(err)
	}
	if err = w.server.BindSHM(); err != nil {
		return nil, w.abandon(err)
	}
	if err = w.server.BindTCP("127.0.0.1:0"); err != nil {
		return nil, w.abandon(err)
	}
	impl, methods := echoServant(nil, false)
	if w.servant, err = w.server.Export(echoIface, impl, methods); err != nil {
		return nil, w.abandon(err)
	}
	if w.client, err = rt.NewContext("cell-client", nearMachine); err != nil {
		return nil, w.abandon(err)
	}
	w.client.Pool().Register(directFactory{w.server})

	echo := func(m *wire.Message) *wire.Message {
		return &wire.Message{Type: wire.TReply, Object: m.Object, Method: m.Method, Body: m.Body}
	}
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, w.abandon(err)
	}
	shm := transport.NewSHM()
	mem, err := shm.Listen("cell")
	if err != nil {
		tcp.Close()
		return nil, w.abandon(err)
	}
	for name, l := range map[string]net.Listener{"tcp": tcp, "shm": mem} {
		srv := transport.Serve(l, echo)
		w.closers = append(w.closers, func() { srv.Close() })
		var conn net.Conn
		if name == "tcp" {
			conn, err = net.Dial("tcp", l.Addr().String())
		} else {
			conn, err = shm.Dial("cell")
		}
		if err != nil {
			return nil, w.abandon(err)
		}
		mux := transport.NewMux(conn)
		w.closers = append(w.closers, func() { mux.Close() })
		w.muxes[name] = mux
	}
	return w, nil
}

func (w *cellWorld) abandon(err error) error {
	w.close()
	return err
}

// args encodes a payload of the named shape.
func args(shape string) []byte {
	v := make([]int32, shapeInts[shape])
	for i := range v {
		v[i] = int32(i)
	}
	body, _ := xdr.Marshal(&payload{V: v}) // payload's MarshalXDR cannot fail
	return body
}

// request builds a frame addressed to the world's echo servant.
func (w *cellWorld) request(shape string) *wire.Message {
	return &wire.Message{Type: wire.TRequest, Object: string(w.servant.ID()), Method: "exchange", Body: args(shape)}
}

func (w *cellWorld) cells() ([]cell, error) {
	var cells []cell
	add := func(name string, run func(b *testing.B)) { cells = append(cells, cell{name, run}) }

	for _, shape := range []string{"small", "bulk"} {
		body := args(shape)
		value := &payload{}
		if err := xdr.Unmarshal(body, value); err != nil {
			return nil, err
		}
		add("xdr.marshal."+shape, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := xdr.Marshal(value); err != nil {
					b.Fatal(err)
				}
			}
		})
		add("xdr.unmarshal."+shape, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := xdr.Unmarshal(body, &payload{}); err != nil {
					b.Fatal(err)
				}
			}
		})

		req := w.request(shape)
		var frame bytes.Buffer
		if err := wire.Write(&frame, req); err != nil {
			return nil, err
		}
		add("wire.write."+shape, func(b *testing.B) {
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := wire.Write(&buf, req); err != nil {
					b.Fatal(err)
				}
			}
		})
		add("wire.read."+shape, func(b *testing.B) {
			var r bytes.Reader
			for i := 0; i < b.N; i++ {
				r.Reset(frame.Bytes())
				if _, err := wire.Read(&r); err != nil {
					b.Fatal(err)
				}
			}
		})

		for _, fabric := range []string{"tcp", "shm"} {
			mux := w.muxes[fabric]
			add("transport."+fabric+"_call."+shape, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := mux.Call(req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}

		add("core.dispatch."+shape, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if reply := w.server.Dispatch(req); reply == nil || reply.Type != wire.TReply {
					b.Fatalf("dispatch answered %v", reply)
				}
			}
		})
		gp := w.client.NewGlobalPtr(w.server.NewRef(w.servant, core.ProtoEntry{ID: protoDirect}))
		add("core.invoke_loop."+shape, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := gp.Invoke("exchange", body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// One coalescer flush worth of small requests and the matching replies.
	batch := make([]*wire.Message, asyncWindow)
	replies := make([]*wire.Message, asyncWindow)
	for i := range batch {
		batch[i] = w.request("small")
		replies[i] = &wire.Message{Type: wire.TReply, Object: batch[i].Object, Method: "exchange", Body: batch[i].Body}
	}
	batchFrame, err := wire.EncodeBatch(batch)
	if err != nil {
		return nil, err
	}
	replyFrame, err := wire.EncodeBatch(replies)
	if err != nil {
		return nil, err
	}
	add("wire.batch_encode.small", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wire.EncodeBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("wire.batch_decode.small", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wire.DecodeBatch(batchFrame); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("transport.coalesce.small", func(b *testing.B) {
		// send counts the frames and answers each with a ready batch reply,
		// so the cell is the coalescer alone: queueing, the flush at the
		// message watermark, batch framing and the demultiplexing of replies.
		sent := 0
		coal := transport.NewCoalescer(func(*wire.Message) (transport.Pending, error) {
			sent++
			return readyPending{replyFrame}, nil
		}, transport.BatchPolicy{MaxMessages: asyncWindow, MaxBytes: 1 << 30, MaxDelay: time.Hour})
		defer coal.Close()
		pending := make([]transport.Pending, asyncWindow)
		for i := 0; i < b.N; i++ {
			for j, m := range batch {
				var err error
				if pending[j], err = coal.Begin(m); err != nil {
					b.Fatal(err)
				}
			}
			for _, p := range pending {
				if _, err := p.Reply(); err != nil {
					b.Fatal(err)
				}
			}
		}
		if sent != b.N {
			b.Fatalf("%d frames sent for %d flushes", sent, b.N)
		}
	})

	// The capability cells use the glue chain's shape. Each capability is
	// paired with the copy a server would rebuild from its configuration.
	mid := w.request("mid")
	frame := &capability.Frame{Object: mid.Object, Method: mid.Method, Dir: capability.Request, Clock: w.rt.Clock()}
	for _, c := range glueChain() {
		config, err := c.Config()
		if err != nil {
			return nil, err
		}
		peer, err := capability.New(c.Kind(), config)
		if err != nil {
			return nil, err
		}
		add("capability."+c.Kind()+".roundtrip.mid", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				body, envelope, err := c.Process(frame, mid.Body)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := peer.Unprocess(frame, envelope, body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	chain := glueChain()
	if _, err := capability.GlueEntry(w.server, "cell-glue", core.ProtoEntry{ID: protoDirect}, chain...); err != nil {
		return nil, err
	}
	glue := capability.NewGlue("cell-glue", directProto{w.server}, w.rt.Clock(), chain...)
	add("capability.chain.mid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reply, err := glue.Call(mid)
			if err != nil || reply.Type != wire.TReply {
				b.Fatalf("glue call: %v, %v", reply, err)
			}
		}
	})

	shmEntry, err := w.server.EntrySHM()
	if err != nil {
		return nil, err
	}
	streamEntry, err := w.server.EntryStream()
	if err != nil {
		return nil, err
	}
	ref := w.server.NewRef(w.servant, shmEntry, streamEntry)
	selecting := w.client.NewGlobalPtr(ref)
	add("core.select", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			selecting.Invalidate()
			if _, err := selecting.SelectedProtocol(); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("core.refcodec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blob, err := core.EncodeRef(ref)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.DecodeRef(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
	small := args("small")
	add("future.roundtrip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := future.New()
			f.Complete(small)
			if _, err := f.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	})
	return cells, nil
}

// readyPending is an exchange that has already resolved.
type readyPending struct{ reply *wire.Message }

var closedChan = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func (readyPending) Done() <-chan struct{}           { return closedChan }
func (p readyPending) Reply() (*wire.Message, error) { return p.reply, nil }

// runCells runs every cell whose name only accepts (nil: all) for about
// benchTime each.
func runCells(benchTime time.Duration, only ...string) ([]metric, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", benchTime.String()); err != nil {
		return nil, err
	}
	w, err := newCellWorld()
	if err != nil {
		return nil, fmt.Errorf("layer cells: %w", err)
	}
	defer w.close()
	cells, err := w.cells()
	if err != nil {
		return nil, fmt.Errorf("layer cells: %w", err)
	}
	var out []metric
	for _, c := range cells {
		if len(only) > 0 && !slices.Contains(only, c.name) {
			continue
		}
		res := testing.Benchmark(c.run)
		if res.N == 0 {
			return nil, fmt.Errorf("layer cell %s failed", c.name)
		}
		n := float64(res.N)
		out = append(out,
			metric{c.name + ".ns", float64(res.T.Nanoseconds()) / n, "ns"},
			metric{c.name + ".allocs", float64(res.MemAllocs) / n, "count"},
			metric{c.name + ".alloc_B", float64(res.MemBytes) / n, "bytes"})
	}
	return out, nil
}
