// Command ohpc-weather runs the paper's motivating application (§1): a
// simulation at a national lab reached by clients with very different
// requirements, all through ordinary global pointers — the differences
// live in the references' protocol tables and capability sets.
//
// -mode sim plays the whole scenario in one process, on a simulated
// network (the lab's LAN and an ISP's LAN joined by a WAN): a local
// analyst gets the full interface with no capabilities; an internet
// collaborator gets forecasts only, authenticated and encrypted; a
// commercial client pays per access until a quota cuts it off.
//
// -mode serve and -mode client deploy the collaborator's and the paying
// client's grants across OS processes over real TCP sockets:
//
//	ohpc-weather -mode sim
//
//	ohpc-registry -listen 127.0.0.1:7777          # terminal 1
//	ohpc-weather -mode serve -registry tcp://127.0.0.1:7777
//	ohpc-weather -mode client -registry tcp://127.0.0.1:7777 -grant collab
//	ohpc-weather -mode client -registry tcp://127.0.0.1:7777 -grant paid
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/signal"
	"sync"
	"time"

	"openhpcxx/internal/capability"
	"openhpcxx/internal/core"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/introspect"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/registry"
	"openhpcxx/internal/testbed"
	"openhpcxx/internal/wire"
	"openhpcxx/internal/xdr"
)

// sharedSecret would be provisioned out of band in a real deployment.
var sharedSecret = []byte("ohpc-weather-demo-secret-32bytes")

// simRegistry is where -mode sim serves its name service.
const simRegistry = "sim://supercomputer:9001"

// model is a toy environmental model: a grid of temperatures that
// relaxes toward its neighbors each step; observations can be fed in.
type model struct {
	mu   sync.Mutex
	grid []float64
}

// newModel is an n-cell grid advanced by steps relaxation steps.
func newModel(n, steps int) *model {
	g := make([]float64, n)
	for i := range g {
		g[i] = 15 + 10*math.Sin(float64(i)/float64(n)*2*math.Pi)
	}
	for ; steps > 0; steps-- {
		next := make([]float64, n)
		for i := range g {
			next[i] = 0.5*g[i] + 0.25*(g[(i+n-1)%n]+g[(i+1)%n])
		}
		g = next
	}
	return &model{grid: g}
}

type regionReq struct{ Lo, Hi int32 }

func (r *regionReq) MarshalXDR(e *xdr.Encoder) error {
	e.PutInt32(r.Lo)
	e.PutInt32(r.Hi)
	return nil
}

func (r *regionReq) UnmarshalXDR(d *xdr.Decoder) (err error) {
	if r.Lo, err = d.Int32(); err == nil {
		r.Hi, err = d.Int32()
	}
	return err
}

type feedReq struct {
	At    int32
	Value float64
}

func (r *feedReq) MarshalXDR(e *xdr.Encoder) error {
	e.PutInt32(r.At)
	e.PutFloat64(r.Value)
	return nil
}

func (r *feedReq) UnmarshalXDR(d *xdr.Decoder) (err error) {
	if r.At, err = d.Int32(); err == nil {
		r.Value, err = d.Float64()
	}
	return err
}

// forecast returns the temperature map for a region.
func (m *model) forecast(r *regionReq) (*core.Float64Slice, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r.Lo < 0 || int(r.Hi) > len(m.grid) || r.Lo >= r.Hi {
		return nil, wire.Faultf(wire.FaultBadRequest, "bad region [%d,%d)", r.Lo, r.Hi)
	}
	out := make([]float64, r.Hi-r.Lo)
	copy(out, m.grid[r.Lo:r.Hi])
	return &core.Float64Slice{V: out}, nil
}

// feed injects an observation — a privileged operation.
func (m *model) feed(r *feedReq) (*core.Empty, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r.At < 0 || int(r.At) >= len(m.grid) {
		return nil, wire.Faultf(wire.FaultBadRequest, "bad cell %d", r.At)
	}
	m.grid[r.At] = r.Value
	return &core.Empty{}, nil
}

// publish exports the restricted interface (forecasts only) on node and
// binds its two grants in the registry at regAddr: "weather/collab",
// authenticated and encrypted, and "weather/paid", encrypted and cut
// off after quota requests. Each capability applies wherever scope says.
func publish(tb *testbed.Builder, node *testbed.Node, regAddr string, m *model, scope capability.Scope, quota uint64) {
	var forecasts *core.Servant
	tb.Do(func() (err error) {
		forecasts, err = node.Ctx.Export("weather.Forecasts", m, map[string]core.Method{
			"forecast": core.Handler(m.forecast),
		})
		return err
	})
	base := node.Stream()
	collab := node.Glue("weather-collab", base,
		capability.MustNewAuth("collab", sharedSecret, scope),
		capability.MustNewEncrypt(sharedSecret, scope))
	paid := node.Glue("weather-paid", base,
		capability.NewQuota(quota, time.Time{}),
		capability.MustNewEncrypt(sharedSecret, scope))
	tb.Do(func() error {
		reg := registry.NewClient(node.Ctx, registry.RefAt(regAddr))
		if err := reg.Rebind("weather/collab", node.Ctx.NewRef(forecasts, collab)); err != nil {
			return err
		}
		return reg.Rebind("weather/paid", node.Ctx.NewRef(forecasts, paid))
	})
}

// lookup resolves a grant by name into a global pointer.
func lookup(ctx *core.Context, regAddr, grant string) (*core.GlobalPtr, error) {
	ref, err := registry.NewClient(ctx, registry.RefAt(regAddr)).Lookup("weather/" + grant)
	if err != nil {
		return nil, err
	}
	return ctx.NewGlobalPtr(ref), nil
}

// sim plays the three clients against the lab on one simulated network.
// The collaborator's and the paying client's capabilities apply only
// off-campus; the analyst's full grant carries none.
func sim(out io.Writer) error {
	tb := testbed.New("weathersim", nil)
	defer tb.Close()
	tb.LAN("lab-lan", "lab-campus", netsim.ProfileATM155.Scaled(16), "supercomputer", "analyst-ws")
	tb.LAN("isp-lan", "internet", netsim.ProfileEthernet.Scaled(16), "collab-pc", "corp-box")
	tb.Net.WANLink = netsim.ProfileWAN.Scaled(16)
	lab := tb.Context("lab", "supercomputer").Bind(9000)
	regNode := tb.Context("registry", "supercomputer").Bind(9001)
	analyst := tb.Context("analyst", "analyst-ws")
	collab := tb.Context("collab", "collab-pc")
	corp := tb.Context("corp", "corp-box")

	m := newModel(256, 10)
	var full *core.Servant
	tb.Do(func() (err error) { _, _, err = registry.Serve(regNode.Ctx); return err })
	tb.Do(func() (err error) {
		full, err = lab.Ctx.Export("weather.Full", m, map[string]core.Method{
			"forecast": core.Handler(m.forecast),
			"feed":     core.Handler(m.feed),
		})
		return err
	})
	stream := lab.Stream()
	tb.Do(func() error {
		return registry.NewClient(lab.Ctx, registry.RefAt(simRegistry)).Rebind("weather/full", lab.Ctx.NewRef(full, stream))
	})
	publish(tb, lab, simRegistry, m, capability.ScopeCrossCampus, 3)
	if err := tb.Build(); err != nil {
		return err
	}

	// The analyst: full access, no capabilities.
	gp, err := lookup(analyst.Ctx, simRegistry, "full")
	if err != nil {
		return err
	}
	if _, err := core.Call[*feedReq, core.Empty](gp, "feed", &feedReq{At: 42, Value: 31.5}); err != nil {
		return err
	}
	f, err := core.Call[*regionReq, core.Float64Slice](gp, "forecast", &regionReq{Lo: 40, Hi: 45})
	if err != nil {
		return err
	}
	proto, _ := gp.SelectedProtocol()
	fmt.Fprintf(out, "analyst   (lab LAN)  over %-8s fed cell 42, forecast[42]=%.1f°C\n", proto, f.V[2])

	// The collaborator: authenticated and encrypted, and no feed.
	if gp, err = lookup(collab.Ctx, simRegistry, "collab"); err != nil {
		return err
	}
	if f, err = core.Call[*regionReq, core.Float64Slice](gp, "forecast", &regionReq{Lo: 0, Hi: 8}); err != nil {
		return err
	}
	var sum float64
	for _, v := range f.V {
		sum += v
	}
	proto, _ = gp.SelectedProtocol()
	fmt.Fprintf(out, "collab    (internet) over %-8s forecast[0..8) mean=%.1f°C (auth+encrypted)\n", proto, sum/float64(len(f.V)))
	_, err = core.Call[*feedReq, core.Empty](gp, "feed", &feedReq{At: 1, Value: 99})
	var fault *wire.Fault
	if !errors.As(err, &fault) || fault.Code != wire.FaultNoMethod {
		return errs.Newf(errs.Internal, "collab feed: want a no-method fault, got %v", err)
	}
	fmt.Fprintf(out, "collab    (internet) feed denied: %s\n", fault.Message)

	// The commercial client: pay per access until the quota runs out.
	if gp, err = lookup(corp.Ctx, simRegistry, "paid"); err != nil {
		return err
	}
	for i := 1; ; i++ {
		if _, err := core.Call[*regionReq, core.Float64Slice](gp, "forecast", &regionReq{Lo: 0, Hi: 4}); err != nil {
			if !errors.As(err, &fault) || fault.Code != wire.FaultQuota {
				return err
			}
			fmt.Fprintf(out, "corp      (paid)     request %d rejected: %s\n", i, fault.Message)
			return nil
		}
		fmt.Fprintf(out, "corp      (paid)     request %d served (quota)\n", i)
	}
}

// local models this OS process as one machine hosting one context.
func local(process, name string) (*testbed.Builder, *testbed.Node) {
	tb := testbed.New(process, nil)
	tb.LAN("local", "local", netsim.ProfileLoopback, "host")
	return tb, tb.Context(name, "host")
}

func serve(regAddr, introspectAddr string, out io.Writer) error {
	tb, node := local("ohpc-weather-server", "weather")
	defer tb.Close()
	tb.Do(func() error { return node.Ctx.BindTCP("127.0.0.1:0") })
	publish(tb, node, regAddr, newModel(256, 0), capability.ScopeAlways, 5)
	if err := tb.Build(); err != nil {
		return err
	}
	if introspectAddr != "" {
		insp, err := introspect.Attach(tb.RT, introspect.Options{Addr: introspectAddr})
		if err != nil {
			return err
		}
		defer insp.Close()
		fmt.Fprintf(out, "ohpc-weather: introspection plane on http://%s\n", insp.Addr())
	}
	addr, _ := node.Ctx.Binding(core.ProtoStream)
	fmt.Fprintf(out, "ohpc-weather: serving on %s; published weather/collab and weather/paid\n", addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	return nil
}

func client(regAddr, grant string, calls int, out io.Writer) error {
	tb, node := local(fmt.Sprintf("ohpc-weather-client-%d", os.Getpid()), "client")
	defer tb.Close()
	if err := tb.Build(); err != nil {
		return err
	}
	gp, err := lookup(node.Ctx, regAddr, grant)
	if err != nil {
		return err
	}
	for i := 1; i <= calls; i++ {
		f, err := core.Call[*regionReq, core.Float64Slice](gp, "forecast", &regionReq{Lo: 0, Hi: 8})
		if err != nil {
			var fault *wire.Fault
			if errors.As(err, &fault) {
				fmt.Fprintf(out, "request %d rejected: %s\n", i, fault.Message)
				return nil
			}
			return err
		}
		proto, _ := gp.SelectedProtocol()
		fmt.Fprintf(out, "request %d over %s: forecast[0]=%.2f°C\n", i, proto, f.V[0])
	}
	return nil
}

var (
	mode           = flag.String("mode", "client", "sim, serve or client")
	regAddr        = flag.String("registry", "tcp://127.0.0.1:7777", "registry address")
	grant          = flag.String("grant", "collab", "grant to use in client mode: collab or paid")
	calls          = flag.Int("calls", 7, "requests to make in client mode")
	introspectAddr = flag.String("introspect", "", "serve mode: expose the introspection plane (/metrics /statusz /tracez /varz) on this address")
)

// run executes one mode, writing its outcome lines to out.
func run(mode string, out io.Writer) error {
	switch mode {
	case "sim":
		return sim(out)
	case "serve":
		return serve(*regAddr, *introspectAddr, out)
	case "client":
		return client(*regAddr, *grant, *calls, out)
	}
	return errs.Newf(errs.Config, "unknown mode %q", mode)
}

func main() {
	flag.Parse()
	if err := run(*mode, os.Stdout); err != nil {
		log.Fatalf("ohpc-weather: %v", err)
	}
}
