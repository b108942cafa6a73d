package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"openhpcxx/internal/capability"
	"openhpcxx/internal/core"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/testbed"
)

// Figure 5 series names, matching the paper's legend.
const (
	SeriesGlueTimeout  = "glue with timeout"
	SeriesGlueSecurity = "glue with timeout & security"
	SeriesSharedMemory = "shared memory"
	SeriesNexus        = "Nexus"
)

// Fig5Config parameterizes the bandwidth sweep.
type Fig5Config struct {
	// Profile shapes the network between client and server machines
	// (the paper ran the sweep over both Ethernet and 155 Mbps ATM).
	Profile netsim.LinkProfile
	// Sizes are the array lengths to sweep; nil means the paper's
	// 1..1M sweep.
	Sizes []int
	// MinReps and MinDuration control averaging per cell.
	MinReps     int
	MinDuration time.Duration
}

// Series is one curve of Figure 5.
type Series struct {
	Name   string
	Points []Measurement
}

// Fig5Deployment is the Figure 5 testbed: a client machine and a server
// machine joined by the configured link, a network server context on the
// server machine, and a local server context on the client's machine for
// the shared-memory curve.
type Fig5Deployment struct {
	tb     *testbed.Builder
	client *core.Context
	// refs maps series name to the object reference exercising it.
	refs map[string]*core.ObjectRef
}

// NewFig5Deployment builds the testbed.
func NewFig5Deployment(profile netsim.LinkProfile, o Options) (*Fig5Deployment, error) {
	tb := testbed.New("fig5", o.OnRuntime)
	tb.LAN("lan", "campus", profile, "client-m", "server-m")
	client := tb.Context("client", "client-m")
	remote := tb.Context("server", "server-m").BindAll().Echo("")
	// Shared-memory curve: a servant co-located with the client.
	local := tb.Context("server-local", "client-m").BindAll().Echo("")
	streamE := remote.Stream()
	refs := map[string]*core.ObjectRef{
		SeriesSharedMemory: local.Ref(local.SHM()),
		SeriesNexus:        remote.Ref(remote.Nexus()),
		SeriesGlueTimeout: remote.Ref(remote.Glue("fig5-timeout", streamE,
			capability.NewQuota(0, time.Time{}))),
		SeriesGlueSecurity: remote.Ref(remote.Glue("fig5-timeout-security", streamE,
			capability.NewQuota(0, time.Time{}),
			capability.NewRandomEncrypt(capability.ScopeAlways))),
	}
	if err := tb.Build(); err != nil {
		return nil, err
	}
	return &Fig5Deployment{tb: tb, client: client.Ctx, refs: refs}, nil
}

// Close shuts the deployment down.
func (d *Fig5Deployment) Close() { d.tb.Close() }

// SeriesNames lists the Figure 5 curves in the paper's legend order.
func SeriesNames() []string {
	return []string{SeriesGlueTimeout, SeriesGlueSecurity, SeriesSharedMemory, SeriesNexus}
}

// GlobalPtr returns a fresh global pointer for a series.
func (d *Fig5Deployment) GlobalPtr(series string) (*core.GlobalPtr, error) {
	ref, ok := d.refs[series]
	if !ok {
		return nil, errs.Newf(errs.Config, "bench: unknown series %q", series)
	}
	return d.client.NewGlobalPtr(ref), nil
}

// RunFigure5 produces the bandwidth-versus-size curves for every series
// over one network profile.
func RunFigure5(cfg Fig5Config, o Options) ([]Series, error) {
	if cfg.Sizes == nil {
		cfg.Sizes = Sizes1ToM()
	}
	setDefault(&cfg.MinReps, o.Reps)
	setDefault(&cfg.MinReps, pick(o, 3, 2))
	setDefault(&cfg.MinDuration, pick(o, 200*time.Millisecond, 50*time.Millisecond))
	d, err := NewFig5Deployment(cfg.Profile, o)
	if err != nil {
		return nil, err
	}
	defer d.Close()

	var out []Series
	for _, name := range SeriesNames() {
		gp, err := d.GlobalPtr(name)
		if err != nil {
			return nil, err
		}
		// Confirm the series exercises the protocol it claims to.
		if id, err := gp.SelectedProtocol(); err != nil {
			return nil, errs.Wrapf(errs.CodeOf(err), err, "bench: %s", name)
		} else if wantProto(name) != id {
			return nil, errs.Newf(errs.Internal, "bench: %s selected %s, want %s", name, id, wantProto(name))
		}
		s := Series{Name: name}
		for _, n := range cfg.Sizes {
			m, err := measure(gp, n, cfg.MinReps, cfg.MinDuration, "%s size %d", name, n)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, m)
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig5Run is Figure 5 over one network.
type Fig5Run struct {
	// Network is the -profile name ("atm", "ethernet"); Title names the
	// link profile actually simulated.
	Network string
	Title   string
	Series  []Series
}

// Fig5Report is the whole figure: one run per requested network.
type Fig5Report struct {
	Runs []Fig5Run
	// Plot adds the ASCII rendering to Format.
	Plot bool `json:"-"`
}

// fig5Networks are the networks the paper ran the sweep over.
var fig5Networks = []struct {
	name    string
	profile netsim.LinkProfile
}{{"atm", netsim.ProfileATM155}, {"ethernet", netsim.ProfileEthernet}}

// runFigure5All runs the sweep over the networks o.Profile selects.
func runFigure5All(o Options) (*Fig5Report, error) {
	rep := &Fig5Report{Plot: o.Plot}
	for _, nw := range fig5Networks {
		if o.Profile != "" && o.Profile != "both" && o.Profile != nw.name {
			continue
		}
		p := pick(o, nw.profile, nw.profile.Scaled(16))
		series, err := RunFigure5(Fig5Config{Profile: p}, o)
		if err != nil {
			return nil, err
		}
		rep.Runs = append(rep.Runs, Fig5Run{
			Network: nw.name,
			Title:   fmt.Sprintf("Figure 5: bandwidth vs. array size over %s", p),
			Series:  series,
		})
	}
	if len(rep.Runs) == 0 {
		return nil, errs.Newf(errs.Config, "unknown profile %q", o.Profile)
	}
	return rep, nil
}

// Format implements Report: per network the table, optionally the plot,
// and the two claims the paper draws from it.
func (r *Fig5Report) Format() string {
	var parts []string
	for _, run := range r.Runs {
		parts = append(parts, FormatFigure5(run.Title, run.Series))
		if r.Plot {
			parts = append(parts, FormatFigure5ASCII(run.Title, run.Series))
		}
		parts = append(parts, summarizeFig5(run.Series))
	}
	return strings.Join(parts, "\n")
}

// WriteCSV writes every cell of the figure as CSV rows under a header.
func (r *Fig5Report) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "profile,series,ints,bytes,reps,avg_rtt_us,bandwidth_mbps"); err != nil {
		return err
	}
	for _, run := range r.Runs {
		for _, s := range run.Series {
			for _, p := range s.Points {
				if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d,%.3f\n",
					run.Network, s.Name, p.Ints, p.Bytes, p.Reps, p.AvgRTT.Microseconds(), p.BandwidthBps/1e6); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// summarizeFig5 states the two claims the paper draws from the plot.
func summarizeFig5(series []Series) string {
	var shm, bestNet, worstNet float64
	for _, s := range series {
		last := s.Points[len(s.Points)-1].BandwidthBps
		if s.Name == SeriesSharedMemory {
			shm = last
			continue
		}
		if bestNet == 0 || last > bestNet {
			bestNet = last
		}
		if worstNet == 0 || last < worstNet {
			worstNet = last
		}
	}
	return fmt.Sprintf("at the largest size: network protocols within %.2fx of each other; shared memory %.1fx faster than the best network protocol\n",
		bestNet/worstNet, shm/bestNet)
}

func wantProto(series string) core.ProtoID {
	switch series {
	case SeriesSharedMemory:
		return core.ProtoSHM
	case SeriesNexus:
		return core.ProtoNexus
	default:
		return core.ProtoGlue
	}
}
