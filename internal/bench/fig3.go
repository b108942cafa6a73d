package bench

import (
	"openhpcxx/internal/capability"
	"openhpcxx/internal/core"
	"openhpcxx/internal/migrate"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/testbed"
)

// Fig3Client is one client's observation at one phase of the Figure 3
// scenario: which protocol it selected and whether its requests were
// authenticated.
type Fig3Client struct {
	Name          string
	Machine       netsim.MachineID
	Selected      core.ProtoID
	Authenticated bool
}

// Fig3Phase captures both clients' observations while the server lives
// on a given machine.
type Fig3Phase struct {
	ServerMachine netsim.MachineID
	Clients       []Fig3Client
}

// Fig3Phases is the figure's report: the phase before the migration and
// the phase after it.
type Fig3Phases []Fig3Phase

// Format implements Report.
func (p Fig3Phases) Format() string { return FormatFigure3(p) }

// RunFigure3 reproduces the paper's Figure 3 scenario: server object S0
// is accessed by clients P1 and P2 on different LANs. The server's OR
// offers a glue protocol with an authentication capability (preferred)
// and a plain Nexus protocol. The authentication capability applies only
// across LANs, so the local client skips authentication while the remote
// one authenticates every request. When load forces S0 to migrate onto
// P2's LAN the roles swap automatically.
func RunFigure3(o Options) (Fig3Phases, error) {
	tb := testbed.New("fig3", o.OnRuntime)
	defer tb.Close()
	tb.LAN("lan1", "campus", netsim.ProfileUnshaped, "srv1", "p1") // server's first home, P1's LAN
	tb.LAN("lan2", "campus", netsim.ProfileUnshaped, "srv2", "p2") // server's second home, P2's LAN
	tb.Net.CampusLink = netsim.ProfileUnshaped
	home1 := tb.Context("home1", "srv1").BindAll().Echo("")
	home2 := tb.Context("home2", "srv2").BindAll()
	p1 := tb.Context("P1", "p1").Ctx
	p2 := tb.Context("P2", "p2").Ctx
	// Preference: authenticated glue first, plain Nexus second — both
	// clients receive copies of the same GP (paper: "the server provides
	// both the clients with copies of a GP whose OR has two protocols").
	ref := home1.Ref(
		home1.Glue("fig3-auth", home1.Stream(),
			capability.MustNewAuth("client", []byte("fig3-shared-secret"), capability.ScopeCrossLAN)),
		home1.Nexus())
	if err := tb.Build(); err != nil {
		return nil, err
	}
	gp1 := p1.NewGlobalPtr(ref)
	gp2 := p2.NewGlobalPtr(ref)

	observe := func(serverMachine netsim.MachineID) (Fig3Phase, error) {
		phase := Fig3Phase{ServerMachine: serverMachine}
		for _, c := range []struct {
			name string
			ctx  *core.Context
			gp   *core.GlobalPtr
		}{{"P1", p1, gp1}, {"P2", p2, gp2}} {
			// Exercise the path (and chase any tombstone).
			if _, err := measure(c.gp, 64, 1, 0, "%s exchange", c.name); err != nil {
				return phase, err
			}
			id, err := c.gp.SelectedProtocol()
			if err != nil {
				return phase, err
			}
			phase.Clients = append(phase.Clients, Fig3Client{
				Name:          c.name,
				Machine:       c.ctx.Locality().Machine,
				Selected:      id,
				Authenticated: id == core.ProtoGlue,
			})
		}
		return phase, nil
	}

	before, err := observe("srv1")
	if err != nil {
		return nil, err
	}

	// "The load on the server's machine increases beyond a high-water
	// mark and the application decides to migrate S0 to a machine
	// residing on the LAN of client P2."
	if _, err := migrate.MoveLocal(home1.Ctx, ref, home2.Ctx); err != nil {
		return nil, err
	}

	after, err := observe("srv2")
	if err != nil {
		return nil, err
	}
	return Fig3Phases{before, after}, nil
}

// Fig3Expected returns, per phase, the clients expected to authenticate.
func Fig3Expected() [][2]bool {
	// Phase 1 (server on lan1): P1 local (no auth), P2 remote (auth).
	// Phase 2 (server on lan2): roles swap.
	return [][2]bool{{false, true}, {true, false}}
}
