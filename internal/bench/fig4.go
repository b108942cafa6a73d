package bench

import (
	"fmt"
	"time"

	"openhpcxx/internal/capability"
	"openhpcxx/internal/core"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/migrate"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/testbed"
)

// Fig4Step is one stage of the Figure 4 experiment: where the server
// object currently lives, which protocol the client's GP selects there,
// and a bandwidth sample through that protocol.
type Fig4Step struct {
	Step     int
	Context  string
	Machine  netsim.MachineID
	Selected core.ProtoID
	// Detail distinguishes the two glue entries ("quota+encrypt",
	// "quota") when Selected is the glue protocol.
	Detail string
	Sample Measurement
}

// Fig4Steps is the figure's report: one step per station of the tour.
type Fig4Steps []Fig4Step

// Format implements Report: the step table, then whether the selection
// sequence is the paper's.
func (s Fig4Steps) Format() string {
	ok := len(s) == len(Fig4Expected())
	for i := 0; ok && i < len(s); i++ {
		ok = s[i].Selected == Fig4Expected()[i]
	}
	return fmt.Sprintf("%s\nselection sequence matches the paper: %v\n", FormatFigure4(s), ok)
}

// Fig4Config parameterizes the migration scenario.
type Fig4Config struct {
	// SampleInts is the array size measured at each step.
	SampleInts  int
	MinReps     int
	MinDuration time.Duration
	// Profile shapes every LAN (the experiment's qualitative result —
	// which protocol is selected at each step — does not depend on it).
	Profile netsim.LinkProfile
}

// RunFigure4 reproduces the paper's experimental scenario (§5,
// Figure 4): the client runs on machine M0; the server object starts on
// M1 and migrates to M2, M3, and finally M0. The GP's protocol table is
// Figure 4-B's: glue(timeout+security) > glue(timeout) > shared memory >
// Nexus TCP. At each station the client re-runs selection and exchanges
// arrays through whatever protocol is applicable.
//
// Topology (localities chosen so the paper's applicability story holds):
//   - M0 (client), M3: lan0, campus1 — so at M3 the cross-LAN timeout
//     capability no longer applies and selection falls to Nexus TCP.
//   - M1: lan1, campus2 — both capabilities apply.
//   - M2: lan2, campus1 — same campus: security (cross-campus) does not
//     apply, timeout still does.
func RunFigure4(cfg Fig4Config, o Options) (Fig4Steps, error) {
	setDefault(&cfg.SampleInts, 16*1024)
	setDefault(&cfg.MinReps, o.Reps)
	setDefault(&cfg.MinReps, 3)
	setDefault(&cfg.MinDuration, pick(o, 100*time.Millisecond, 30*time.Millisecond))
	setDefault(&cfg.Profile, pick(o, netsim.ProfileATM155, netsim.ProfileATM155.Scaled(16)))

	tb := testbed.New("fig4", o.OnRuntime)
	defer tb.Close()
	tb.LAN("lan0", "campus1", cfg.Profile, "M0", "M3")
	tb.LAN("lan1", "campus2", cfg.Profile, "M1")
	tb.LAN("lan2", "campus1", cfg.Profile, "M2")
	tb.Net.CampusLink = cfg.Profile
	tb.Net.WANLink = cfg.Profile
	client := tb.Context("client", "M0")
	// The server object starts on M1 with Figure 4-B's protocol table
	// and tours M2, M3 and M0.
	first := tb.Context("S1", "M1").BindAll().Echo("")
	hops := []*testbed.Node{first,
		tb.Context("S2", "M2").BindAll(), tb.Context("S3", "M3").BindAll(), tb.Context("S4", "M0").BindAll()}
	streamE := first.Stream()
	ref := first.Ref(
		first.Glue("fig4-ts", streamE,
			capability.NewScopedQuota(0, time.Time{}, capability.ScopeCrossLAN),
			capability.NewRandomEncrypt(capability.ScopeCrossCampus)),
		first.Glue("fig4-t", streamE,
			capability.NewScopedQuota(0, time.Time{}, capability.ScopeCrossLAN)),
		first.SHM(), first.Nexus())
	if err := tb.Build(); err != nil {
		return nil, err
	}

	gp := client.Ctx.NewGlobalPtr(ref)
	// Figure 4-B table indexes; preserved across migrations because
	// ReanchorTable keeps order and every hop supports every protocol.
	entryDetail := []string{"quota+encrypt", "quota", "", ""}

	var steps Fig4Steps
	cur, curCtx := ref, first.Ctx
	for i, node := range hops {
		hop := node.Ctx
		if hop != curCtx {
			var err error
			if cur, err = migrate.MoveLocal(curCtx, cur, hop); err != nil {
				return nil, errs.Wrapf(errs.CodeOf(err), err, "bench: migrating to %s", hop.Name())
			}
			curCtx = hop
		}
		// One exchange first: if the GP still holds the pre-migration
		// reference, this chases the tombstone so selection reflects
		// the object's new locality.
		if _, err := measure(gp, 1, 1, 0, "step %d warm-up", i); err != nil {
			return nil, err
		}
		m, err := measure(gp, cfg.SampleInts, cfg.MinReps, cfg.MinDuration, "step %d measurement", i)
		if err != nil {
			return nil, err
		}
		idx, selected, err := gp.SelectedEntry()
		if err != nil {
			return nil, err
		}
		steps = append(steps, Fig4Step{
			Step:     1 + 2*i, // the paper numbers request phases 1,3,5,7
			Context:  hop.Name(),
			Machine:  hop.Locality().Machine,
			Selected: selected,
			Detail:   entryDetail[idx],
			Sample:   m,
		})
	}
	return steps, nil
}

// Fig4Expected lists the protocol the paper's scenario selects at each
// station, in order.
func Fig4Expected() []core.ProtoID {
	return []core.ProtoID{core.ProtoGlue, core.ProtoGlue, core.ProtoNexus, core.ProtoSHM}
}
