// Package load is the capacity harness: it stands up a netsim world of
// configurable scale from a declarative scenario file, drives a mixed
// workload against it in closed- or open-loop arrival mode through
// fault schedules and migration churn, and reports goodput plus
// latency percentiles from HDR-style histograms that are immune to
// coordinated omission.
//
// The coordinated-omission problem: a closed-loop generator issues the
// next request only after the previous one returns, so when the system
// stalls the generator silently stops sampling exactly when latency is
// worst — the recorded distribution omits, in coordination with the
// stall, the requests a real open-world client population would have
// sent into it. The harness's open-loop mode fixes this at both ends:
// requests are issued on a fixed arrival schedule regardless of
// completions, and latency is measured from the request's *intended*
// start time, so time spent queued behind a stall is charged to the
// result. Every issued request contributes exactly one sample.
package load

import (
	"bytes"
	"encoding/json"
	"os"
	"sync"
	"time"

	"openhpcxx/internal/errs"
	"openhpcxx/internal/netsim"
)

// Workload kinds: which invocation discipline a slice of the traffic
// uses.
const (
	KindSync       = "sync"       // blocking request/reply
	KindAsync      = "async"      // pipelined futures
	KindBatched    = "batched"    // futures through an adaptive micro-batcher
	KindCapability = "capability" // sync calls through an encrypt+auth glue chain
)

// Arrival modes.
const (
	ArrivalClosed = "closed" // next request issues when the previous returns
	ArrivalOpen   = "open"   // requests issue on a fixed schedule (rate_per_sec)
)

// Fault kinds a scenario schedule may contain.
const (
	FaultCrash     = "crash"
	FaultRestart   = "restart"
	FaultPartition = "partition"
	FaultHeal      = "heal"
)

// Topology sizes the simulated world. The grid is LANs x MachinesPerLAN
// (netsim.AddGrid); scenario files describe thousand-machine worlds and
// the per-packet cost stays O(active links).
type Topology struct {
	LANs           int     `json:"lans"`
	MachinesPerLAN int     `json:"machines_per_lan"`
	Profile        string  `json:"profile"`                    // loopback | ethernet | atm155 | campus | wan | unshaped
	Scale          float64 `json:"scale,omitempty"`            // optional profile scaling (netsim.LinkProfile.Scaled)
	CampusesEvery  int     `json:"campuses_every,omitempty"`   // LANs per campus (0 = single campus)
	LANCapacityBps float64 `json:"lan_capacity_bps,omitempty"` // shared-medium bound per LAN (0 = unbounded)
}

// WorkloadSpec is one slice of the traffic mix.
type WorkloadSpec struct {
	Kind   string `json:"kind"`
	Weight int    `json:"weight"`         // relative share of requests
	Ints   int    `json:"ints,omitempty"` // array length exchanged per call (default 16)
}

// Arrival selects the load-generation discipline.
type Arrival struct {
	Mode       string  `json:"mode"`
	RatePerSec float64 `json:"rate_per_sec,omitempty"` // open mode: aggregate offered load
}

// FaultSpec is one scheduled fault event.
type FaultSpec struct {
	AtMS    int    `json:"at_ms"`
	Kind    string `json:"kind"`
	Machine string `json:"machine,omitempty"` // crash/restart target
	Peer    string `json:"peer,omitempty"`    // partition/heal second endpoint
}

// Churn configures migration churn: the harness migrates server objects
// round-robin across the server contexts on this period.
type Churn struct {
	MigrateEveryMS int `json:"migrate_every_ms,omitempty"`
}

// Scenario is the declarative description of one capacity run. The
// zero-ish defaults are filled by Validate; everything else must be
// explicit so runs are reproducible from the file alone.
type Scenario struct {
	Name     string         `json:"name"`
	Topology Topology       `json:"topology"`
	Servers  int            `json:"servers"` // server contexts, one per machine, round-robin across LANs
	Workers  int            `json:"workers"` // client worker goroutines
	Workload []WorkloadSpec `json:"workload"`
	Arrival  Arrival        `json:"arrival"`

	DurationMS int `json:"duration_ms"`
	DeadlineMS int `json:"deadline_ms,omitempty"` // per-call deadline (default 1000)
	// MaxOps, when > 0, additionally bounds the run by operation count.
	// Closed-loop runs on a fake clock need it: a successful call may
	// cost no simulated time at all, so duration alone never elapses.
	MaxOps int `json:"max_ops,omitempty"`

	Batching bool `json:"batching,omitempty"` // micro-batch the async slice too
	Failover bool `json:"failover,omitempty"` // runtime failover on crash

	Faults []FaultSpec `json:"faults,omitempty"`
	Churn  Churn       `json:"churn,omitempty"`
	Seed   int64       `json:"seed,omitempty"`
}

// customProfiles holds profiles registered beyond the netsim built-ins
// (RegisterProfile); the saturation figure uses one with deliberately
// expensive frame overhead.
var (
	customMu       sync.Mutex
	customProfiles = map[string]netsim.LinkProfile{}
)

// RegisterProfile makes a link profile available to scenarios under the
// given name. Built-in names cannot be shadowed.
func RegisterProfile(name string, p netsim.LinkProfile) error {
	if _, builtin := builtinProfile(name); builtin {
		return errs.Newf(errs.Config, "load: profile %q is a built-in", name)
	}
	customMu.Lock()
	customProfiles[name] = p
	customMu.Unlock()
	return nil
}

// profileByName resolves a scenario profile name.
func profileByName(name string) (netsim.LinkProfile, bool) {
	if p, ok := builtinProfile(name); ok {
		return p, true
	}
	customMu.Lock()
	p, ok := customProfiles[name]
	customMu.Unlock()
	return p, ok
}

func builtinProfile(name string) (netsim.LinkProfile, bool) {
	switch name {
	case "loopback":
		return netsim.ProfileLoopback, true
	case "ethernet":
		return netsim.ProfileEthernet, true
	case "atm155":
		return netsim.ProfileATM155, true
	case "campus":
		return netsim.ProfileCampus, true
	case "wan":
		return netsim.ProfileWAN, true
	case "unshaped":
		return netsim.ProfileUnshaped, true
	}
	return netsim.LinkProfile{}, false
}

// Duration returns the run length.
func (s *Scenario) Duration() time.Duration {
	return time.Duration(s.DurationMS) * time.Millisecond
}

// Deadline returns the per-call deadline.
func (s *Scenario) Deadline() time.Duration {
	return time.Duration(s.DeadlineMS) * time.Millisecond
}

// Machines returns the grid size.
func (s *Scenario) Machines() int { return s.Topology.LANs * s.Topology.MachinesPerLAN }

// Parse decodes and validates a scenario file. Malformed JSON and
// unknown fields reject with errs.Codec; semantically invalid scenarios
// reject with errs.Config. Defaults (deadline, workload ints) are
// filled in the returned scenario.
func Parse(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, errs.Wrapf(errs.Codec, err, "load: scenario does not parse")
	}
	// Trailing garbage after the scenario object is a malformed file, not
	// a second scenario.
	if dec.More() {
		return nil, errs.Newf(errs.Codec, "load: trailing data after scenario object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// ParseFile is Parse over a file on disk.
func ParseFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, errs.Wrapf(errs.Config, err, "load: scenario %s", path)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, errs.Wrapf(errs.CodeOf(err), err, "load: scenario %s", path)
	}
	return s, nil
}

// Validate checks scenario semantics and fills defaults. Every reject
// carries errs.Config.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return errs.Newf(errs.Config, "load: scenario needs a name")
	}
	t := &s.Topology
	if t.LANs <= 0 || t.MachinesPerLAN <= 0 {
		return errs.Newf(errs.Config, "load: %s: topology %dx%d must be positive", s.Name, t.LANs, t.MachinesPerLAN)
	}
	if _, ok := profileByName(t.Profile); !ok {
		return errs.Newf(errs.Config, "load: %s: unknown link profile %q", s.Name, t.Profile)
	}
	if t.Scale < 0 {
		return errs.Newf(errs.Config, "load: %s: profile scale %v must be >= 0", s.Name, t.Scale)
	}
	if t.CampusesEvery < 0 || t.LANCapacityBps < 0 {
		return errs.Newf(errs.Config, "load: %s: campuses_every and lan_capacity_bps must be >= 0", s.Name)
	}
	// One machine is the client's; servers occupy their own machines.
	if s.Servers <= 0 || s.Servers >= s.Machines() {
		return errs.Newf(errs.Config, "load: %s: %d servers need a grid of more than %d machines (one is the client's)",
			s.Name, s.Servers, s.Servers)
	}
	if s.Workers <= 0 {
		return errs.Newf(errs.Config, "load: %s: workers must be positive", s.Name)
	}
	if len(s.Workload) == 0 {
		return errs.Newf(errs.Config, "load: %s: workload mix is empty", s.Name)
	}
	for i := range s.Workload {
		w := &s.Workload[i]
		switch w.Kind {
		case KindSync, KindAsync, KindBatched, KindCapability:
		default:
			return errs.Newf(errs.Config, "load: %s: workload[%d]: unknown kind %q", s.Name, i, w.Kind)
		}
		if w.Weight <= 0 {
			return errs.Newf(errs.Config, "load: %s: workload[%d] (%s): weight must be positive", s.Name, i, w.Kind)
		}
		if w.Ints < 0 {
			return errs.Newf(errs.Config, "load: %s: workload[%d] (%s): ints must be >= 0", s.Name, i, w.Kind)
		}
		if w.Ints == 0 {
			w.Ints = 16
		}
	}
	switch s.Arrival.Mode {
	case ArrivalClosed:
		if s.Arrival.RatePerSec != 0 {
			return errs.Newf(errs.Config, "load: %s: closed-loop arrival does not take a rate (issue is completion-paced)", s.Name)
		}
	case ArrivalOpen:
		if s.Arrival.RatePerSec <= 0 {
			return errs.Newf(errs.Config, "load: %s: open-loop arrival needs rate_per_sec > 0", s.Name)
		}
	default:
		return errs.Newf(errs.Config, "load: %s: arrival mode %q is not %q or %q", s.Name, s.Arrival.Mode, ArrivalOpen, ArrivalClosed)
	}
	if s.DurationMS <= 0 {
		return errs.Newf(errs.Config, "load: %s: duration_ms must be positive", s.Name)
	}
	if s.DeadlineMS < 0 {
		return errs.Newf(errs.Config, "load: %s: deadline_ms must be >= 0", s.Name)
	}
	if s.MaxOps < 0 {
		return errs.Newf(errs.Config, "load: %s: max_ops must be >= 0", s.Name)
	}
	if s.DeadlineMS == 0 {
		s.DeadlineMS = 1000
	}
	for i, f := range s.Faults {
		if f.AtMS < 0 || f.AtMS > s.DurationMS {
			return errs.Newf(errs.Config, "load: %s: faults[%d] at %dms is outside the %dms run", s.Name, i, f.AtMS, s.DurationMS)
		}
		switch f.Kind {
		case FaultCrash, FaultRestart:
			if f.Machine == "" {
				return errs.Newf(errs.Config, "load: %s: faults[%d] (%s) needs a machine", s.Name, i, f.Kind)
			}
			if f.Peer != "" {
				return errs.Newf(errs.Config, "load: %s: faults[%d] (%s) does not take a peer", s.Name, i, f.Kind)
			}
		case FaultPartition, FaultHeal:
			if f.Machine == "" || f.Peer == "" {
				return errs.Newf(errs.Config, "load: %s: faults[%d] (%s) needs machine and peer", s.Name, i, f.Kind)
			}
		default:
			return errs.Newf(errs.Config, "load: %s: faults[%d]: unknown kind %q", s.Name, i, f.Kind)
		}
	}
	if s.Churn.MigrateEveryMS < 0 {
		return errs.Newf(errs.Config, "load: %s: churn migrate_every_ms must be >= 0", s.Name)
	}
	return nil
}
