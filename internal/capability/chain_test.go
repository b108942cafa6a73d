package capability

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/core"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/wire"
	"openhpcxx/internal/xdr"
)

// This file holds the chain's conservation rule — a request that a
// capability rejects costs nothing on the side whose walk rejected it —
// and round trips through every pair of built-in kinds.

// xReject is a test-registered kind that rejects requests on one side:
// its config names the side, "client" (Process) or "server" (Unprocess).
type xReject struct{ side string }

func (x *xReject) Kind() string                         { return "x-reject" }
func (x *xReject) Applicable(_, _ netsim.Locality) bool { return true }
func (x *xReject) Config() ([]byte, error)              { return []byte(x.side), nil }
func (x *xReject) Process(f *Frame, body []byte) ([]byte, []byte, error) {
	if f.Dir == Request && x.side == "client" {
		return nil, nil, wire.Faultf(wire.FaultAuth, "x-reject: denied by the client")
	}
	return body, nil, nil
}
func (x *xReject) Unprocess(f *Frame, _, body []byte) ([]byte, error) {
	if f.Dir == Request && x.side == "server" {
		return nil, wire.Faultf(wire.FaultAuth, "x-reject: denied by the server")
	}
	return body, nil
}

func init() {
	RegisterKind("x-reject", func(config []byte) (Capability, error) {
		return &xReject{side: string(config)}, nil
	})
}

// balance reads what a chain's charging capabilities hold: each quota's
// used count and each rate limit's tokens, in chain order.
func balance(caps []Capability) []float64 {
	var out []float64
	for _, c := range caps {
		switch c := c.(type) {
		case *Quota:
			out = append(out, float64(c.Used()))
		case *RateLimit:
			out = append(out, c.Tokens())
		}
	}
	return out
}

// twins rebuilds every capability of caps from its configuration, as
// GlueEntry does for the server.
func twins(t testing.TB, caps []Capability) []Capability {
	out := make([]Capability, len(caps))
	for i, c := range caps {
		out[i] = twin(t, c)
	}
	return out
}

func TestServerChainRefundsOnReject(t *testing.T) {
	rt := world(t)
	server, s := echoServer(t, rt, "server", "m1")
	// A frozen clock: a rate limit's tokens change only by charge and refund.
	clk := clock.NewFake(time.Unix(1e9, 0))
	tags := 0
	// call serves serverCaps under a fresh tag and sends one request to it
	// through clientCaps, with tamper (if set) applied to the frame on the
	// wire. It returns the caller's error: the client chain's own, or the
	// server's fault.
	call := func(clientCaps, serverCaps []Capability, tamper func([]byte) []byte) error {
		tags++
		tag := fmt.Sprintf("conserve-%d", tags)
		server.RegisterGlue(tag, NewGlueServer(tag, serverCaps, clk))
		g := NewGlue(tag, &localProto{handle: func(m *wire.Message) *wire.Message {
			if tamper != nil {
				sent := *m
				sent.Body = tamper(m.Body)
				m = &sent
			}
			return server.Dispatch(m)
		}}, clk, clientCaps...)
		reply, err := g.Call(&wire.Message{Type: wire.TRequest, Object: string(s.ID()), Method: "echo", Body: []byte("conserved")})
		if err != nil {
			return err
		}
		if reply.Type == wire.TFault {
			return wire.DecodeFault(reply.Body)
		}
		return nil
	}

	// The server's auth rejects after its quota, last in the chain and so
	// first to un-process, already charged the request.
	q := NewQuota(0, time.Time{})
	err := call([]Capability{MustNewAuth("alice", []byte("right"), ScopeAlways), NewQuota(0, time.Time{})},
		[]Capability{MustNewAuth("alice", []byte("wrong"), ScopeAlways), q}, nil)
	if faultCode(err) != wire.FaultAuth {
		t.Fatalf("[auth, quota] under a wrong server key: %v, want FaultAuth", err)
	}
	if got := q.Used(); got != 0 {
		t.Errorf("[auth, quota]: server quota used = %d after its auth rejected the request, want 0", got)
	}

	// One ciphertext bit flipped on the wire: the server's encrypt rejects
	// after its rate limit took a token.
	key := fixedKey()
	bucket := MustNewRateLimit(1, 5)
	err = call([]Capability{MustNewEncrypt(key, ScopeAlways), MustNewRateLimit(1, 5)},
		[]Capability{MustNewEncrypt(key, ScopeAlways), bucket}, func(b []byte) []byte { return flipped(b, 0) })
	if faultCode(err) != wire.FaultCapability {
		t.Fatalf("[encrypt, ratelimit] with a flipped bit: %v, want FaultCapability", err)
	}
	if got := bucket.Tokens(); got != 5 {
		t.Errorf("[encrypt, ratelimit]: server bucket holds %g tokens after its encrypt rejected the request, want 5", got)
	}

	// x-reject at every position around a quota and a rate limit, rejecting
	// on either side: the walk that rejects hands back what it charged.
	for at := 0; at < 3; at++ {
		for _, side := range []string{"client", "server"} {
			client := slices.Insert([]Capability{NewQuota(10, time.Time{}), MustNewRateLimit(1, 10)}, at, Capability(&xReject{side: side}))
			serverCaps := twins(t, client)
			name := fmt.Sprintf("x-reject at %d rejecting on the %s", at, side)
			clientBefore, serverBefore := balance(client), balance(serverCaps)
			if err := call(client, serverCaps, nil); faultCode(err) != wire.FaultAuth {
				t.Fatalf("%s: %v, want FaultAuth", name, err)
			}
			if got := balance(serverCaps); !slices.Equal(got, serverBefore) {
				t.Errorf("%s: server authority went from %v to %v", name, serverBefore, got)
			}
			// A request the server rejected reached it: the glue cannot tell
			// its fault from the servant's, so the client mirror keeps the
			// request's one charge (TestNoRefundOnServerFault).
			want := clientBefore
			if side == "server" {
				want = []float64{clientBefore[0] + 1, clientBefore[1] - 1}
			}
			if got := balance(client); !slices.Equal(got, want) {
				t.Errorf("%s: client mirror went from %v to %v, want %v", name, clientBefore, got, want)
			}
		}
	}
}

func TestEveryKindPairRoundTrips(t *testing.T) {
	// Every ordered pair of the built-in kinds carries a request and its
	// reply through Glue, Context.Dispatch and GlueServer unchanged.
	rt := world(t)
	server, s := echoServer(t, rt, "server", "m1")
	kinds := len(everyKind(t))
	pairs := 0
	for a := 0; a < kinds; a++ {
		for b := 0; b < kinds; b++ {
			if a == b {
				continue
			}
			all := everyKind(t)
			caps := []Capability{all[a], all[b]}
			tag := caps[0].Kind() + "+" + caps[1].Kind()
			if _, err := GlueEntry(server, tag, core.ProtoEntry{ID: "local"}, caps...); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			g := NewGlue(tag, &localProto{handle: server.Dispatch}, clock.Real{}, caps...)
			reply, err := g.Call(&wire.Message{Type: wire.TRequest, Object: string(s.ID()), Method: "echo", Body: bytes.Clone(midBody)})
			if err != nil || reply.Type != wire.TReply || !bytes.Equal(reply.Body, midBody) {
				t.Fatalf("%s: %v, %v", tag, reply, err)
			}
			pairs++
		}
	}
	if pairs != 56 {
		t.Fatalf("%d pairs of %d kinds, want 56 of 8", pairs, kinds)
	}
}

// FuzzUnwrapRequest feeds hostile envelope chains to a server holding
// every kind: count envelopes, their ids and data read from chain as XDR
// strings and opaques (empty once chain runs out), over body. Nothing may
// panic, and a rejected request must leave the server's quota and rate
// limit as they were.
func FuzzUnwrapRequest(f *testing.F) {
	all := everyKind(f)
	clk := clock.NewFake(time.Unix(1e9, 0))
	gs := NewGlueServer("fuzz", all, clk)
	encode := func(envs []wire.Envelope) []byte {
		e := xdr.NewEncoder(256)
		for _, env := range envs {
			e.PutString(env.ID)
			e.PutOpaque(env.Data)
		}
		return e.Bytes()
	}
	g := NewGlue("fuzz", nil, clk, twins(f, all)...)
	out, err := g.wrapRequest(&wire.Message{Type: wire.TRequest, Object: "ctx/obj-1", Method: "echo",
		Body: []byte("a seed body, long enough to deflate: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa")})
	if err != nil {
		f.Fatal(err)
	}
	valid := out.Envelopes
	if _, err := gs.UnwrapRequest(&wire.Message{Type: wire.TRequest, Object: "ctx/obj-1", Method: "echo", Envelopes: valid, Body: bytes.Clone(out.Body)}); err != nil {
		f.Fatalf("the server rejects the valid seed: %v", err)
	}
	f.Add(uint8(len(valid)), encode(valid), out.Body)
	f.Add(uint8(len(valid)-1), encode(valid[:len(valid)-1]), out.Body)
	swapped := slices.Clone(valid)
	swapped[1].ID, swapped[2].ID = swapped[2].ID, swapped[1].ID
	f.Add(uint8(len(swapped)), encode(swapped), out.Body)

	f.Fuzz(func(t *testing.T, count uint8, chain, body []byte) {
		d := xdr.NewDecoder(chain)
		envs := make([]wire.Envelope, count%16)
		for i := range envs {
			envs[i].ID, _ = d.String()
			envs[i].Data, _ = d.Opaque()
		}
		before := balance(all)
		m := &wire.Message{Type: wire.TRequest, Object: "ctx/obj-1", Method: "echo", Envelopes: envs, Body: bytes.Clone(body)}
		if _, err := gs.UnwrapRequest(m); err != nil {
			if after := balance(all); !slices.Equal(after, before) {
				t.Fatalf("a rejected request moved the server's balances from %v to %v: %v", before, after, err)
			}
		}
	})
}
