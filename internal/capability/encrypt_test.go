package capability

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"openhpcxx/internal/core"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/wire"
)

// This file holds what the AES-GCM encrypt promises besides its layout
// (hotpath_test.go): which frame a tag admits, that no nonce repeats, and
// that a peer still speaking CTR + HMAC is refused once and for good. The
// helpers take the capability, so auth_test.go holds auth to the same.

func TestFrameIdentityIsBoundUnambiguously(t *testing.T) {
	// wire accepts a NUL inside a name, and the old MAC input joined object
	// and method with one: a frame for ("a\x00b", "c") passed as ("a", "b\x00c").
	// Both kinds now bind each name behind its length.
	sealed := &Frame{Object: "a\x00b", Method: "c", Dir: Request}
	swapped := &Frame{Object: "a", Method: "b\x00c", Dir: Request}
	e := MustNewEncrypt(fixedKey(), ScopeAlways)
	a := MustNewAuth("alice", []byte("secret"), ScopeAlways)
	at := reqFrame()
	others := map[string]*Frame{
		"object":                             {Object: at.Object + "x", Method: at.Method, Dir: at.Dir},
		"method":                             {Object: at.Object, Method: at.Method + "x", Dir: at.Dir},
		"direction":                          {Object: at.Object, Method: at.Method, Dir: Reply},
		"a byte moved from method to object": {Object: at.Object + at.Method[:1], Method: at.Method[1:], Dir: at.Dir},
	}
	for _, c := range []Capability{e, a} {
		body, env, err := c.Process(sealed, midBody)
		if err != nil {
			t.Fatalf("%s refused %q.%q: %v", c.Kind(), sealed.Object, sealed.Method, err)
		}
		if _, err := c.Unprocess(swapped, env, body); err == nil {
			t.Errorf("%s passed a frame for %q.%q as %q.%q", c.Kind(), sealed.Object, sealed.Method, swapped.Object, swapped.Method)
		}
		if got := roundTrip(t, c, sealed, midBody); !bytes.Equal(got, midBody) { // a rejected body is spent
			t.Errorf("%s: %q.%q under its own identity came back changed", c.Kind(), sealed.Object, sealed.Method)
		}
		// Object, method and direction each changed alone.
		for name, other := range others {
			body, env, err := c.Process(at, midBody)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Unprocess(other, env, body); err == nil {
				t.Errorf("%s: a frame passed with its %s changed", c.Kind(), name)
			}
		}
		body, env, err = c.Process(at, midBody)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := c.Unprocess(reqFrame(), env, body); err != nil || !bytes.Equal(got, midBody) {
			t.Errorf("%s: the frame under its own identity: %v", c.Kind(), err)
		}
	}

	// Auth's tag covers the principal too: with the name in the envelope
	// rewritten to the receiver's, so that the tag alone decides, a holder of
	// the same secret under another name refuses the frame — changed alone,
	// or grown by a byte taken from the object.
	_, env, err := a.Process(at, midBody)
	if err != nil {
		t.Fatal(err)
	}
	sent := decodeAuthEnvelope(t, env)
	for name, c := range map[string]struct {
		principal string
		f         *Frame
	}{
		"principal":                             {"bob", at},
		"a byte moved from object to principal": {"alice" + at.Object[:1], &Frame{Object: at.Object[1:], Method: at.Method, Dir: at.Dir}},
	} {
		renamed := encodeAuthEnvelope(t, authEnvelope{c.principal, sent.Nonce, sent.Tag})
		_, err := MustNewAuth(c.principal, []byte("secret"), ScopeAlways).Unprocess(c.f, renamed, midBody)
		if faultCode(err) != wire.FaultAuth || !strings.Contains(err.Error(), "verification") {
			t.Errorf("auth: a frame passed with its %s changed: %v", name, err)
		}
	}
}

// noncesNeverRepeat drives one instance under eight goroutines, and its twin
// (same key, as a server holds it) under eight more: 160 000 nonces, each
// the 12 bytes at nonceAt of an envelope of envLen, all distinct.
func noncesNeverRepeat(t *testing.T, c Capability, envLen, nonceAt int) {
	const goroutines, calls = 8, 10000
	envs := make([][]byte, 2*goroutines)
	var wg sync.WaitGroup
	for i, c := range []Capability{c, twin(t, c)} {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(c Capability, out *[]byte) {
				defer wg.Done()
				f := reqFrame()
				for n := 0; n < calls; n++ {
					_, env, err := c.Process(f, nil)
					if err != nil || len(env) != envLen {
						t.Errorf("an envelope of %d bytes, want %d: %v", len(env), envLen, err)
						return
					}
					*out = append(*out, env...)
				}
			}(c, &envs[i*goroutines+g])
		}
	}
	wg.Wait()
	seen := make(map[[12]byte]bool, 2*goroutines*calls)
	for _, run := range envs {
		for ; len(run) > 0; run = run[envLen:] {
			n := [12]byte(run[nonceAt:])
			if seen[n] {
				t.Fatalf("nonce %x used twice", n)
			}
			seen[n] = true
		}
	}
	if len(seen) != 2*goroutines*calls {
		t.Fatalf("%d nonces, want %d", len(seen), 2*goroutines*calls)
	}
}

func TestEncryptNoncesNeverRepeat(t *testing.T) {
	noncesNeverRepeat(t, MustNewEncrypt(fixedKey(), ScopeAlways), 12, 0)
}

// nonceCounterWraps holds c, whose supply is n, to this: the counter is
// added into the low eight bytes and wraps there — the top four never
// change, nothing panics, and the nonces stay distinct.
func nonceCounterWraps(t *testing.T, c Capability, n *gcm, nonceAt int) {
	n.sent.Store(^uint64(0) - 2)
	f := reqFrame()
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		body, env, err := c.Process(f, midBody)
		if err != nil {
			t.Fatal(err)
		}
		nonce := env[nonceAt : nonceAt+12]
		if seen[string(nonce)] || !bytes.Equal(nonce[:4], n.start[:4]) {
			t.Fatalf("nonce %d across the wrap: %x (start %x)", i, nonce, n.start)
		}
		seen[string(nonce)] = true
		if got, err := c.Unprocess(f, env, body); err != nil || !bytes.Equal(got, midBody) {
			t.Fatalf("round trip %d across the wrap: %v", i, err)
		}
	}
}

func TestEncryptNonceCounterWraps(t *testing.T) {
	e := MustNewEncrypt(fixedKey(), ScopeAlways)
	nonceCounterWraps(t, e, &e.gcm, 0)
}

func TestEncryptInstancesStartApart(t *testing.T) {
	// Every holder of a reference rebuilds the capability from one config
	// (and a client does on every selection): each draws its own start.
	cfg, err := MustNewEncrypt(fixedKey(), ScopeAlways).Config()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[12]byte]bool{}
	for i := 0; i < 1000; i++ {
		c, err := New(KindEncrypt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		seen[c.(*Encrypt).start] = true
	}
	if len(seen) != 1000 {
		t.Fatalf("1000 instances drew %d distinct starting nonces", len(seen))
	}
}

// handBuilt is a factory for one hand-assembled glue, so the invocation
// engine can drive a client half no reference could describe (the registry
// builds today's kinds only).
type handBuilt struct{ glue *Glue }

func (h handBuilt) ID() core.ProtoID                                                  { return "hand-built" }
func (h handBuilt) Applicable(core.ProtoEntry, netsim.Locality, netsim.Locality) bool { return true }
func (h handBuilt) New(core.ProtoEntry, *core.ObjectRef, *core.Context) (core.Protocol, error) {
	return h.glue, nil
}

// countingProto is localProto, counting attempts.
type countingProto struct {
	localProto
	calls int
}

func (p *countingProto) Call(m *wire.Message) (*wire.Message, error) {
	p.calls++
	return p.localProto.Call(m)
}

// oldPeerIsRefusedOnce faces cur with a peer still speaking the format it
// replaced; fault is what either side refuses the other with, code its class.
func oldPeerIsRefusedOnce(t *testing.T, cur, old Capability, fault wire.FaultCode, code errs.Code) {
	f := reqFrame()
	// Frame against frame: each side refuses the other's by a length in its
	// envelope, before any MAC or cipher runs — the body is untouched.
	for _, c := range []struct {
		name     string
		from, to Capability
	}{{"an old frame into the new Unprocess", old, cur}, {"a new frame into the old verifier", cur, old}} {
		body, env, err := c.from.Process(f, midBody)
		if err != nil {
			t.Fatal(err)
		}
		arrived := append([]byte(nil), body...)
		if _, err := c.to.Unprocess(f, env, body); faultCode(err) != fault {
			t.Errorf("%s: %v, want a %v fault", c.name, err, fault)
		}
		if !bytes.Equal(body, arrived) {
			t.Errorf("%s: the body was worked on before the frame was refused", c.name)
		}
	}
	body, env, _ := old.Process(f, midBody)
	if got, err := old.Unprocess(f, env, body); err != nil || !bytes.Equal(got, midBody) {
		t.Fatalf("the old codec does not round-trip with itself: %v", err)
	}

	// Invocation against server, each way round: the call ends after one
	// attempt with the fault's code — permanent, not a transport blip to
	// retry — the servant never runs, and the request having reached the
	// server, the client's quota charge stands (TestNoRefundOnServerFault).
	for _, c := range []struct {
		name           string
		client, server Capability
	}{{"old client, new server", old, cur}, {"new client, old server", cur, old}} {
		rt := world(t)
		server, s := echoServer(t, rt, "server", "m1")
		server.RegisterGlue("t", NewGlueServer("t", []Capability{NewQuota(0, time.Time{}), c.server}, rt.Clock()))
		client, err := rt.NewContext("client", "m2")
		if err != nil {
			t.Fatal(err)
		}
		q := NewQuota(3, time.Time{})
		base := &countingProto{localProto: localProto{handle: server.Dispatch}}
		client.Pool().Register(handBuilt{NewGlue("t", base, rt.Clock(), q, c.client)})
		gp := client.NewGlobalPtr(server.NewRef(s, core.ProtoEntry{ID: "hand-built"}))
		_, err = gp.Invoke("echo", midBody)
		if faultCode(err) != fault || errs.CodeOf(err) != code || errs.ClassOf(err) != errs.ClassPermanent {
			t.Errorf("%s: %v (code %v), want a permanent %v fault", c.name, err, errs.CodeOf(err), fault)
		}
		if base.calls != 1 || s.Calls() != 0 || q.Used() != 1 {
			t.Errorf("%s: %d attempts, %d servant calls, %d charged; want 1, 0, 1", c.name, base.calls, s.Calls(), q.Used())
		}
	}
}

func TestOldEncryptPeerIsRefusedOnce(t *testing.T) {
	oldPeerIsRefusedOnce(t, MustNewEncrypt(fixedKey(), ScopeAlways), newLegacyEncrypt(fixedKey()), wire.FaultCapability, errs.Capability)
}
