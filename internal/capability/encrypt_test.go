package capability

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"openhpcxx/internal/core"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/wire"
	"openhpcxx/internal/xdr"
)

// This file holds what the AES-GCM encrypt promises besides its layout
// (hotpath_test.go): which frame a tag admits, that no nonce repeats, and
// that a peer still speaking CTR + HMAC is refused once and for good.

func TestFrameIdentityIsBoundUnambiguously(t *testing.T) {
	// wire accepts a NUL inside a name, and the old MAC input joined object
	// and method with one: a frame for ("a\x00b", "c") passed as ("a", "b\x00c").
	sealed := &Frame{Object: "a\x00b", Method: "c", Dir: Request}
	swapped := &Frame{Object: "a", Method: "b\x00c", Dir: Request}
	e := MustNewEncrypt(fixedKey(), ScopeAlways)
	body, env, err := e.Process(sealed, midBody)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Unprocess(swapped, env, body); faultCode(err) != wire.FaultCapability {
		t.Errorf("encrypt opened a frame for %q.%q as %q.%q: %v", sealed.Object, sealed.Method, swapped.Object, swapped.Method, err)
	}
	// Auth keeps its MAC input for old peers, so it refuses such names.
	a := MustNewAuth("alice", []byte("secret"), ScopeAlways)
	for _, f := range []*Frame{sealed, swapped, {Object: "o", Method: "m\x00"}} {
		if _, _, err := a.Process(f, midBody); faultCode(err) != wire.FaultAuth {
			t.Errorf("auth signed %q.%q: %v", f.Object, f.Method, err)
		}
	}
	// Even a correct MAC over such a name, as an old peer would send it.
	nonce := bytes.Repeat([]byte{7}, authNonceLen)
	forged, err := xdr.Marshal(&legacyAuthEnvelope{Principal: "alice", Nonce: nonce,
		MAC: legacyMAC([]byte("secret"), sealed, nonce, "alice\x00", midBody)})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Frame{sealed, swapped} {
		if _, err := a.Unprocess(f, forged, midBody); faultCode(err) != wire.FaultAuth {
			t.Errorf("auth verified %q.%q: %v", f.Object, f.Method, err)
		}
	}

	// Object, method and direction each changed alone, for both kinds.
	at := reqFrame()
	others := map[string]*Frame{
		"object":                             {Object: at.Object + "x", Method: at.Method, Dir: at.Dir},
		"method":                             {Object: at.Object, Method: at.Method + "x", Dir: at.Dir},
		"direction":                          {Object: at.Object, Method: at.Method, Dir: Reply},
		"a byte moved from method to object": {Object: at.Object + at.Method[:1], Method: at.Method[1:], Dir: at.Dir},
	}
	for _, c := range []Capability{e, a} {
		for name, other := range others {
			body, env, err := c.Process(at, midBody)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Unprocess(other, env, body); err == nil {
				t.Errorf("%s: a frame passed with its %s changed", c.Kind(), name)
			}
		}
		body, env, err := c.Process(at, midBody)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := c.Unprocess(reqFrame(), env, body); err != nil || !bytes.Equal(got, midBody) {
			t.Errorf("%s: the frame under its own identity: %v", c.Kind(), err)
		}
	}
}

func TestEncryptNoncesNeverRepeat(t *testing.T) {
	// One instance under eight goroutines, and its twin (same key, as a
	// server holds it) under eight more: 160 000 nonces, all distinct.
	e := MustNewEncrypt(fixedKey(), ScopeAlways)
	const goroutines, calls = 8, 10000
	nonces := make([][]byte, 2*goroutines)
	var wg sync.WaitGroup
	for i, c := range []Capability{e, twin(t, e)} {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(c Capability, out *[]byte) {
				defer wg.Done()
				f := reqFrame()
				for n := 0; n < calls; n++ {
					_, env, err := c.Process(f, nil)
					if err != nil {
						t.Error(err)
						return
					}
					*out = append(*out, env...)
				}
			}(c, &nonces[i*goroutines+g])
		}
	}
	wg.Wait()
	seen := make(map[[12]byte]bool, 2*goroutines*calls)
	for _, run := range nonces {
		for ; len(run) > 0; run = run[12:] {
			n := [12]byte(run)
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

func TestEncryptNonceCounterWraps(t *testing.T) {
	// The counter is added into the low eight bytes and wraps there: the
	// top four never change, nothing panics, and the nonces stay distinct.
	e := MustNewEncrypt(fixedKey(), ScopeAlways)
	e.sent.Store(^uint64(0) - 2)
	f := reqFrame()
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		body, env, err := e.Process(f, midBody)
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(env)] || !bytes.Equal(env[:4], e.start[:4]) {
			t.Fatalf("nonce %d across the wrap: %x (start %x)", i, env, e.start)
		}
		seen[string(env)] = true
		if got, err := e.Unprocess(f, env, body); err != nil || !bytes.Equal(got, midBody) {
			t.Fatalf("round trip %d across the wrap: %v", i, err)
		}
	}
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

func TestOldEncryptPeerIsRefusedOnce(t *testing.T) {
	key := fixedKey()
	e, old := MustNewEncrypt(key, ScopeAlways), newLegacyEncrypt(key)
	f := reqFrame()
	// Frame against frame: each side refuses the other's by the length of
	// its envelope, before any MAC or cipher runs — the body is untouched.
	for _, c := range []struct {
		name     string
		from, to Capability
	}{{"an old frame into the new Unprocess", old, e}, {"a new frame into the old verifier", e, old}} {
		body, env, err := c.from.Process(f, midBody)
		if err != nil {
			t.Fatal(err)
		}
		arrived := append([]byte(nil), body...)
		if _, err := c.to.Unprocess(f, env, body); faultCode(err) != wire.FaultCapability {
			t.Errorf("%s: %v, want a capability fault", c.name, err)
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
	// attempt with the capability code — permanent, not a transport blip to
	// retry — the servant never runs, and the request having reached the
	// server, the client's quota charge stands (TestNoRefundOnServerFault).
	for _, c := range []struct {
		name           string
		client, server Capability
	}{{"old client, new server", old, e}, {"new client, old server", e, old}} {
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
		if faultCode(err) != wire.FaultCapability || errs.CodeOf(err) != errs.Capability || errs.ClassOf(err) != errs.ClassPermanent {
			t.Errorf("%s: %v (code %v), want a permanent capability fault", c.name, err, errs.CodeOf(err))
		}
		if base.calls != 1 || s.Calls() != 0 || q.Used() != 1 {
			t.Errorf("%s: %d attempts, %d servant calls, %d charged; want 1, 0, 1", c.name, base.calls, s.Calls(), q.Used())
		}
	}
}
