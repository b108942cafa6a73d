package capability

import (
	"bytes"
	"crypto/rand"
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/wire"
)

var (
	locA1 = netsim.Locality{Machine: "mA", LAN: "lan1", Campus: "c1", Process: "p1"}
	locB1 = netsim.Locality{Machine: "mB", LAN: "lan1", Campus: "c1", Process: "p1"}
	locC2 = netsim.Locality{Machine: "mC", LAN: "lan2", Campus: "c1", Process: "p1"}
	locD3 = netsim.Locality{Machine: "mD", LAN: "lan3", Campus: "c2", Process: "p1"}
)

func reqFrame() *Frame {
	return &Frame{Object: "ctx/obj-1", Method: "echo", Dir: Request, Clock: clock.Real{}}
}

func key32() []byte {
	k := make([]byte, 32)
	rand.Read(k)
	return k
}

// roundTrip pushes a body through Process then Unprocess on a rebuilt
// twin (as the server side would) and returns the result.
func roundTrip(t *testing.T, c Capability, f *Frame, body []byte) []byte {
	t.Helper()
	nb, env, err := c.Process(f, body)
	if err != nil {
		t.Fatalf("%s Process: %v", c.Kind(), err)
	}
	out, err := twin(t, c).Unprocess(f, env, nb)
	if err != nil {
		t.Fatalf("%s Unprocess: %v", c.Kind(), err)
	}
	return out
}

func TestScopeApplies(t *testing.T) {
	cases := []struct {
		scope          Scope
		vsB1, vsC2, d3 bool
	}{
		{ScopeAlways, true, true, true},
		{ScopeCrossMachine, true, true, true},
		{ScopeCrossLAN, false, true, true},
		{ScopeCrossCampus, false, false, true},
	}
	for _, c := range cases {
		if got := c.scope.Applies(locA1, locB1); got != c.vsB1 {
			t.Errorf("%s vs same-LAN: %v", c.scope, got)
		}
		if got := c.scope.Applies(locA1, locC2); got != c.vsC2 {
			t.Errorf("%s vs same-campus: %v", c.scope, got)
		}
		if got := c.scope.Applies(locA1, locD3); got != c.d3 {
			t.Errorf("%s vs other campus: %v", c.scope, got)
		}
	}
	if ScopeCrossMachine.Applies(locA1, locA1) {
		t.Error("cross-machine applies on same machine")
	}
	if ScopeAlways.String() != "always" || Scope(99).String() != "scope(99)" {
		t.Error("scope names")
	}
}

func TestRegistryUnknownKind(t *testing.T) {
	if _, err := New("no-such-kind", nil); err == nil {
		t.Fatal("want error")
	}
	kinds := Kinds()
	for _, want := range []string{KindAuth, KindEncrypt, KindQuota, KindCompress, KindChecksum, KindTrace} {
		found := false
		for _, k := range kinds {
			if k == want {
				found = true
			}
		}
		if !found {
			t.Errorf("kind %q not registered", want)
		}
	}
}

func TestRegisterKindDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	RegisterKind(KindTrace, func([]byte) (Capability, error) { return nil, nil })
}

func TestEncryptRoundTrip(t *testing.T) {
	e := MustNewEncrypt(key32(), ScopeAlways)
	body := []byte("secret payload")
	out := roundTrip(t, e, reqFrame(), body)
	if !bytes.Equal(out, body) {
		t.Fatalf("got %q", out)
	}
}

func TestEncryptHidesPlaintext(t *testing.T) {
	e := MustNewEncrypt(key32(), ScopeAlways)
	body := bytes.Repeat([]byte("attack at dawn "), 10)
	ct, _, err := e.Process(reqFrame(), body)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(ct, []byte("attack")) {
		t.Fatal("ciphertext leaks plaintext")
	}
	if bytes.Equal(ct, body) {
		t.Fatal("no encryption happened")
	}
}

func TestEncryptDoesNotMutateInput(t *testing.T) {
	e := MustNewEncrypt(key32(), ScopeAlways)
	body := []byte("immutable")
	orig := append([]byte(nil), body...)
	if _, _, err := e.Process(reqFrame(), body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, orig) {
		t.Fatal("Process mutated caller's body")
	}
}

func TestEncryptTamperDetection(t *testing.T) {
	e := MustNewEncrypt(key32(), ScopeAlways)
	f := reqFrame()
	ct, env, err := e.Process(f, []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a ciphertext bit.
	bad := append([]byte(nil), ct...)
	bad[0] ^= 1
	if _, err := e.Unprocess(f, env, bad); err == nil {
		t.Fatal("tampered ciphertext accepted")
	}
	// Replay under a different method must fail (MAC binds the frame).
	f2 := &Frame{Object: f.Object, Method: "other", Dir: Request}
	if _, err := e.Unprocess(f2, env, ct); err == nil {
		t.Fatal("cross-method replay accepted")
	}
	// Direction flip must fail.
	f3 := &Frame{Object: f.Object, Method: f.Method, Dir: Reply}
	if _, err := e.Unprocess(f3, env, ct); err == nil {
		t.Fatal("direction flip accepted")
	}
	// Truncated envelope.
	if _, err := e.Unprocess(f, env[:10], ct); err == nil {
		t.Fatal("short envelope accepted")
	}
}

func TestEncryptWrongKey(t *testing.T) {
	e1 := MustNewEncrypt(key32(), ScopeAlways)
	e2 := MustNewEncrypt(key32(), ScopeAlways)
	f := reqFrame()
	ct, env, _ := e1.Process(f, []byte("data"))
	if _, err := e2.Unprocess(f, env, ct); err == nil {
		t.Fatal("wrong key accepted")
	}
}

func TestEncryptKeyLength(t *testing.T) {
	if _, err := NewEncrypt(make([]byte, 16), ScopeAlways); err == nil {
		t.Fatal("short key accepted")
	}
}

func TestAuthRoundTrip(t *testing.T) {
	a := MustNewAuth("alice", []byte("s3cret"), ScopeCrossLAN)
	body := []byte("hello")
	out := roundTrip(t, a, reqFrame(), body)
	if !bytes.Equal(out, body) {
		t.Fatalf("got %q", out)
	}
	if a.Principal() != "alice" {
		t.Fatal("principal")
	}
}

func TestAuthRejections(t *testing.T) {
	a := MustNewAuth("alice", []byte("s3cret"), ScopeAlways)
	f := reqFrame()
	body := []byte("hello")
	_, env, err := a.Process(f, body)
	if err != nil {
		t.Fatal(err)
	}

	// Tampered body.
	var fault *wire.Fault
	if _, err := a.Unprocess(f, env, []byte("HELLO")); !errors.As(err, &fault) || fault.Code != wire.FaultAuth {
		t.Fatalf("tampered body: %v", err)
	}
	// Wrong secret.
	b := MustNewAuth("alice", []byte("other"), ScopeAlways)
	if _, err := b.Unprocess(f, env, body); !errors.As(err, &fault) || fault.Code != wire.FaultAuth {
		t.Fatalf("wrong secret: %v", err)
	}
	// Wrong principal.
	c := MustNewAuth("bob", []byte("s3cret"), ScopeAlways)
	if _, err := c.Unprocess(f, env, body); !errors.As(err, &fault) || fault.Code != wire.FaultAuth {
		t.Fatalf("wrong principal: %v", err)
	}
	// Garbage envelope.
	if _, err := a.Unprocess(f, []byte{1, 2, 3}, body); !errors.As(err, &fault) || fault.Code != wire.FaultAuth {
		t.Fatalf("garbage envelope: %v", err)
	}
}

func TestAuthValidation(t *testing.T) {
	if _, err := NewAuth("", []byte("s"), ScopeAlways); err == nil {
		t.Fatal("empty principal accepted")
	}
	if _, err := NewAuth("p", nil, ScopeAlways); err == nil {
		t.Fatal("empty secret accepted")
	}
}

func TestQuotaCount(t *testing.T) {
	q := NewQuota(3, time.Time{})
	f := reqFrame()
	for i := 0; i < 3; i++ {
		if _, _, err := q.Process(f, nil); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	_, _, err := q.Process(f, nil)
	var fault *wire.Fault
	if !errors.As(err, &fault) || fault.Code != wire.FaultQuota {
		t.Fatalf("want quota fault, got %v", err)
	}
	if q.Used() != 3 || q.Remaining() != 0 {
		t.Fatalf("used=%d remaining=%d", q.Used(), q.Remaining())
	}
	// Replies are free.
	rf := &Frame{Dir: Reply}
	if _, _, err := q.Process(rf, nil); err != nil {
		t.Fatalf("reply charged: %v", err)
	}
	if _, err := q.Unprocess(rf, nil, nil); err != nil {
		t.Fatalf("reply unprocess charged: %v", err)
	}
}

func TestQuotaUnlimited(t *testing.T) {
	q := NewQuota(0, time.Time{})
	f := reqFrame()
	for i := 0; i < 10; i++ {
		if _, err := q.Unprocess(f, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if q.Remaining() != ^uint64(0) {
		t.Fatal("unlimited remaining")
	}
}

func TestQuotaDeadline(t *testing.T) {
	start := time.Unix(1_000_000, 0)
	fc := clock.NewFake(start)
	q := NewQuota(0, start.Add(time.Hour))
	f := &Frame{Dir: Request, Clock: fc}
	if _, err := q.Unprocess(f, nil, nil); err != nil {
		t.Fatalf("before deadline: %v", err)
	}
	fc.Advance(2 * time.Hour)
	_, err := q.Unprocess(f, nil, nil)
	var fault *wire.Fault
	if !errors.As(err, &fault) || fault.Code != wire.FaultQuota {
		t.Fatalf("after deadline: %v", err)
	}
	if !strings.Contains(fault.Message, "expired") {
		t.Fatalf("message %q", fault.Message)
	}
}

func TestQuotaConfigRoundTrip(t *testing.T) {
	dl := time.Unix(42, 99)
	q := NewQuota(7, dl)
	cfg, err := q.Config()
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(KindQuota, cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin := c.(*Quota)
	if twin.max != 7 || twin.deadline != dl.UnixNano() {
		t.Fatalf("twin %+v", twin)
	}
	// Twin counters start at zero (server-side copies are independent).
	if twin.Used() != 0 {
		t.Fatal("twin inherited count")
	}
}

func TestCompressRoundTrip(t *testing.T) {
	c := MustNewCompress(6, 16, ScopeAlways)
	body := bytes.Repeat([]byte("abcdefgh"), 512)
	nb, env, err := c.Process(reqFrame(), body)
	if err != nil {
		t.Fatal(err)
	}
	if len(nb) >= len(body) {
		t.Fatalf("compressible body did not shrink: %d -> %d", len(body), len(nb))
	}
	if env[0] != compressDeflate {
		t.Fatal("envelope flag")
	}
	out, err := c.Unprocess(reqFrame(), env, nb)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, body) {
		t.Fatal("round trip mismatch")
	}
}

func TestCompressSmallAndIncompressible(t *testing.T) {
	c := MustNewCompress(6, 64, ScopeAlways)
	small := []byte("tiny")
	nb, env, err := c.Process(reqFrame(), small)
	if err != nil || env[0] != compressIdentity || !bytes.Equal(nb, small) {
		t.Fatalf("small: %v flag=%d", err, env[0])
	}
	out, err := c.Unprocess(reqFrame(), env, nb)
	if err != nil || !bytes.Equal(out, small) {
		t.Fatalf("small unprocess: %v", err)
	}

	random := make([]byte, 4096)
	rand.Read(random)
	nb, env, err = c.Process(reqFrame(), random)
	if err != nil || env[0] != compressIdentity || !bytes.Equal(nb, random) {
		t.Fatalf("incompressible: %v flag=%d", err, env[0])
	}
}

func TestCompressBadEnvelope(t *testing.T) {
	c := MustNewCompress(6, 0, ScopeAlways)
	if _, err := c.Unprocess(reqFrame(), nil, nil); err == nil {
		t.Fatal("empty envelope accepted")
	}
	if _, err := c.Unprocess(reqFrame(), []byte{9}, nil); err == nil {
		t.Fatal("bad flag accepted")
	}
	if _, err := c.Unprocess(reqFrame(), []byte{compressDeflate, 0}, nil); err == nil {
		t.Fatal("short deflate envelope accepted")
	}
	if _, err := c.Unprocess(reqFrame(), []byte{compressDeflate, 0, 0, 0, 8}, []byte("garbage")); err == nil {
		t.Fatal("corrupt deflate stream accepted")
	}
}

func TestCompressLevelValidation(t *testing.T) {
	if _, err := NewCompress(42, 0, ScopeAlways); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := NewCompress(0, 0, ScopeAlways); err != nil {
		t.Fatalf("default level: %v", err)
	}
}

func TestChecksum(t *testing.T) {
	c := NewChecksum()
	body := []byte("check me")
	out := roundTrip(t, c, reqFrame(), body)
	if !bytes.Equal(out, body) {
		t.Fatal("round trip")
	}
	_, env, _ := c.Process(reqFrame(), body)
	if _, err := c.Unprocess(reqFrame(), env, []byte("check mf")); err == nil {
		t.Fatal("corruption undetected")
	}
	if _, err := c.Unprocess(reqFrame(), env[:2], body); err == nil {
		t.Fatal("short envelope accepted")
	}
}

func TestTraceCounters(t *testing.T) {
	tr := NewTrace()
	f := reqFrame()
	if _, _, err := tr.Process(f, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Unprocess(f, nil, make([]byte, 20)); err != nil {
		t.Fatal(err)
	}
	rf := &Frame{Dir: Reply}
	if _, _, err := tr.Process(rf, make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.Requests != 2 || s.Replies != 1 || s.ReqBytes != 30 || s.RepBytes != 5 ||
		s.Processed != 2 || s.Reversed != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// Property: every registered kind's Config round-trips through New and
// every symmetric capability round-trips arbitrary bodies.
func TestQuickSymmetricRoundTrip(t *testing.T) {
	caps := []Capability{
		MustNewEncrypt(key32(), ScopeAlways),
		MustNewAuth("p", []byte("k"), ScopeAlways),
		MustNewCompress(6, 32, ScopeAlways),
		NewChecksum(),
		NewTrace(),
	}
	for _, c := range caps {
		c := c
		f := func(body []byte) bool {
			fr := reqFrame()
			nb, env, err := c.Process(fr, body)
			if err != nil {
				return false
			}
			out, err := c.Unprocess(fr, env, nb)
			return err == nil && bytes.Equal(out, body)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%s: %v", c.Kind(), err)
		}
	}
}

func TestDirectionString(t *testing.T) {
	if Request.String() != "request" || Reply.String() != "reply" {
		t.Fatal("direction names")
	}
}
