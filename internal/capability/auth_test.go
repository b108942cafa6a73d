package capability

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"strings"
	"testing"

	"openhpcxx/internal/errs"
	"openhpcxx/internal/wire"
	"openhpcxx/internal/xdr"
)

// This file holds what the AES-GCM auth promises: its layout against an
// independent GCM, what its Unprocess refuses, that no nonce repeats, that
// the body is read where it lies, and that a peer still signing with
// HMAC-SHA256 is refused once and for good (helpers in encrypt_test.go).

// authEnvelope is auth's envelope through the struct codec, sharing nothing
// with the hand-laid one: XDR {string, opaque, opaque}. The old HMAC format
// had the same shape with a 16-byte nonce and a 32-byte MAC.
type authEnvelope struct {
	Principal string
	Nonce     []byte
	Tag       []byte
}

func (v *authEnvelope) MarshalXDR(e *xdr.Encoder) error {
	e.PutString(v.Principal)
	e.PutOpaque(v.Nonce)
	e.PutOpaque(v.Tag)
	return nil
}

func (v *authEnvelope) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	if v.Principal, err = d.String(); err != nil {
		return err
	}
	if v.Nonce, err = d.Opaque(); err != nil {
		return err
	}
	v.Tag, err = d.Opaque()
	return err
}

func encodeAuthEnvelope(t testing.TB, v authEnvelope) []byte {
	t.Helper()
	b, err := xdr.Marshal(&v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func decodeAuthEnvelope(t testing.TB, env []byte) authEnvelope {
	t.Helper()
	var v authEnvelope
	if err := xdr.Unmarshal(env, &v); err != nil {
		t.Fatalf("the struct codec on an auth envelope: %v", err)
	}
	return v
}

// legacyAuth is the auth capability as it was before AES-GCM, for the tests
// that face the new one with an old peer: HMAC-SHA256 (legacyMAC) under the
// raw secret over a random 16-byte nonce, the identity and the body.
type legacyAuth struct {
	Capability // Applicable and Config: an Auth of the same principal and secret
	principal  string
	secret     []byte
}

func newLegacyAuth(principal string, secret []byte) *legacyAuth {
	return &legacyAuth{Capability: MustNewAuth(principal, secret, ScopeAlways), principal: principal, secret: secret}
}

func (l *legacyAuth) Process(f *Frame, body []byte) ([]byte, []byte, error) {
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		return nil, nil, err
	}
	env, err := xdr.Marshal(&authEnvelope{l.principal, nonce, legacyMAC(l.secret, f, nonce, l.principal+"\x00", body)})
	return body, env, err
}

func (l *legacyAuth) Unprocess(f *Frame, envelope, body []byte) ([]byte, error) {
	var v authEnvelope
	if err := xdr.Unmarshal(envelope, &v); err != nil {
		return nil, wire.Faultf(wire.FaultAuth, "auth envelope: %v", err)
	}
	if v.Principal != l.principal {
		return nil, wire.Faultf(wire.FaultAuth, "unknown principal %q", v.Principal)
	}
	if len(v.Nonce) != 16 {
		return nil, wire.Faultf(wire.FaultAuth, "auth nonce has %d bytes", len(v.Nonce))
	}
	if !hmac.Equal(v.Tag, legacyMAC(l.secret, f, v.Nonce, l.principal+"\x00", body)) {
		return nil, wire.Faultf(wire.FaultAuth, "signature verification failed for %q", l.principal)
	}
	return body, nil
}

func TestAuthWireGolden(t *testing.T) {
	// An independent AES-256-GCM, given only the secret and the documented
	// construction — key HMAC-SHA256(secret, "openhpcxx/auth/v2"); envelope
	// XDR {principal, nonce[12], tag[16]}; tag that of sealing
	// len32(principal) ‖ principal ‖ len32(object) ‖ object ‖ len32(method) ‖
	// method ‖ dir with the body as additional data — computes the tag
	// Process wrote, and Unprocess accepts the tag it computes.
	secret := []byte("benchmark-secret")
	kdf := hmac.New(sha256.New, secret)
	kdf.Write([]byte("openhpcxx/auth/v2"))
	block, err := aes.NewCipher(kdf.Sum(nil))
	if err != nil {
		t.Fatal(err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		t.Fatal(err)
	}
	tagOf := func(principal string, f *Frame, nonce, body []byte) []byte {
		n := len(principal)
		id := append([]byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}, principal...)
		id = append(id, goldenAAD(f.Object, f.Method, f.Dir)...)
		return aead.Seal(nil, nonce, id, body)[len(id):]
	}
	for _, principal := range []string{"p", "benchmark", "twelve-bytes"} { // 3, 3 and 0 bytes of padding
		a := MustNewAuth(principal, secret, ScopeAlways)
		seen := map[string]bool{}
		for _, f := range []*Frame{reqFrame(), {Object: "o", Method: "", Dir: Reply}} {
			for _, body := range [][]byte{midBody, nil} {
				_, env, err := a.Process(f, body)
				if err != nil {
					t.Fatal(err)
				}
				// The struct codec reads what Process laid out by hand and
				// re-encodes it byte for byte.
				got := decodeAuthEnvelope(t, env)
				if got.Principal != principal || len(got.Nonce) != 12 || len(got.Tag) != 16 {
					t.Fatalf("the envelope holds %q, a nonce of %d bytes and a tag of %d", got.Principal, len(got.Nonce), len(got.Tag))
				}
				if re := encodeAuthEnvelope(t, got); !bytes.Equal(re, env) {
					t.Fatalf("the struct codec wrote\n%x, Process wrote\n%x", re, env)
				}
				if seen[string(got.Nonce)] {
					t.Fatalf("nonce %x used twice", got.Nonce)
				}
				seen[string(got.Nonce)] = true
				if want := tagOf(principal, f, got.Nonce, body); !bytes.Equal(got.Tag, want) {
					t.Fatalf("%+v: Process wrote tag %x, an independent GCM %x", f, got.Tag, want)
				}
				// And the other way.
				nonce := bytes.Repeat([]byte{7}, 12)
				theirs := encodeAuthEnvelope(t, authEnvelope{principal, nonce, tagOf(principal, f, nonce, body)})
				if out, err := a.Unprocess(f, theirs, body); err != nil || !bytes.Equal(out, body) {
					t.Fatalf("Unprocess of an independent GCM's tag on %+v: %v", f, err)
				}
			}
		}
	}
}

func TestAuthEnvelopeRejections(t *testing.T) {
	a := MustNewAuth("alice", []byte("s"), ScopeAlways)
	f := reqFrame()
	body := []byte("b")
	_, env, err := a.Process(f, body)
	if err != nil {
		t.Fatal(err)
	}
	good := decodeAuthEnvelope(t, env)
	cases := map[string][]byte{
		"empty":           nil,
		"truncated":       env[:len(env)-1],
		"trailing bytes":  append(append([]byte(nil), env...), 0, 0, 0, 0),
		"wrong principal": encodeAuthEnvelope(t, authEnvelope{"mallory", good.Nonce, good.Tag}),
		"11-byte nonce":   encodeAuthEnvelope(t, authEnvelope{"alice", good.Nonce[:11], good.Tag}),
		"16-byte nonce":   encodeAuthEnvelope(t, authEnvelope{"alice", append(good.Nonce[:12:12], 0, 0, 0, 0), good.Tag}),
		"15-byte tag":     encodeAuthEnvelope(t, authEnvelope{"alice", good.Nonce, good.Tag[:15]}),
		"no tag":          encodeAuthEnvelope(t, authEnvelope{"alice", good.Nonce, nil}),
		"flipped nonce":   encodeAuthEnvelope(t, authEnvelope{"alice", flipped(good.Nonce, 11), good.Tag}),
		"flipped tag":     encodeAuthEnvelope(t, authEnvelope{"alice", good.Nonce, flipped(good.Tag, 0)}),
	}
	for name, bad := range cases {
		if _, err := a.Unprocess(f, bad, body); faultCode(err) != wire.FaultAuth {
			t.Errorf("%s: %v, want an auth fault", name, err)
		}
	}
	if _, err := a.Unprocess(f, env, flipped(body, 0)); faultCode(err) != wire.FaultAuth {
		t.Errorf("flipped body: %v, want an auth fault", err)
	}
	if _, err := a.Unprocess(f, env, body); err != nil {
		t.Fatalf("the untouched envelope: %v", err)
	}
}

// authNonceAt is where the nonce lies in p's envelope, and authEnvLen how
// long that is: XDR pads the principal, the nonce and tag are whole words.
func authNonceAt(p string) int { return 4 + (len(p)+3)&^3 + 4 }
func authEnvLen(p string) int  { return authNonceAt(p) + 12 + 4 + 16 }

func TestAuthNoncesNeverRepeat(t *testing.T) {
	noncesNeverRepeat(t, MustNewAuth("alice", []byte("secret"), ScopeAlways), authEnvLen("alice"), authNonceAt("alice"))
}

func TestAuthNonceCounterWraps(t *testing.T) {
	a := MustNewAuth("alice", []byte("secret"), ScopeAlways)
	nonceCounterWraps(t, a, &a.gcm, authNonceAt("alice"))
}

func TestOldAuthPeerIsRefusedOnce(t *testing.T) {
	a, old := MustNewAuth("alice", []byte("secret"), ScopeAlways), newLegacyAuth("alice", []byte("secret"))
	oldPeerIsRefusedOnce(t, a, old, wire.FaultAuth, errs.Auth)
	// What refuses the old frame is the length of its nonce — no key is used.
	_, env, err := old.Process(reqFrame(), midBody)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Unprocess(reqFrame(), env, midBody); err == nil || !strings.Contains(err.Error(), "nonce has 16 bytes") {
		t.Errorf("an old frame was refused with %v, want the nonce-length check", err)
	}
}

func TestAuthReadsBodyOnceAndCopiesNothing(t *testing.T) {
	skipUnderRace(t)
	// A hand-built frame, so the envelope (52 bytes here) is an allocation of
	// its own; nothing else is, whatever the body's size, and the body comes
	// back as the slice that went in, on both sides.
	a := MustNewAuth("benchmark", []byte("benchmark-secret"), ScopeAlways)
	peer := twin(t, a)
	f := reqFrame()
	for _, size := range []int{4 << 10, 256 << 10} {
		body := bytes.Repeat([]byte{0xa5}, size)
		got := allocBytesPerRun(50, func() {
			sent, env, err := a.Process(f, body)
			if err != nil || &sent[0] != &body[0] {
				t.Fatalf("Process: %v; the body it returned is a copy: %v", err, &sent[0] != &body[0])
			}
			out, err := peer.Unprocess(f, env, sent)
			if err != nil || &out[0] != &body[0] || len(out) != size {
				t.Fatalf("Unprocess: %v; the body it returned is a copy: %v", err, &out[0] != &body[0])
			}
		})
		if got > 96 {
			t.Errorf("a %d-byte body: %d bytes allocated per round trip, want at most 96", size, got)
		}
	}
}

// BenchmarkBodyPass prices the three ways to authenticate a 4 KiB body that
// PRs 19 and 22 chose between (EXPERIMENTS.md quotes it): an HMAC-SHA256
// pass, a GCM seal, and a GCM tag with the body as additional data.
func BenchmarkBodyPass(b *testing.B) {
	body, nonce, id := make([]byte, 4100), make([]byte, 12), make([]byte, 40)
	block, err := aes.NewCipher(fixedKey())
	if err != nil {
		b.Fatal(err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		b.Fatal(err)
	}
	mac := hmac.New(sha256.New, fixedKey())
	out := make([]byte, 0, len(body)+16)
	for name, pass := range map[string]func(){
		"hmac-sha256": func() { mac.Reset(); mac.Write(body); out = mac.Sum(out[:0]) },
		"gcm-seal":    func() { out = aead.Seal(out[:0], nonce, body, id) },
		"gcm-tag":     func() { out = aead.Seal(out[:0], nonce, id, body) },
	} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				pass()
			}
		})
	}
}
