package capability

import (
	"bytes"
	"compress/flate"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"openhpcxx/internal/bufpool"
	"openhpcxx/internal/clock"
	"openhpcxx/internal/core"
	"openhpcxx/internal/wire"
	"openhpcxx/internal/xdr"
)

// This file pins the capability hot path: what a round trip may
// allocate, that the hand-laid envelopes are the bytes the struct codec
// wrote, and the per-direction ownership of body (see Capability).

var midBody = bytes.Repeat([]byte("0123456789abcdef"), 256) // 4 KiB, as the benchmark's mid cell

func fixedKey() []byte { return bytes.Repeat([]byte{0x5a}, 32) }

// hotChain is the benchmark's glue chain.
func hotChain() []Capability {
	return []Capability{
		NewQuota(0, time.Time{}),
		MustNewAuth("benchmark", []byte("benchmark-secret"), ScopeAlways),
		NewChecksum(),
		MustNewEncrypt(fixedKey(), ScopeAlways),
	}
}

// twin rebuilds c from its configuration, as a server would.
func twin(t testing.TB, c Capability) Capability {
	t.Helper()
	cfg, err := c.Config()
	if err != nil {
		t.Fatal(err)
	}
	peer, err := New(c.Kind(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return peer
}

// skipUnderRace skips an allocation pin over pooled state.
func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
}

func TestRoundTripAllocs(t *testing.T) {
	skipUnderRace(t)
	// A hand-built frame, so every envelope is an allocation of its own:
	// what is left is the envelope (auth, checksum, encrypt's nonce) and,
	// for encrypt, the sealed body; opening it allocates nothing.
	want := map[string]float64{KindQuota: 0, KindAuth: 1, KindChecksum: 1, KindEncrypt: 2}
	f := reqFrame()
	for _, c := range hotChain() {
		peer := twin(t, c)
		got := testing.AllocsPerRun(200, func() {
			body, env, err := c.Process(f, midBody)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := peer.Unprocess(f, env, body); err != nil {
				t.Fatal(err)
			}
		})
		if got > want[c.Kind()] {
			t.Errorf("%s round trip: %v allocs, want at most %v", c.Kind(), got, want[c.Kind()])
		}
	}
}

// flipped is a copy of b with the low bit of b[at] flipped.
func flipped(b []byte, at int) []byte {
	b = append([]byte(nil), b...)
	b[at] ^= 1
	return b
}

// faultCode is the code of the fault err carries, 0 for anything else.
func faultCode(err error) wire.FaultCode {
	if err == nil {
		return 0
	}
	return wire.AsFault(err).Code
}

// allocBytesPerRun is testing.AllocsPerRun for bytes (wire's shape).
func allocBytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// hotCall is one call through the benchmark's chain over an in-process
// base: both directions of all four capabilities and the echo servant.
func hotCall(t testing.TB) func() {
	rt := world(t)
	server, s := echoServer(t, rt, "server", "m1")
	chain := hotChain()
	if _, err := GlueEntry(server, "pin", core.ProtoEntry{ID: "local"}, chain...); err != nil {
		t.Fatal(err)
	}
	g := NewGlue("pin", &localProto{handle: server.Dispatch}, clock.Real{}, chain...)
	req := &wire.Message{Type: wire.TRequest, Object: string(s.ID()), Method: "echo", Body: midBody}
	return func() {
		reply, err := g.Call(req)
		if err != nil || reply.Type != wire.TReply || !bytes.Equal(reply.Body, midBody) {
			t.Fatalf("glue call: %v, %v", reply, err)
		}
	}
}

// BenchmarkGlueChain is the chain's own price, nothing under it
// (EXPERIMENTS.md quotes it beside the benchmark's capability.chain.mid).
func BenchmarkGlueChain(b *testing.B) {
	call := hotCall(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
}

func TestGlueChainAllocs(t *testing.T) {
	skipUnderRace(t)
	call := hotCall(t)
	// Per direction: one scratch (wrap; the unwrap's frame is pooled) and
	// encrypt's sealed body (both pooled, but with no encoder under this
	// glue nothing gives them back; the nonce is a piece of the scratch and
	// opening allocates nothing). The reply un-processes in place.
	if got := testing.AllocsPerRun(200, call); got > 4 {
		t.Errorf("quota+auth+checksum+encrypt call: %v allocs, want at most 4", got)
	}
	// Two sealed bodies (each rounded up to a 4.75 KiB size class), two
	// scratches and the headers; a third body-sized buffer passes 18 KiB.
	if got := allocBytesPerRun(200, call); got > 4*uint64(len(midBody)) {
		t.Errorf("quota+auth+checksum+encrypt call: %d bytes, want two body-sized buffers (under %d)", got, 4*len(midBody))
	}
}

// TestGlueEchoAllocs pins what a typed call through the benchmark's chain
// allocates end to end, over a real stream connection: a 1 024-int echo
// through quota, auth, checksum and encrypt. The count is process-wide,
// server included. What is left is what the caller keeps — the reply
// frame — and the stub's Req value: every header, both scratches and
// both sealed bodies go back to their pools.
func TestGlueEchoAllocs(t *testing.T) {
	skipUnderRace(t)
	rt := world(t)
	server, err := rt.NewContext("server", "m1")
	if err != nil {
		t.Fatal(err)
	}
	client, err := rt.NewContext("client", "m1")
	if err != nil {
		t.Fatal(err)
	}
	if err := server.BindTCP("127.0.0.1:0"); err != nil {
		t.Skipf("no TCP binding: %v", err)
	}
	s, err := server.Export("Echo", nil, map[string]core.Method{
		"exchange": core.Handler(func(in *core.Int32Slice) (*core.Int32Slice, error) { return in, nil }),
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := server.EntryStream()
	if err != nil {
		t.Fatal(err)
	}
	entry, err := GlueEntry(server, "pin-echo", base, hotChain()...)
	if err != nil {
		t.Fatal(err)
	}
	gp := client.NewGlobalPtr(server.NewRef(s, entry))
	v := make([]int32, 1024)
	for i := range v {
		v[i] = int32(i)
	}
	args, err := xdr.Marshal(&core.Int32Slice{V: v})
	if err != nil {
		t.Fatal(err)
	}
	call := func() {
		if out, err := gp.Invoke("exchange", args); err != nil || !bytes.Equal(out, args) {
			t.Fatalf("glue echo: %d bytes, %v", len(out), err)
		}
	}
	for i := 0; i < 200; i++ {
		call()
	}
	if got := testing.AllocsPerRun(2000, call); got > 2 {
		t.Errorf("%.2f allocations per typed glue echo over a stream, pinned at 2", got)
	}
}

// legacyMAC is the MAC both capabilities computed before AES-GCM, for the
// old peers the tests build: a fresh HMAC fed field by field. ident is
// principal ‖ 0 for auth and empty for encrypt.
func legacyMAC(key []byte, f *Frame, head []byte, ident string, body []byte) []byte {
	h := hmac.New(sha256.New, key)
	h.Write(head)
	h.Write([]byte(ident))
	h.Write([]byte(f.Object))
	h.Write([]byte{0})
	h.Write([]byte(f.Method))
	h.Write([]byte{byte(f.Dir)})
	h.Write(body)
	return h.Sum(nil)
}

// legacyEncrypt is the encrypt capability as it was before AES-GCM, for the
// tests that face the new one with an old peer: AES-256-CTR under a 16-byte
// iv, and an envelope of iv ‖ HMAC-SHA256 (legacyMAC) over the ciphertext,
// verified before anything is decrypted.
type legacyEncrypt struct {
	Capability // Applicable and Config: an Encrypt with the same key
	key        []byte
}

func newLegacyEncrypt(key []byte) *legacyEncrypt {
	return &legacyEncrypt{Capability: MustNewEncrypt(key, ScopeAlways), key: key}
}

func (l *legacyEncrypt) stream(iv []byte) cipher.Stream {
	block, err := aes.NewCipher(l.key)
	if err != nil {
		panic(err)
	}
	return cipher.NewCTR(block, iv)
}

func (l *legacyEncrypt) Process(f *Frame, body []byte) ([]byte, []byte, error) {
	iv := make([]byte, aes.BlockSize)
	if _, err := rand.Read(iv); err != nil {
		return nil, nil, err
	}
	ct := make([]byte, len(body))
	l.stream(iv).XORKeyStream(ct, body)
	return ct, append(iv, legacyMAC(l.key, f, iv, "", ct)...), nil
}

func (l *legacyEncrypt) Unprocess(f *Frame, envelope, body []byte) ([]byte, error) {
	if len(envelope) != aes.BlockSize+sha256.Size {
		return nil, wire.Faultf(wire.FaultCapability, "encrypt envelope has %d bytes", len(envelope))
	}
	iv, tag := envelope[:aes.BlockSize], envelope[aes.BlockSize:]
	if !hmac.Equal(tag, legacyMAC(l.key, f, iv, "", body)) {
		return nil, wire.Faultf(wire.FaultCapability, "encrypt: MAC verification failed")
	}
	l.stream(iv).XORKeyStream(body, body)
	return body, nil
}

// goldenAAD is the documented AAD layout, written out byte by byte and
// sharing nothing with appendIdentity.
func goldenAAD(object, method string, dir Direction) []byte {
	var aad []byte
	for _, s := range []string{object, method} {
		n := len(s)
		aad = append(aad, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
		aad = append(aad, s...)
	}
	return append(aad, byte(dir))
}

func TestEncryptWireGolden(t *testing.T) {
	// An independent AES-256-GCM, given only the key and the documented
	// layout — envelope nonce[12], body ciphertext ‖ tag[16], AAD
	// len32(object) ‖ object ‖ len32(method) ‖ method ‖ dir — opens what
	// Process wrote.
	key := fixedKey()
	e := MustNewEncrypt(key, ScopeAlways)
	block, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, f := range []*Frame{reqFrame(), {Object: "o", Method: "", Dir: Reply}} {
		sealed, env, err := e.Process(f, midBody)
		if err != nil {
			t.Fatal(err)
		}
		if len(env) != 12 || len(sealed) != len(midBody)+16 {
			t.Fatalf("envelope has %d bytes and the body %d, want 12 and %d", len(env), len(sealed), len(midBody)+16)
		}
		if seen[string(env)] {
			t.Fatalf("nonce %x used twice", env)
		}
		seen[string(env)] = true
		pt, err := aead.Open(nil, env, sealed, goldenAAD(f.Object, f.Method, f.Dir))
		if err != nil || !bytes.Equal(pt, midBody) {
			t.Fatalf("an independent GCM on %+v: %v", f, err)
		}
		// And the other way: Unprocess opens what that GCM sealed.
		nonce := bytes.Repeat([]byte{7}, 12)
		theirs := aead.Seal(nil, nonce, midBody, goldenAAD(f.Object, f.Method, f.Dir))
		if got, err := e.Unprocess(f, nonce, theirs); err != nil || !bytes.Equal(got, midBody) {
			t.Fatalf("Unprocess of an independent GCM's frame on %+v: %v", f, err)
		}
	}
}

// everyKind is one instance of every registered kind (the fuzz target
// and the retry-safety test walk it).
func everyKind(t testing.TB) []Capability {
	t.Helper()
	rl, err := NewRateLimit(1e9, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	all := append(hotChain(),
		MustNewCompress(flate.BestSpeed, 16, ScopeAlways), rl, NewTrace(), NewAudit("a", nil))
	have := map[string]bool{}
	for _, c := range all {
		have[c.Kind()] = true
	}
	for _, k := range Kinds() {
		if !have[k] && !strings.HasPrefix(k, "x-") { // x-: kinds the tests themselves register
			t.Fatalf("kind %q is registered but not in everyKind", k)
		}
	}
	return all
}

func TestProcessLeavesBodyToTheCaller(t *testing.T) {
	// The engine re-issues the caller's args slice on every retry: Process
	// twice over one body must leave it as it was and produce two frames
	// that both un-process to it. Fails if anyone makes Process in-place.
	for _, c := range everyKind(t) {
		for _, f := range []*Frame{reqFrame(), {Object: "o", Method: "m", Dir: Reply, Clock: clock.Real{}}} {
			body := append([]byte(nil), midBody...)
			b1, e1, err1 := c.Process(f, body)
			b2, e2, err2 := c.Process(f, body)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s Process: %v, %v", c.Kind(), err1, err2)
			}
			if !bytes.Equal(body, midBody) {
				t.Fatalf("%s Process wrote to the caller's body", c.Kind())
			}
			peer := twin(t, c)
			// Un-process the second first: in-place work on one output
			// must not reach the other (or the caller's slice).
			for _, out := range [][2][]byte{{b2, e2}, {b1, e1}} {
				got, err := peer.Unprocess(f, out[1], out[0])
				if err != nil || !bytes.Equal(got, midBody) {
					t.Fatalf("%s Unprocess after a repeated Process: %v", c.Kind(), err)
				}
			}
		}
	}
}

func TestEncryptVerifiesBeforeItDecrypts(t *testing.T) {
	// A frame that fails authentication is a capability fault and releases
	// no byte of the plaintext; the frame as it was sent then opens, into
	// the backing array it arrived in.
	e := MustNewEncrypt(fixedKey(), ScopeAlways)
	f := reqFrame()
	plain := bytes.Repeat([]byte("PLAINTEXT-MARKER"), 256)
	sealed, nonce, err := e.Process(f, plain)
	if err != nil {
		t.Fatal(err)
	}
	reject := func(name string, env, body []byte) {
		t.Helper()
		got, err := e.Unprocess(f, env, body)
		if faultCode(err) != wire.FaultCapability || got != nil {
			t.Fatalf("%s: %d bytes and %v, want a capability fault", name, len(got), err)
		}
		if bytes.Contains(body, []byte("PLAIN")) {
			t.Fatalf("%s: a rejected frame holds plaintext", name)
		}
	}
	reject("flipped tag bit", nonce, flipped(sealed, len(sealed)-1))
	reject("flipped ciphertext bit", nonce, flipped(sealed, 0))
	reject("flipped nonce bit", flipped(nonce, 11), append([]byte(nil), sealed...))
	reject("body shorter than a tag", nonce, append([]byte(nil), sealed[:15]...))
	reject("empty body", nonce, nil)
	reject("envelope of 11 bytes", nonce[:11], append([]byte(nil), sealed...))
	got, err := e.Unprocess(f, nonce, sealed)
	if err != nil || !bytes.Equal(got, plain) {
		t.Fatalf("the frame as sent: %v", err)
	}
	if &got[0] != &sealed[0] {
		t.Error("Unprocess opened into a second buffer; the receiver owns body")
	}
}

func TestKeyedStateIsSharedSafely(t *testing.T) {
	// One Auth and one Encrypt serve every goroutine of a glue: the
	// pooled scratches and the shared AES-GCM states under -race.
	caps := []Capability{
		MustNewAuth("alice", []byte("secret"), ScopeAlways),
		MustNewEncrypt(fixedKey(), ScopeAlways),
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := &Frame{Object: "o", Method: string(rune('a' + g)), Dir: Direction(g % 2)}
			want := bytes.Repeat([]byte{byte(g)}, 100+g*97)
			for i := 0; i < 200; i++ {
				for _, c := range caps {
					body, env, err := c.Process(f, want)
					if err != nil {
						t.Error(err)
						return
					}
					got, err := c.Unprocess(f, env, body)
					if err != nil || !bytes.Equal(got, want) {
						t.Errorf("%s, goroutine %d, round %d: %v", c.Kind(), g, i, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCompressForgedLengthPinsNothing(t *testing.T) {
	c := MustNewCompress(flate.BestSpeed, 0, ScopeAlways)
	f := reqFrame()
	body := make([]byte, 20)
	for name, env := range map[string][]byte{
		"4 GiB":            {compressDeflate, 0xff, 0xff, 0xff, 0xff},
		"one past a frame": {compressDeflate, 0x04, 0x00, 0x00, 0x01},
		"a whole frame":    {compressDeflate, 0x04, 0x00, 0x00, 0x00},
	} {
		var err error
		got := allocBytesPerRun(5, func() { _, err = c.Unprocess(f, env, body) })
		if faultCode(err) != wire.FaultCapability {
			t.Errorf("%s: %v, want a capability fault", name, err)
		}
		if got > 2<<20 {
			t.Errorf("%s: a 5-byte envelope made Unprocess allocate %d bytes", name, got)
		}
	}
}

func TestCompressGrowsWithWhatInflates(t *testing.T) {
	// Past the 1 MiB start the output buffer doubles its way to the
	// claimed length; exact-length and trailing-data checks still hold.
	c := MustNewCompress(flate.BestSpeed, 0, ScopeAlways)
	f := reqFrame()
	big := bytes.Repeat([]byte("abcdefgh"), 3<<17) // 3 MiB
	body, env, err := c.Process(f, big)
	if err != nil || env[0] != compressDeflate {
		t.Fatalf("Process: %v, envelope %x", err, env)
	}
	got, err := c.Unprocess(f, env, body)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("3 MiB round trip: %v", err)
	}
	short := append([]byte(nil), env...)
	short[4]-- // claims one byte fewer than the stream holds
	if _, err := c.Unprocess(f, short, body); faultCode(err) != wire.FaultCapability {
		t.Fatalf("trailing data: %v", err)
	}
	long := append([]byte(nil), env...)
	long[4]++
	if _, err := c.Unprocess(f, long, body); faultCode(err) != wire.FaultCapability {
		t.Fatalf("short stream: %v", err)
	}
}

func TestCompressReusesItsCodec(t *testing.T) {
	skipUnderRace(t)
	c := MustNewCompress(flate.BestSpeed, 0, ScopeAlways)
	f := reqFrame()
	round := func() {
		body, env, err := c.Process(f, midBody)
		if err != nil || env[0] != compressDeflate {
			t.Fatalf("Process: %v, envelope %x", err, env)
		}
		if got, err := c.Unprocess(f, env, body); err != nil || !bytes.Equal(got, midBody) {
			t.Fatalf("Unprocess: %v", err)
		}
		bufpool.Put(body) // handed over (see Capability): the chain gives it back
	}
	// The envelope (a hand-built frame has no arena) and the inflated
	// body; the deflated body is bufpool's. A flate.Writer per call would
	// be 600 KB and a reader 40 KB.
	if got := testing.AllocsPerRun(100, round); got > 2 {
		t.Errorf("compress round trip: %v allocs, want at most 2", got)
	}
	if got := allocBytesPerRun(100, round); got > 2*uint64(len(midBody)) {
		t.Errorf("compress round trip: %d bytes, want under two bodies", got)
	}
}

// FuzzUnprocess feeds hostile bytes to every capability decoder. Any
// (envelope, body) into any kind's Unprocess must not panic; and for the
// kinds that protect integrity, flipping any one bit of what Process
// produced must be rejected.
func FuzzUnprocess(f *testing.F) {
	all := everyKind(f)
	frame := &Frame{Object: "ctx/obj-1", Method: "echo", Dir: Request}
	for i, c := range all {
		body, env, err := c.Process(frame, []byte("a seed body, long enough to deflate: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), env, body, uint32(i*37))
	}
	f.Add(uint8(4), []byte{compressDeflate, 0xff, 0xff, 0xff, 0xff}, make([]byte, 20), uint32(0))
	f.Add(uint8(1), []byte{}, []byte{}, uint32(0))
	// Into encrypt: an old peer's frame, a body shorter than a tag, a
	// nonce one byte short.
	oldBody, oldEnv, err := newLegacyEncrypt(fixedKey()).Process(frame, []byte("a seed body"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(3), oldEnv, oldBody, uint32(0))
	f.Add(uint8(3), make([]byte, 12), make([]byte, 15), uint32(0))
	f.Add(uint8(3), make([]byte, 11), make([]byte, 64), uint32(0))
	// Into auth: an old peer's HMAC envelope, a nonce one byte short, a tag
	// one byte short.
	_, oldEnv, err = newLegacyAuth("benchmark", []byte("benchmark-secret")).Process(frame, []byte("a seed body"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(1), oldEnv, []byte("a seed body"), uint32(0))
	f.Add(uint8(1), encodeAuthEnvelope(f, authEnvelope{"benchmark", make([]byte, 11), make([]byte, 16)}), []byte("b"), uint32(0))
	f.Add(uint8(1), encodeAuthEnvelope(f, authEnvelope{"benchmark", make([]byte, 12), make([]byte, 15)}), []byte("b"), uint32(0))

	f.Fuzz(func(t *testing.T, kind uint8, envelope, body []byte, flip uint32) {
		c := all[int(kind)%len(all)]
		// Hostile bytes: any outcome but a panic is acceptable.
		_, _ = c.Unprocess(frame, envelope, append([]byte(nil), body...))

		switch c.Kind() {
		case KindAuth, KindChecksum, KindEncrypt:
		default:
			return
		}
		nb, env, err := c.Process(frame, body)
		if err != nil {
			t.Fatal(err)
		}
		// Process may return the caller's body (auth, checksum): flip in a
		// copy, the fuzz engine owns body.
		nb, env = append([]byte(nil), nb...), append([]byte(nil), env...)
		bit := int(flip) % (8 * (len(env) + len(nb)))
		if at := bit / 8; at < len(env) {
			env[at] ^= 1 << (bit % 8)
		} else {
			nb[at-len(env)] ^= 1 << (bit % 8)
		}
		if _, err := c.Unprocess(frame, env, nb); err == nil {
			t.Fatalf("%s accepted its frame with bit %d flipped", c.Kind(), bit)
		}
	})
}
