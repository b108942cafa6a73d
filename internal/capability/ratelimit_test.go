package capability

import (
	"errors"
	"math"
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/wire"
	"openhpcxx/internal/xdr"
)

func TestRateLimitBurstAndRefill(t *testing.T) {
	fc := clock.NewFake(time.Unix(100, 0))
	f := &Frame{Dir: Request, Clock: fc}
	r := MustNewRateLimit(2, 3) // 2/s, burst 3

	for i := 0; i < 3; i++ {
		if _, _, err := r.Process(f, nil); err != nil {
			t.Fatalf("burst %d: %v", i, err)
		}
	}
	_, _, err := r.Process(f, nil)
	var fault *wire.Fault
	if !errors.As(err, &fault) || fault.Code != wire.FaultQuota {
		t.Fatalf("over burst: %v", err)
	}

	// Half a second refills one token (2/s).
	fc.Advance(500 * time.Millisecond)
	if _, _, err := r.Process(f, nil); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	if _, _, err := r.Process(f, nil); err == nil {
		t.Fatal("second request after single refill admitted")
	}

	// A long idle period caps at burst.
	fc.Advance(time.Hour)
	if r.Tokens() > 3 {
		t.Fatalf("tokens %f exceed burst before refresh", r.Tokens())
	}
	for i := 0; i < 3; i++ {
		if _, _, err := r.Process(f, nil); err != nil {
			t.Fatalf("after idle %d: %v", i, err)
		}
	}
	if _, _, err := r.Process(f, nil); err == nil {
		t.Fatal("bucket not capped at burst")
	}
}

func TestRateLimitRepliesFree(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	r := MustNewRateLimit(1, 1)
	rf := &Frame{Dir: Reply, Clock: fc}
	for i := 0; i < 5; i++ {
		if _, _, err := r.Process(rf, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Unprocess(rf, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if r.Tokens() != 1 {
		t.Fatalf("replies charged the bucket: %f", r.Tokens())
	}
}

func TestRateLimitConfigRoundTrip(t *testing.T) {
	r := MustNewRateLimit(7.5, 4)
	cfg, err := r.Config()
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(KindRateLimit, cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin := c.(*RateLimit)
	if twin.perSecond != 7.5 || twin.burst != 4 || twin.Tokens() != 4 {
		t.Fatalf("twin %+v", twin)
	}
}

func TestRateLimitValidation(t *testing.T) {
	if _, err := NewRateLimit(0, 1); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := NewRateLimit(1, 0); err == nil {
		t.Fatal("zero burst accepted")
	}
}

// A non-finite rate or burst never denies (NaN tokens compare false,
// an infinite bucket never drains), so neither the constructor nor a
// spec rebuilt from a reference's proto-data may accept one.
func TestRateLimitRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range [][2]float64{{nan, 1}, {1, nan}, {inf, 1}, {1, inf}, {-inf, 1}, {1, -inf}, {nan, nan}} {
		if _, err := NewRateLimit(c[0], c[1]); err == nil {
			t.Errorf("NewRateLimit(%g, %g) accepted", c[0], c[1])
		}
		cfg, err := xdr.Marshal(&rateLimitConfig{PerSecond: c[0], Burst: c[1]})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Rebuild([]Spec{{Kind: KindRateLimit, Config: cfg}}); err == nil {
			t.Errorf("spec {%g, %g} rebuilt", c[0], c[1])
		}
	}
}

func TestRateLimitEndToEnd(t *testing.T) {
	rt := world(t)
	fc := clock.NewFake(time.Unix(500, 0))
	rt.SetClock(fc)
	server, s := echoServer(t, rt, "server", "m1")
	client, _ := rt.NewContext("client", "m2")
	base, _ := server.EntryStream()
	glueE, err := GlueEntry(server, "throttled", base, MustNewRateLimit(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	gp := client.NewGlobalPtr(server.NewRef(s, glueE))

	for i := 0; i < 2; i++ {
		if _, err := gp.Invoke("echo", []byte("x")); err != nil {
			t.Fatalf("burst call %d: %v", i, err)
		}
	}
	_, err = gp.Invoke("echo", []byte("x"))
	var f *wire.Fault
	if !errors.As(err, &f) || f.Code != wire.FaultQuota {
		t.Fatalf("over rate: %v", err)
	}
	fc.Advance(time.Second)
	if _, err := gp.Invoke("echo", []byte("x")); err != nil {
		t.Fatalf("after refill: %v", err)
	}
}
