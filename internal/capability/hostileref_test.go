package capability

import (
	"math"
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/core"
	"openhpcxx/internal/xdr"
)

// FuzzHostileRef feeds hostile object references to a client: the bytes
// decode with core.DecodeRef, and every entry of a decoded table goes
// through the installed pool's Applicable, then New and Close when
// applicable, on a fake clock. A reference is outside input, glue specs
// included. Nothing may panic, and the pool's selection — through the
// entry records every earlier input left behind — picks the entry that
// walk finds first.
func FuzzHostileRef(f *testing.F) {
	rt := world(f)
	rt.SetClock(clock.NewFake(time.Unix(1e9, 0)))
	server, s := echoServer(f, rt, "server", "m1")
	client, err := rt.NewContext("client", "m2")
	if err != nil {
		f.Fatal(err)
	}
	base, err := server.EntryStream()
	if err != nil {
		f.Fatal(err)
	}
	every, err := GlueEntry(server, "every", base, everyKind(f)...)
	if err != nil {
		f.Fatal(err)
	}
	// A glue entry carrying a spec its kind's constructor must refuse: a
	// rate limit with a NaN rate, which would never deny.
	nanSpec, err := xdr.Marshal(&rateLimitConfig{PerSecond: math.NaN(), Burst: 1})
	if err != nil {
		f.Fatal(err)
	}
	nanGlue, err := xdr.Marshal(&glueData{Tag: "nan", Base: base, Caps: []Spec{{Kind: KindRateLimit, Config: nanSpec}}})
	if err != nil {
		f.Fatal(err)
	}
	for _, entries := range [][]core.ProtoEntry{
		{base},
		{every, base},
		{{ID: core.ProtoGlue, Data: nanGlue}},
	} {
		seed, err := core.EncodeRef(server.NewRef(s, entries...))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}

	pool := client.Pool()
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, err := core.DecodeRef(data)
		if err != nil {
			return
		}
		want := -1
		for i, e := range ref.Protocols {
			fac, ok := pool.Lookup(e.ID)
			if !ok || !fac.Applicable(e, client.Locality(), ref.Server) {
				continue
			}
			if want < 0 {
				want = i
			}
			if p, err := fac.New(e, ref, client); err == nil {
				_ = p.Close()
			}
		}
		if _, got, _ := pool.Select(ref, client.Locality()); got != want {
			t.Fatalf("selection picked table[%d], the uncached walk table[%d]", got, want)
		}
	})
}
