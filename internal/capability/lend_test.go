package capability_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"openhpcxx/internal/bufpool"
	"openhpcxx/internal/capability"
	"openhpcxx/internal/core"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/transport"
)

// The glue's outgoing bodies — a seal, a deflated body — are lent, handed
// over by the capability that wrote them, and given back by the encoder
// that copies them to the wire, on both sides.

// sealedEcho serves a raw echo behind a glue of caps over a real stream
// mux and returns a GlobalPtr to it.
func sealedEcho(t *testing.T, caps ...capability.Capability) *core.GlobalPtr {
	t.Helper()
	net := netsim.New()
	net.AddLAN("lan", "campus", netsim.ProfileUnshaped)
	net.MustAddMachine("m", "lan")
	net.MustAddMachine("far", "lan")
	rt := core.NewRuntime(net, "lend")
	capability.Install(rt.DefaultPool())
	t.Cleanup(rt.Close)
	server, err := rt.NewContext("server", "far")
	if err != nil {
		t.Fatal(err)
	}
	if err := server.BindSim(0); err != nil {
		t.Fatal(err)
	}
	servant, err := server.Export("Echo", nil, map[string]core.Method{
		"echo": func(args []byte) ([]byte, error) { return args, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := server.EntryStream()
	if err != nil {
		t.Fatal(err)
	}
	glue, err := capability.GlueEntry(server, "lend", base, caps...)
	if err != nil {
		t.Fatal(err)
	}
	client, err := rt.NewContext("client", "m")
	if err != nil {
		t.Fatal(err)
	}
	gp := client.NewGlobalPtr(server.NewRef(servant, glue))
	t.Cleanup(gp.Release)
	return gp
}

func TestGlueOverStreamLendsItsSeals(t *testing.T) {
	if capability.RaceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	gp := sealedEcho(t,
		capability.NewQuota(0, time.Time{}),
		capability.MustNewAuth("pin", []byte("pin-secret"), capability.ScopeAlways),
		capability.NewChecksum(),
		capability.MustNewEncrypt(bytes.Repeat([]byte{0x5a}, 32), capability.ScopeAlways))
	body := bytes.Repeat([]byte("0123456789abcdef"), 256) // 4 KiB
	call := func() {
		reply, err := gp.Invoke("echo", body)
		if err != nil || !bytes.Equal(reply, body) {
			t.Fatalf("sealed echo: %v", err)
		}
	}
	for i := 0; i < 20; i++ {
		call() // warm: the stream's buffers and both sides' seals are pooled
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 200
	for i := 0; i < runs; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	// The client's reply frame (wire.Read; Invoke hands it to the caller)
	// and 3.5 KB of headers, 8 KB in all; the two seals, which took 18 KB
	// to three bodies before, are lent. A second body passes 12 KB.
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := 5 * uint64(len(body)) / 2; got > limit {
		t.Fatalf("a sealed 4 KiB echo over a stream allocates %d bytes per call, want one body-sized buffer (under %d)", got, limit)
	}
}

// TestLentSealsReachTheWireIntact: deflated and sealed bodies, batched,
// while another goroutine takes each buffer bufpool hands back and writes
// over it. A seal given back before its encoder copied it would fail to
// open, and one given back twice would be shared by two calls.
func TestLentSealsReachTheWireIntact(t *testing.T) {
	gp := sealedEcho(t,
		capability.MustNewCompress(0, 256, capability.ScopeAlways),
		capability.MustNewEncrypt(bytes.Repeat([]byte{0x5a}, 32), capability.ScopeAlways))
	gp.SetMaxInFlight(16)
	policy := transport.DefaultBatchPolicy()
	gp.SetBatchPolicy(&policy)

	stop, scribbled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scribbled)
		for n := 64; ; n = n%8192 + 64 { // every class a body here lands in
			select {
			case <-stop:
				return
			default:
			}
			b := bufpool.Get(n)
			for i := range b {
				b[i] = byte(i)
			}
			bufpool.Put(b)
		}
	}()
	defer func() { close(stop); <-scribbled }()

	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		// Some bodies deflate, some pass through below the minimum.
		args := bytes.Repeat([]byte(fmt.Sprintf("call %d ", i)), 10+i*20)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if reply, err := gp.InvokeAsync("echo", args).Wait(); err != nil || !bytes.Equal(reply, args) {
				t.Errorf("batched sealed echo of %d bytes: %v", len(args), err)
			}
		}()
	}
	wg.Wait()
}
