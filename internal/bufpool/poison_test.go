package bufpool_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"openhpcxx/internal/bufpool"
	"openhpcxx/internal/capability"
	"openhpcxx/internal/clock"
	"openhpcxx/internal/core"
	"openhpcxx/internal/directory"
	"openhpcxx/internal/future"
	"openhpcxx/internal/hpcxx"
	"openhpcxx/internal/migrate"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/registry"
	"openhpcxx/internal/testbed"
	"openhpcxx/internal/transport"
	"openhpcxx/internal/xdr"
)

// staticReply is what the "static" raw method returns on every call. Its
// capacity is one of the pool's, so a release that mistook it for a lent
// buffer would be accepted — and, under poison, show.
var staticReply = bytes.Repeat([]byte{0x5A}, 64)

// rawMethods are the three shapes of a hand-written Method: the reply is
// the request's own frame, a prefix of it, or memory the servant keeps.
func rawMethods() map[string]core.Method {
	return map[string]core.Method{
		"echo":   func(args []byte) ([]byte, error) { return args, nil },
		"prefix": func(args []byte) ([]byte, error) { return args[:len(args)/2], nil },
		"static": func([]byte) ([]byte, error) { return staticReply, nil },
	}
}

// transcript deploys every in-repo servant next to the raw methods, calls
// each through every server-side path that lends a buffer, and returns
// every reply, in order, as bytes.
func transcript(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	record := func(what string, reply []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		fmt.Fprintf(&out, "%s %d\n%s\n", what, len(reply), reply)
	}

	b := testbed.New("poison", nil)
	defer b.Close()
	b.LAN("lan", "campus", netsim.ProfileUnshaped, "m", "far")
	client := b.Context("client", "m").Bind(0) // bound: the directory pushes events to its sink
	raw := b.Context("raw", "m").BindAll().Export("", nil, rawMethods())
	typed := b.Context("typed", "m").BindAll().Echo("")
	rawTCP := b.Context("raw-tcp", "far")
	b.Do(func() error { return rawTCP.Ctx.BindTCP("127.0.0.1:0") })
	rawTCP.Export("", nil, rawMethods())
	mover := b.Context("mover", "m").BindAll().Echo("")

	key := bytes.Repeat([]byte{7}, 32)
	paths := func(n *testbed.Node) map[string]*core.ObjectRef {
		return map[string]*core.ObjectRef{
			"stream":   n.Ref(n.Stream()),
			"shm":      n.Ref(n.SHM()),
			"nexus":    n.Ref(n.Nexus()),
			"checksum": n.Ref(n.Glue("ck", n.Stream(), capability.NewChecksum())),                             // body kept
			"encrypt":  n.Ref(n.Glue("enc", n.SHM(), capability.MustNewEncrypt(key, capability.ScopeAlways))), // body replaced
			// Not in order below: sealed requests queued in a coalescer, and
			// a deflated body sealed in turn, each handed over to the chain.
			"sealed": n.Ref(n.Glue("enc-stream", n.Stream(), capability.MustNewEncrypt(key, capability.ScopeAlways))),
			"packed": n.Ref(n.Glue("cz", n.Nexus(), capability.MustNewCompress(0, 512, capability.ScopeAlways),
				capability.MustNewEncrypt(key, capability.ScopeAlways))),
		}
	}
	rawPaths, typedPaths := paths(raw), paths(typed)
	rawPaths["tcp"] = rawTCP.Ref(rawTCP.Stream())
	moverRef := mover.Ref(mover.Stream(), mover.SHM())
	if err := b.Build(); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(18))
	order := []string{"stream", "shm", "nexus", "checksum", "encrypt", "tcp"}
	for _, size := range []int{0, 100, 5000, 70000} {
		body := make([]byte, size)
		rng.Read(body)
		ints := &core.Int32Slice{V: make([]int32, size/4)}
		for i := range ints.V {
			ints.V[i] = rng.Int31()
		}
		for _, path := range order {
			if ref, ok := rawPaths[path]; ok {
				gp := client.Ctx.NewGlobalPtr(ref)
				for _, method := range []string{"echo", "prefix", "static"} {
					reply, err := gp.Invoke(method, body)
					record(fmt.Sprintf("raw %s %s %d", path, method, size), reply, err)
				}
				if echo, _ := gp.Invoke("echo", body); !bytes.Equal(echo, body) {
					t.Fatalf("raw echo over %s: %d bytes came back changed", path, size)
				}
				gp.Release()
			}
			if ref, ok := typedPaths[path]; ok {
				gp := client.Ctx.NewGlobalPtr(ref)
				reply, err := core.Call[*core.Int32Slice, core.Int32Slice](gp, "exchange", ints)
				if err == nil && fmt.Sprint(reply.V) != fmt.Sprint(ints.V) {
					t.Fatalf("typed exchange over %s: %d ints came back changed", path, len(ints.V))
				}
				record(fmt.Sprintf("typed %s %d", path, size), []byte(fmt.Sprint(reply)), err)
				gp.Release()
			}
		}
	}

	// A batch: sub-requests are views of one frame, sub-replies are
	// released once the batch reply is encoded; sealed, every sub-request
	// and sub-reply is a loan its batch's encoder gives back.
	batched := map[string]*core.ObjectRef{"raw": rawPaths["stream"], "typed": typedPaths["shm"],
		"raw sealed": rawPaths["sealed"], "typed sealed": typedPaths["sealed"]}
	for _, name := range []string{"raw", "typed", "raw sealed", "typed sealed"} {
		gp := client.Ctx.NewGlobalPtr(batched[name])
		gp.SetMaxInFlight(16)
		policy := transport.DefaultBatchPolicy()
		gp.SetBatchPolicy(&policy)
		method := map[bool]string{false: "echo", true: "exchange"}[strings.HasPrefix(name, "typed")]
		args, futs := make([][]byte, 16), make([]*future.Future, 16)
		for i := range futs {
			// An encoded int array: both methods answer with their argument.
			args[i], _ = xdr.Marshal(&core.Int32Slice{V: []int32{int32(i), rng.Int31(), rng.Int31()}})
			futs[i] = gp.InvokeAsync(method, args[i])
		}
		for i, f := range futs {
			reply, err := f.Wait()
			record(fmt.Sprintf("batch %s %d", name, i), reply, err)
			if !bytes.Equal(reply, args[i]) {
				t.Fatalf("batched %s call %d: reply differs from the request", name, i)
			}
		}
		gp.Release()
	}

	// A sealed request whose deadline passes while it waits in the
	// coalescer: the caller gives up, and the flush still sends the
	// ciphertext intact, so the server opens it and sheds it as expired
	// (a seal released with the call would fail to open instead).
	gp := client.Ctx.NewGlobalPtr(rawPaths["sealed"])
	gp.SetBatchPolicy(&transport.BatchPolicy{MaxDelay: 200 * time.Millisecond})
	shed := client.Ctx.Runtime().Metrics().Counter("srv.expired")
	shedBefore := shed.Value()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	_, err := gp.InvokeAsyncCtx(ctx, "echo", bytes.Repeat([]byte{0xA5}, 300)).Wait()
	cancel()
	if err == nil {
		t.Fatal("a call that expired in the coalescer succeeded")
	}
	for deadline := time.Now().Add(5 * time.Second); shed.Value() == shedBefore; clock.Sleep(clock.Real{}, time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the expired sealed request never reached the server intact")
		}
	}
	record("expired in the coalescer", nil, nil)
	gp.Release()

	// Compress, then encrypt, over nexus: a body that deflates, so the
	// deflated body is lent and replaced by its seal on both sides.
	packed := bytes.Repeat([]byte("open hpc++ "), 500)
	for _, name := range []string{"raw", "typed"} {
		gp := client.Ctx.NewGlobalPtr(map[string]map[string]*core.ObjectRef{"raw": rawPaths, "typed": typedPaths}[name]["packed"])
		if name == "raw" {
			for _, method := range []string{"echo", "prefix", "static"} {
				reply, err := gp.Invoke(method, packed)
				record("packed raw "+method, reply, err)
			}
		} else {
			reply, err := core.Call[*core.Int32Slice, core.Int32Slice](gp, "exchange", testbed.Ints(1500))
			record("packed typed", []byte(fmt.Sprint(reply)), err)
		}
		gp.Release()
	}

	// Registry: bind, lookup, list.
	_, regRef, err := registry.Serve(raw.Ctx)
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.NewClient(client.Ctx, regRef)
	if err := reg.Bind("svc/typed", typedPaths["stream"]); err != nil {
		t.Fatal(err)
	}
	looked, err := reg.Lookup("svc/typed")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := core.EncodeRef(looked)
	record("registry lookup", blob, err)
	names, err := reg.List("svc/")
	record("registry list", []byte(fmt.Sprint(names)), err)

	// Directory: publish, resolve, rebind; the watch event reaches the
	// resolver's sink through the client context's own server.
	plane, err := directory.ServePlane([]*core.Context{raw.Ctx}, directory.Topology{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	boot, err := plane.Bootstrap()
	if err != nil {
		t.Fatal(err)
	}
	pub, err := directory.NewPublisher(raw.Ctx, boot, directory.PublisherOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	res, err := directory.NewResolver(client.Ctx, boot, directory.ResolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if err := pub.Publish("svc/moving", rawPaths["stream"]); err != nil {
		t.Fatal(err)
	}
	first, err := res.Resolve("svc/moving")
	if err != nil {
		t.Fatal(err)
	}
	record("directory resolve", []byte(first.Object), nil)
	if err := pub.Publish("svc/moving", typedPaths["stream"]); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; clock.Sleep(clock.Real{}, time.Millisecond) {
		got, err := res.Resolve("svc/moving")
		if err == nil && got.Object == typedPaths["stream"].Object {
			record("directory after rebind", []byte(got.Object), nil)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the rebind never invalidated the resolver's cache: %v, %v", got, err)
		}
	}

	// Barrier: two parties, two generations.
	barRef, err := hpcxx.ServeBarrier(typed.Ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		other := make(chan error, 1)
		go func() {
			_, err := hpcxx.NewBarrier(raw.Ctx, barRef).Await()
			other <- err
		}()
		gen, err := hpcxx.NewBarrier(client.Ctx, barRef).Await()
		record("barrier", []byte(fmt.Sprint(gen)), err)
		if err := <-other; err != nil {
			t.Fatal(err)
		}
	}

	// Migration: the control servant adopts the object, and a caller
	// holding the old reference chases it.
	ctl, err := migrate.EnableTarget(typed.Ctx)
	if err != nil {
		t.Fatal(err)
	}
	gp = client.Ctx.NewGlobalPtr(moverRef)
	defer gp.Release()
	before, err := core.Call[*core.Int32Slice, core.Int32Slice](gp, "exchange", testbed.Ints(300))
	record("before move", []byte(fmt.Sprint(before)), err)
	moved, err := migrate.Move(mover.Ctx, moverRef, ctl)
	if err != nil {
		t.Fatal(err)
	}
	record("moved", []byte(moved.Object), nil)
	after, err := core.Call[*core.Int32Slice, core.Int32Slice](gp, "exchange", testbed.Ints(300))
	record("after move", []byte(fmt.Sprint(after)), err)
	return out.Bytes()
}

// TestReleasedBuffersAreNeverRead: with every released buffer overwritten
// the moment it is released, every servant answers every path with the
// bytes it answers without, and memory the ORB did not lend is never
// written. Run under -race as well: a release that races a reader of the
// buffer is a reported write.
func TestReleasedBuffersAreNeverRead(t *testing.T) {
	clean := transcript(t)
	bufpool.SetPoison(true)
	poisoned := transcript(t)
	bufpool.SetPoison(false)
	if !bytes.Equal(clean, poisoned) {
		cl, pl := bytes.Split(clean, []byte("\n")), bytes.Split(poisoned, []byte("\n"))
		for i := range cl {
			if i >= len(pl) || !bytes.Equal(cl[i], pl[i]) {
				t.Fatalf("replies differ once released buffers are poisoned, first after %q", cl[max(i-1, 0)][:min(len(cl[max(i-1, 0)]), 60)])
			}
		}
		t.Fatal("replies differ once released buffers are poisoned")
	}
	if bytes.Contains(clean, bytes.Repeat([]byte{0xDB}, 16)) {
		t.Fatal("the clean run's replies contain poison")
	}
	if !bytes.Equal(staticReply, bytes.Repeat([]byte{0x5A}, 64)) {
		t.Fatalf("the servant's static reply was recycled: % x", staticReply[:8])
	}
}
