package bufpool_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"openhpcxx/internal/bufpool"
	"openhpcxx/internal/clock"
	"openhpcxx/internal/core"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/testbed"
	"openhpcxx/internal/transport"
	"openhpcxx/internal/xdr"
)

// A typed servant's Int32s/Float64s are lent until its Handler function
// returns (DESIGN decision 21). These tests show that the lend is
// returned only once the reply is encoded, that a servant breaking the
// contract reads poison rather than someone else's data, and that the
// typed client's argument buffer outlives every attempt that may still
// hold it.

func poisonFor(t *testing.T) {
	bufpool.SetPoison(true)
	t.Cleanup(func() { bufpool.SetPoison(false) })
}

// ints returns n distinct values seeded by k.
func ints(n, k int) []int32 {
	v := make([]int32, n)
	for i := range v {
		v[i] = int32(k<<20 + i)
	}
	return v
}

// TestPoisonShowsAKeptLentArray: a servant that keeps in.V past its
// return reads 0xDB — the contract's violation is visible, not silent.
func TestPoisonShowsAKeptLentArray(t *testing.T) {
	poisonFor(t)
	var kept []int32
	stub := core.Handler(func(in *core.Int32Slice) (*core.Empty, error) {
		kept = in.V
		return &core.Empty{}, nil
	})
	for _, n := range []int{100, 16 << 10} {
		args, _ := xdr.Marshal(&core.Int32Slice{V: ints(n, 1)})
		if _, err := stub(args); err != nil {
			t.Fatal(err)
		}
		for i, x := range kept {
			if x != int32(-0x24242425) { // 0xDBDBDBDB
				t.Fatalf("%d ints: kept element %d reads %#x after the stub returned, want the poison 0xdbdbdbdb", n, i, uint32(x))
			}
		}
	}
}

// TestPoisonTypedEchoIsExact: typed echoes from concurrent callers, over
// stream and shm, come back byte-exact while every released buffer is
// overwritten — the stub releases the request's arrays only after their
// echo is encoded. Run under -race as well.
func TestPoisonTypedEchoIsExact(t *testing.T) {
	poisonFor(t)
	b := testbed.New("lent-echo", nil)
	defer b.Close()
	b.LAN("lan", "campus", netsim.ProfileUnshaped, "m")
	client := b.Context("client", "m")
	server := b.Context("server", "m").BindAll().Echo("")
	refs := []*core.ObjectRef{server.Ref(server.Stream()), server.Ref(server.SHM())}
	if err := b.Build(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gp := client.Ctx.NewGlobalPtr(refs[w%2])
			defer gp.Release()
			for i, n := range []int{0, 1, 65, 1000, 16 << 10, 64 << 10, 1000} {
				want := ints(n, w*10+i)
				got, err := core.Call[*core.Int32Slice, core.Int32Slice](gp, "exchange", &core.Int32Slice{V: want})
				if err == nil && !slices.Equal(got.V, want) {
					err = fmt.Errorf("%d ints came back changed", n)
				}
				if err != nil {
					errc <- fmt.Errorf("caller %d, call %d: %w", w, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestPoisonAbandonedTypedCallKeepsItsArguments: a typed call abandoned at
// its deadline while its request still waits in a coalescer leaves its
// argument buffer alone. Were it returned, the poison (or the next
// call's arguments) would be what the batch later carries.
func TestPoisonAbandonedTypedCallKeepsItsArguments(t *testing.T) {
	poisonFor(t)
	var mu sync.Mutex
	var got [][]int32
	methods := map[string]core.Method{"keep": core.Handler(func(in *core.Int32Slice) (*core.Empty, error) {
		mu.Lock()
		got = append(got, slices.Clone(in.V))
		mu.Unlock()
		return &core.Empty{}, nil
	})}
	arrived := func(want []int32) bool {
		mu.Lock()
		defer mu.Unlock()
		return slices.ContainsFunc(got, func(v []int32) bool { return slices.Equal(v, want) })
	}

	b := testbed.New("lent-abandon", nil)
	defer b.Close()
	// The server's clock stands still, so the request the deadline
	// abandoned is still served when its batch finally goes out.
	b.RT.SetClock(clock.NewFake(time.Unix(1, 0)))
	b.LAN("lan", "campus", netsim.ProfileUnshaped, "m")
	client := b.Context("client", "m")
	server := b.Context("server", "m").BindAll().Export("", nil, methods)
	ref := server.Ref(server.Stream())
	if err := b.Build(); err != nil {
		t.Fatal(err)
	}
	batched, plain := client.Ctx.NewGlobalPtr(ref), client.Ctx.NewGlobalPtr(ref)
	defer batched.Release()
	defer plain.Release()
	policy := transport.BatchPolicy{MaxMessages: 64, MaxBytes: 16 << 20, MaxDelay: 200 * time.Millisecond}
	batched.SetBatchPolicy(&policy)

	// 64 KiB arguments: a class kept outside sync.Pool, handed out last in
	// first out, so a buffer returned too early is the next one taken.
	call := func(gp *core.GlobalPtr, ctx context.Context, v []int32) error {
		_, err := core.CallCtx[*core.Int32Slice, core.Empty](ctx, gp, "keep", &core.Int32Slice{V: v})
		return err
	}
	for k, gp := range []*core.GlobalPtr{batched, plain} { // each GP learns its argument size
		if err := call(gp, context.Background(), ints(16<<10, k)); err != nil {
			t.Fatal(err)
		}
	}
	want := ints(16<<10, 7)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := call(batched, ctx, want); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("the batched call ended with %v before its batch left, want its deadline", err)
	}
	for k := 0; k < 3; k++ {
		if err := call(plain, context.Background(), ints(16<<10, 8+k)); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); !arrived(want); clock.Sleep(clock.Real{}, time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the abandoned call's arguments never reached the servant intact")
		}
	}
}
