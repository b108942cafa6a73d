// Parsum is an SPMD example in the original HPC++ style the paper
// builds on: a large vector is partitioned across worker objects on
// four machines; the driver uses the hpcxx collectives to broadcast
// partitions, synchronize on a barrier, and reduce partial dot products
// — all over ordinary global pointers, so the same code would run over
// any protocol or capability configuration.
//
//	go run ./examples/parsum
package main

import (
	"fmt"
	"log"
	"slices"
	"sync"

	"openhpcxx/internal/core"
	"openhpcxx/internal/hpcxx"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/xdr"
)

// worker holds one partition of the two vectors.
type worker struct {
	mu   sync.Mutex
	x, y []float64
}

type loadArgs struct {
	X, Y []float64
}

func (a *loadArgs) MarshalXDR(e *xdr.Encoder) error {
	e.PutFloat64s(a.X)
	e.PutFloat64s(a.Y)
	return nil
}

func (a *loadArgs) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	if a.X, err = d.Float64s(); err != nil {
		return err
	}
	a.Y, err = d.Float64s()
	return err
}

type partial struct{ Dot float64 }

func (p *partial) MarshalXDR(e *xdr.Encoder) error { e.PutFloat64(p.Dot); return nil }
func (p *partial) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	p.Dot, err = d.Float64()
	return err
}

func workerMethods(w *worker) map[string]core.Method {
	return map[string]core.Method{
		"load": core.Handler(func(a *loadArgs) (*core.Empty, error) {
			w.mu.Lock()
			w.x, w.y = slices.Clone(a.X), slices.Clone(a.Y) // a.X, a.Y are lent until return
			w.mu.Unlock()
			return &core.Empty{}, nil
		}),
		"dot": core.Handler(func(*core.Empty) (*partial, error) {
			w.mu.Lock()
			defer w.mu.Unlock()
			var s float64
			for i := range w.x {
				s += w.x[i] * w.y[i]
			}
			return &partial{Dot: s}, nil
		}),
	}
}

func main() {
	const (
		workers = 4
		n       = 1 << 16
	)
	net := netsim.New()
	net.AddLAN("cluster", "campus", netsim.ProfileATM155.Scaled(16))
	net.MustAddMachine("driver", "cluster")
	for i := 0; i < workers; i++ {
		net.MustAddMachine(netsim.MachineID(fmt.Sprintf("node%d", i)), "cluster")
	}

	rt := core.NewRuntime(net, "parsum")
	defer rt.Close()
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}

	driver, err := rt.NewContext("driver", "driver")
	must(err)

	// One worker object per node.
	var gps []*core.GlobalPtr
	for i := 0; i < workers; i++ {
		ctx, err := rt.NewContext(fmt.Sprintf("node%d", i), netsim.MachineID(fmt.Sprintf("node%d", i)))
		must(err)
		must(ctx.BindSim(0))
		w := &worker{}
		s, err := ctx.Export("parsum.Worker", w, workerMethods(w))
		must(err)
		entry, err := ctx.EntryStream()
		must(err)
		gps = append(gps, driver.NewGlobalPtr(ctx.NewRef(s, entry)))
	}
	group := hpcxx.NewGroup(gps...)

	// Scatter: each worker receives its slice of x and y.
	x := make([]float64, n)
	y := make([]float64, n)
	var want float64
	for i := range x {
		x[i] = float64(i%1000) / 1000
		y[i] = float64((i*7)%1000) / 1000
		want += x[i] * y[i]
	}
	args := make([][]byte, workers)
	chunk := n / workers
	for i := 0; i < workers; i++ {
		lo, hi := i*chunk, (i+1)*chunk
		b, err := xdr.Marshal(&loadArgs{X: x[lo:hi], Y: y[lo:hi]})
		must(err)
		args[i] = b
	}
	if _, err := group.Invoke("load", args); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scattered %d elements across %d workers\n", n, workers)

	// Synchronize every worker context behind a barrier before compute
	// (illustrative: Invoke already gathered, but real SPMD phases do
	// this between communication and compute steps).
	barCtx, err := rt.NewContext("barrier-host", "driver")
	must(err)
	must(barCtx.BindSim(0))
	barRef, err := hpcxx.ServeBarrier(barCtx, workers)
	must(err)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		ctx, _ := rt.Context(fmt.Sprintf("node%d", i))
		b := hpcxx.NewBarrier(ctx, barRef)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Await(); err != nil {
				log.Fatal(err)
			}
		}()
	}
	wg.Wait()
	fmt.Println("all workers passed the barrier")

	// Reduce: gather partial dot products and fold.
	got, err := hpcxx.Reduce[*core.Empty, partial](group, "dot", &core.Empty{}, 0.0,
		func(acc float64, p *partial) float64 { return acc + p.Dot })
	must(err)

	fmt.Printf("distributed dot product = %.4f (sequential %.4f, delta %.2g)\n",
		got, want, got-want)
}
