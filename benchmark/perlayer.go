package main

import (
	"fmt"
	"path/filepath"
)

// perLayer is the per-layer run of one workload: the layer cells and the
// migration probe, which do not depend on the workload, then the
// workload's boundary counts and traced repetitions.
func perLayer(cfg config, w workload) (result, error) {
	var r result
	// 27 cells share about as much time as the workload's own repetitions.
	cells, err := runCells(cfg.seconds / 40)
	if err != nil {
		return r, err
	}
	r.metrics = append(r.metrics, cells...)
	if err := probeMigration(cfg, &r); err != nil {
		return r, err
	}
	if err := traceWorkload(cfg, w, &r); err != nil {
		return r, fmt.Errorf("%s: traced run: %w", w.name, err)
	}
	return r, nil
}

// probeMigration tours the bulk workload's object between its two homes
// with one caller and a few calls per leg, and reports what one
// migrate.MoveLocal costs and how much longer than a steady call the
// first call after a move takes (FaultMoved chase, re-selection, and on
// first contact the dial): the two quantities lat_p99_us on
// rmi_bulk_migrating is made of.
func probeMigration(cfg config, r *result) error {
	w, _ := workloadByName("rmi_bulk_migrating")
	w.tourEvery = 10
	cfg.scale = 10 // 100 warm-up calls: five visits to each home
	d, err := setUp(w, cfg, 1, nil)
	if err != nil {
		return fmt.Errorf("migration probe: %w", err)
	}
	defer d.close()
	d.moveNs, d.chaseNs = nil, nil // the warm-up's moves include both first dials
	b, err := d.measure(20 * w.tourEvery)
	if err != nil {
		return fmt.Errorf("migration probe: %w", err)
	}
	r.account(d)
	r.add("migrate.move_local.ns", medianInt(d.moveNs), "ns")
	r.add("core.reselect.ns", medianInt(d.chaseNs)-b.p50*1e3, "ns")
	return nil
}

// traceWorkload runs w with one caller, so that spans nest by time:
// repetitions alternate between a stock deployment with tracing off and
// one served through the recorder's wrappers, two of each. The traced
// repetitions give the boundary counts and the self times; the ratio of
// the two rates is the tracing overhead.
func traceWorkload(cfg config, w workload, r *result) error {
	plain, err := setUp(w, cfg, 1, nil)
	if err != nil {
		return err
	}
	defer plain.close()
	rec := newRecorder()
	traced, err := setUp(w, cfg, 1, rec)
	if err != nil {
		return err
	}
	defer traced.close()

	calls := max(w.blockCalls/cfg.scale, 2)
	var plainRate, tracedRate float64
	tracedCalls := 0
	for i := 0; i < 2; i++ {
		b, err := plain.measure(calls)
		if err != nil {
			return err
		}
		plainRate += b.callsPerSecond() / 2
		rec.on.Store(true)
		b, err = traced.measure(calls)
		rec.on.Store(false)
		if err != nil {
			return err
		}
		tracedRate += b.callsPerSecond() / 2
		tracedCalls += b.calls
	}
	for _, d := range []*deployment{plain, traced} {
		r.account(d)
	}

	n := float64(tracedCalls)
	r.add("transport.wire_B_per_call", float64(rec.wireBytes.Load())/n, "bytes")
	r.add("transport.writes_per_call", float64(rec.writes.Load())/n, "count")
	r.add("transport.batch_fill", n/float64(rec.frames.Load()), "ratio")
	self := rec.selfTimes(tracedCalls)
	r.add("trace.client.self_us", self[layerCall], "us")
	r.add("trace.proto.self_us", self[layerProto], "us")
	r.add("trace.dispatch.self_us", self[layerDispatch], "us")
	r.add("trace.servant.self_us", self[layerServant], "us")
	r.add("trace.overhead_frac", 1-tracedRate/plainRate, "ratio")
	r.notes = append(r.notes, fmt.Sprintf("%s: traced %d calls, protocols selected %v", w.name, tracedCalls, traced.selected))
	return rec.writeSpans(filepath.Join(cfg.spans, "spans-"+w.name+".json"))
}

func medianInt(ns []int64) float64 {
	vs := make([]float64, len(ns))
	for i, n := range ns {
		vs[i] = float64(n)
	}
	return median(vs)
}
