GO ?= go

.PHONY: ci fmt-check vet cross lint build test race poison determinism cover faults fuzz load-smoke bench-smoke bench-json bench-pairs bench-layers bench-async bench-faults bench-directory bench-errors bench-retention bench-saturation loc top registry

ci: fmt-check vet cross lint build test race poison determinism cover load-smoke bench-smoke bench-json

# Every tracked .go file outside testdata/ (analyzer corpora keep their
# own layout) must be gofmt-clean.
fmt-check:
	@out=$$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Project-invariant analyzers (internal/analysis, stdlib go/types only).
# The suite first proves itself against its golden corpora (-short skips
# the whole-module self-check, which the repo run below repeats anyway),
# then sweeps ./internal/... and ./cmd/... and fails on any finding.
# `make lint V=1` adds per-analyzer wall time on stderr. Last, no
# non-test code may infer a contract from a method it probes for with an
# anonymous-interface assertion — state it in a type (core.Pending) — save
# the coalescer's fallback for a send result that is not a transport.Cell.
lint:
	$(GO) test -short ./internal/analysis/
	$(GO) run ./cmd/ohpc-lint $(if $(V),-v) ./internal/... ./cmd/...
	@! git grep -n '\.(interface{' -- '*.go' ':!*_test.go' ':!benchmark/' | grep -v '^internal/transport/cell\.go:[0-9]*:.*p\.(interface{ WhenDone(func()) })'

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -shuffle=on -race ./internal/...

# Use-after-release sweep: a typed servant's arrays, the typed stub's
# reply, the typed client's arguments, the glue's seals and every batch
# body are pooled memory, lent and given back (an outgoing one by the
# encoder that copies it out). Run the tests that poison released buffers
# (0xDB) and the lending tests repeatedly under the race detector, so a
# buffer returned too early fails here rather than in a benchmark. The
# mux's recycled Call exchanges join the sweep: a reply delivered to an
# exchange after it went back to the free list is the same bug one layer up.
poison:
	$(GO) test -race -count=10 -run 'Poison|Lent|Typed|Recycle' ./internal/bufpool ./internal/core ./internal/xdr \
		./internal/capability ./internal/wire ./internal/transport

# Determinism sweep: the fault-injection and failover suites, the span
# store and the /tracez plane must pass repeatedly, in shuffled order,
# under the race detector — no run-order luck, no wall-clock luck.
determinism:
	$(GO) test -count=3 -shuffle=on -race \
		-run 'Fault|Failover|Drain|Crash|Blackhole|Expired|Deadline|Probe|Breaker|Health|Trace|Async|Cancel|Continuation|Batched|Ring|Tail|Store|Hint|Attach|Scrape' \
		./internal/netsim/ ./internal/transport/ ./internal/health/ \
		./internal/core/ ./internal/capability/ ./internal/obs/ ./internal/introspect/

# Coverage floor: the wire format, the metrics registry, the tracing
# subsystem, the analyzer suite, the introspection plane, the directory
# plane, the error taxonomy, and the load harness are load-bearing for
# every protocol (and for CI and operations) — hold them at >= 70%.
cover:
	@set -e; for pkg in ./internal/wire/ ./internal/stats/ ./internal/obs/ ./internal/analysis/ ./internal/introspect/ ./internal/directory/ ./internal/errs/ ./internal/load/; do \
		pct=$$($(GO) test -cover $$pkg | awk '{for (i=1;i<=NF;i++) if ($$i ~ /%/) {gsub("%","",$$i); print $$i}}'); \
		echo "coverage $$pkg: $$pct%"; \
		ok=$$(echo "$$pct" | awk '{print ($$1 >= 70.0) ? "yes" : "no"}'); \
		if [ "$$ok" != "yes" ]; then echo "coverage floor (70%) violated in $$pkg"; exit 1; fi; \
	done

# The fault-injection and failover suites: netsim crash/restart/blackhole,
# endpoint health breakers, context drain, core failover/deadlines, and
# the glue capability chain under injected faults.
faults:
	$(GO) test -race -run 'Fault|Failover|Drain|Crash|Expired|Deadline|Refund|Probe|Breaker|Health' \
		./internal/netsim/ ./internal/transport/ ./internal/health/ \
		./internal/core/ ./internal/capability/ ./internal/bench/

# Decoder fuzzing: the header decoder and the TBatch body decoder must
# never panic and must round-trip every input they accept; no capability's
# Unprocess may panic on hostile (envelope, body) bytes, and auth, checksum
# and encrypt must reject any one-bit flip of what Process wrote; a glue
# server must survive any envelope chain and refund what a rejected one
# charged; no decoded object reference may panic a client's protocol
# selection or instantiation, glue specs included; no XDR primitive
# decode may panic, the array kernels must agree
# with the byte-wise reference at every offset, and a lending decode must
# agree with an owning one and give back every buffer it took. Go runs one
# fuzz target per invocation.
fuzz:
	$(GO) test ./internal/wire/ -run='^$$' -fuzz=FuzzDecodeHeader -fuzztime=10s
	$(GO) test ./internal/wire/ -run='^$$' -fuzz=FuzzDecodeBatch -fuzztime=10s
	$(GO) test ./internal/wire/ -run='^$$' -fuzz=FuzzRead -fuzztime=10s
	$(GO) test ./internal/capability/ -run='^$$' -fuzz=FuzzUnprocess -fuzztime=10s
	$(GO) test ./internal/capability/ -run='^$$' -fuzz=FuzzUnwrapRequest -fuzztime=10s
	$(GO) test ./internal/capability/ -run='^$$' -fuzz=FuzzHostileRef -fuzztime=10s
	$(GO) test ./internal/xdr/ -run='^$$' -fuzz=FuzzDecoder -fuzztime=10s
	$(GO) test ./internal/xdr/ -run='^$$' -fuzz=FuzzArrayKernels -fuzztime=10s
	$(GO) test ./internal/xdr/ -run='^$$' -fuzz=FuzzLentDecode -fuzztime=10s

# The xdr array kernel is built only for amd64 || arm64; every other
# GOARCH compiles the portable loops. Vet both sides of the split, and a
# big-endian host, so a break in the half this host never builds fails CI.
cross:
	@set -e; for arch in s390x 386 arm64 riscv64; do \
		echo "GOARCH=$$arch go vet ./internal/xdr/..."; \
		GOARCH=$$arch $(GO) vet ./internal/xdr/...; \
	done

# Capacity-harness smoke: run the open-loop smoke scenario end to end on
# a fake clock — the whole stack (grid topology, servers, mixed workload,
# CO-safe recorder) in simulated time, so the run is fast and the op
# accounting is deterministic.
load-smoke:
	$(GO) run ./cmd/ohpc-load -scenario=internal/load/testdata/scenarios/valid/smoke.json -fake -json=-

# The benchmark/ module is its own Go module, so `go build ./...` and
# `go test ./...` never compile it: without this an exported-API slip in
# core would first surface as a broken benchmark run.
bench-smoke:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# BENCH_*.json trajectory: every PR leaves a perf datapoint. The smoke
# scenario runs on a fake clock, so BENCH_S1.json is deterministic — a
# reviewable diff, not noise.
bench-json:
	$(GO) run ./cmd/ohpc-load -scenario=internal/load/testdata/scenarios/valid/smoke.json -fake -json=BENCH_S1.json
	@echo "wrote BENCH_S1.json"

# The acceptance protocol for a performance claim: N alternating pairs of
# the benchmark at PARENT and at the working tree on workload W, printed as
# CHANGES.md's table (median [q1, q3] per end-to-end metric, change ÷
# parent, pairs won). Minutes long and only meaningful on an idle machine,
# so not part of ci; FORCE=1 overrides the load-average check.
N ?= 10
SEED ?= 1
SECONDS ?= 15
bench-pairs:
	@test -n "$(PARENT)" -a -n "$(W)" || { echo "usage: make bench-pairs PARENT=<rev> W=<workload> [N=10] [SEED=1] [SECONDS=15] [FORCE=1]"; exit 2; }
	FORCE=$(FORCE) scripts/bench-pairs.sh $(PARENT) $(W) $(N) $(SEED) $(SECONDS)

# Which layer a saving came from: one per-layer run (run.sh --trace 1) at
# PARENT and one at the working tree on workload W, every per_layer metric
# of BENCHMARK.json side by side with the ratio. One run per side: counts
# compare, timings are indicative. Not part of ci.
bench-layers:
	@test -n "$(PARENT)" -a -n "$(W)" || { echo "usage: make bench-layers PARENT=<rev> W=<workload> [SEED=1] [SECONDS=15]"; exit 2; }
	scripts/bench-layers.sh $(PARENT) $(W) $(SEED) $(SECONDS)

# Regenerate the async throughput figure quickly and emit JSON.
bench-async:
	$(GO) run ./cmd/ohpc-bench -fig=a1 -quick -json=-

# Regenerate the availability-under-faults figure quickly and emit JSON.
bench-faults:
	$(GO) run ./cmd/ohpc-bench -fig=r1 -quick -json=-

# Regenerate the directory-plane figure (scale sweep + crash schedule)
# quickly and emit JSON.
bench-directory:
	$(GO) run ./cmd/ohpc-bench -fig=d1 -quick -json=-

# Regenerate the retry-budget figure (goodput + amplification through an
# overload + crash schedule, budgets on vs off) quickly and emit JSON.
bench-errors:
	$(GO) run ./cmd/ohpc-bench -fig=e1 -quick -json=-

# Regenerate the trace-retention figure (Figure O2: tail keeper vs FIFO
# ring at equal span memory) quickly and emit JSON.
bench-retention:
	$(GO) run ./cmd/ohpc-bench -fig=o2 -quick -json=-

# Regenerate the saturation sweep (Figure S1: goodput + latency tail vs
# offered load, batching on/off, with failover) quickly and emit JSON.
bench-saturation:
	$(GO) run ./cmd/ohpc-bench -fig=s1 -quick -json=-

# Non-test Go lines per package outside benchmark/ (and outside the
# analyzer corpora under testdata/), then the total: the number ROADMAP
# quotes and every simplicity PR reports its per-package delta against.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^benchmark/' -e '/testdata/' | xargs wc -l | \
	awk '$$2 != "total" { d = $$2; if (!sub("/[^/]*$$", "", d)) d = "."; n[d] += $$1; t += $$1 } \
	     END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# Directory demo: serve the sharded name service (3 shards x 2 replicas)
# on real TCP for a few seconds and print the client bootstrap blob.
registry:
	@mkdir -p bin
	$(GO) build -o bin/ohpc-registry ./cmd/ohpc-registry
	./bin/ohpc-registry -listen 127.0.0.1:7777 -shards 3 -replicas 2 & \
	reg=$$!; \
	sleep 3; \
	kill -INT $$reg; \
	wait $$reg || true

# Live-introspection demo: run the demo tour with the plane attached and
# watch it through four ohpc-top frames.
top:
	@mkdir -p bin
	$(GO) build -o bin/ohpc-demo ./cmd/ohpc-demo
	$(GO) build -o bin/ohpc-top ./cmd/ohpc-top
	./bin/ohpc-demo -introspect=127.0.0.1:8090 -linger=6s & \
	demo=$$!; \
	sleep 1; \
	./bin/ohpc-top -addr=127.0.0.1:8090 -interval=1s -frames=4; \
	wait $$demo
