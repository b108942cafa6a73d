package main

// Message shapes shared by the workloads and the layer cells: the
// argument and the result are one XDR int32 array of this many elements.
const (
	smallInts = 64    // 260 B on the wire: fixed per-call cost dominates
	midInts   = 1024  // 4 KiB: the glue chain's shape
	bulkInts  = 65536 // 256 KiB: per-byte cost dominates
)

const (
	warmupCalls = 1000 // per set-up, after selection and dial
	asyncWindow = 64   // futures the batched issuer keeps in flight
)

// workload is one named traffic shape. All are closed loops: a caller
// waits for its reply (sync) or for a slot in the future window (async).
type workload struct {
	name string
	why  string
	ints int
	// blockCalls is the fixed call count of one repetition, all callers
	// together, sized to about a second on a 2-vCPU host. Fixed counts,
	// not durations, so parent and change do identical work per repetition.
	blockCalls int
	async      bool // one issuer, asyncWindow InvokeAsync calls in flight, batching on
	glue       bool // through a glue entry: quota + auth + checksum + encrypt
	// tourEvery > 0: the object moves to its other home (same machine as
	// the callers -> shm, another machine -> TCP) at a barrier after
	// every tourEvery calls per caller.
	tourEvery int
}

var workloads = []workload{
	{
		name: "rmi_small_sync", ints: smallInts, blockCalls: 40000,
		why: "fixed per-call cost: core invoke engine, wire header codec, transport mux and server, dispatch; bypasses capability, the coalescer and bulk xdr",
	},
	{
		name: "rmi_small_batched", ints: smallInts, blockCalls: 100000, async: true,
		why: "throughput, not latency: future, coalescer, wire batch codec and server batch dispatch do the work over the same wire, transport and core layers",
	},
	{
		name: "rmi_bulk_migrating", ints: bulkInts, blockCalls: 1000, tourEvery: 50,
		why: "per-byte cost and adaptivity: xdr array codec, wire body copies, transport read and write; 1 call in 50 chases a move and re-selects shm or TCP",
	},
	{
		name: "rmi_glue_chain", ints: midInts, blockCalls: 20000, glue: true,
		why: "capability cost against network cost: quota, auth, checksum and encrypt on every request and reply; every other workload bypasses capability",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one gated end-to-end metric. bound is the share of the
// parent's median by which it may get worse; BENCHMARK.json repeats this
// table and the smoke test holds the two together.
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []metricDef{
	{"calls_per_s", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"lat_p99_us", "us", "lower", 0.25},
	{"cpu_us_per_call", "us", "lower", 0.25},
	{"allocs_per_call", "count", "lower", 0.02},
	{"alloc_B_per_call", "bytes", "lower", 0.02},
	{"heap_peak_MB", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

func endToEndDef(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

type metric struct {
	name  string
	value float64
	unit  string
}

// result is what one run reports: its metrics, and the calls it
// attempted and failed over warm-up and measurement together.
type result struct {
	metrics   []metric
	notes     []string
	attempted int64
	failed    int64
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// account adds a finished deployment's calls to the result: attempted, and
// failed for an error, a wrong reply or a call no servant accounts for.
func (r *result) account(d *deployment) {
	r.attempted += d.attempted
	r.failed += d.failed + d.unaccounted()
}
