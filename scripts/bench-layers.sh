#!/usr/bin/env bash
# Which layer a change moved: one per-layer run of the benchmark
# (benchmark/run.sh --trace 1: layer cells, boundary counts, a traced run)
# at PARENT and one at the working tree, then one table row per per_layer
# metric in BENCHMARK.json — parent, change, change ÷ parent. A metric the
# run does not report for the workload reads "—". One run per side, so
# allocation and byte counts compare and .ns cells are indicative only.
# Run from the repository root:
#
#   scripts/bench-layers.sh PARENT WORKLOAD [SEED] [SECONDS]
set -euo pipefail
parent=${1:?usage: bench-layers.sh PARENT WORKLOAD [SEED] [SECONDS]}
workload=${2:?usage: bench-layers.sh PARENT WORKLOAD [SEED] [SECONDS]}
seed=${3:-1} seconds=${4:-15}

export_dir=$(scripts/export-rev.sh "$parent")
runs=$PWD/.bench_build/layers
mkdir -p "$runs"

# run SIDE DIR writes the last line of one per-layer run, its JSON, to
# $runs/SIDE.
run() {
	echo "bench-layers: $1 at $2" >&2
	(cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 1 2>/dev/null | tail -n 1) >"$runs/$1"
}
run parent "$export_dir"
run change "$PWD"

# The metric names come from BENCHMARK.json's per_layer list (one field per
# line, as it is laid out); the values from each run's "name":{…,"value":V}.
awk -v workload="$workload" -v seed="$seed" '
function value(json, name,    at, rest) {
	at = index(json, "\"" name "\":{")
	if (!at) return ""
	rest = substr(json, at)
	sub(/^[^}]*"value":/, "", rest)
	sub(/[,}].*$/, "", rest)
	return rest + 0
}
function fmt(x) { return x == "" ? "—" : x >= 10000 ? sprintf("%.0f", x) : x >= 100 ? sprintf("%.1f", x) : x >= 1 ? sprintf("%.2f", x) : sprintf("%.4f", x) }
FILENAME == "BENCHMARK.json" {
	if ($0 ~ /"per_layer"/) layer = 1
	else if ($0 ~ /"end_to_end"/) layer = 0
	if (layer && $0 ~ /"name":/) { split($0, f, "\""); names[++count] = f[4] }
	next
}
FILENAME ~ /\/parent$/ { parent = $0; next }
{ change = $0 }
END {
	print "| workload | metric | parent | change | change ÷ parent |"
	print "|---|---|---|---|---|"
	for (k = 1; k <= count; k++) {
		p = value(parent, names[k]); c = value(change, names[k])
		printf "| %s (seed %s) | `%s` | %s | %s | %s |\n", workload, seed, names[k], fmt(p), fmt(c), p != "" && c != "" && p != 0 ? sprintf("%.3f", c / p) : "—"
	}
}' BENCHMARK.json "$runs/parent" "$runs/change"
