#!/usr/bin/env bash
# The acceptance protocol for a performance claim (EXPERIMENTS.md, "Paired
# runs"): N alternating pairs of the benchmark at PARENT and at the working
# tree, then one table row per end-to-end metric — median [q1, q3] per side,
# change ÷ parent, pairs the change won. Run from the repository root:
#
#   scripts/bench-pairs.sh PARENT WORKLOAD [N] [SEED] [SECONDS]
#
# Each side is built by its own benchmark/run.sh from its own files. The
# parent's are exported under .bench_build/pairs/<commit> with `git archive`
# (what the acceptance driver measures — committed files in a new directory —
# and an interrupted run leaves no registration behind in .git, as `git
# worktree add` would); a commit's export and its build cache are kept for
# the next run. Stay idle while it runs: anything else on the machine lands
# in the numbers.
set -euo pipefail
parent=${1:?usage: bench-pairs.sh PARENT WORKLOAD [N] [SEED] [SECONDS]}
workload=${2:?usage: bench-pairs.sh PARENT WORKLOAD [N] [SEED] [SECONDS]}
n=${3:-10} seed=${4:-1} seconds=${5:-15}

load=$(cut -d' ' -f1 /proc/loadavg) cores=$(nproc)
if [ "${FORCE:-0}" != 1 ] && awk -v l="$load" -v c="$cores" 'BEGIN { exit !(l > c / 2) }'; then
	echo "bench-pairs: 1-minute load average $load is over half of $cores cores; wait, or FORCE=1" >&2
	exit 1
fi

out=$PWD/.bench_build/pairs
sha=$(git rev-parse --verify "$parent^{commit}")
if [ ! -d "$out/$sha" ]; then
	rm -rf "$out/export"
	mkdir -p "$out/export"
	git archive "$sha" | tar -x -C "$out/export"
	mv "$out/export" "$out/$sha"
fi
: >"$out/runs"

# run SIDE SECONDS prints the last line of one run: its JSON.
run() {
	local dir=$PWD
	[ "$1" = parent ] && dir=$out/$sha
	(cd "$dir" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$2" --trace 0 2>/dev/null | tail -n 1)
}

# Build both sides and warm the page cache before anything is timed.
run parent 1 >/dev/null
run change 1 >/dev/null

for i in $(seq "$n"); do
	order="parent change"
	[ $((i % 2)) -eq 0 ] && order="change parent" # odd pairs parent first
	for side in $order; do
		json=$(run "$side" "$seconds")
		echo "pair $i $side $json" >&2
		echo "$i $side $json" >>"$out/runs"
	done
done

# The metrics and which way is better come from BENCHMARK.json's end_to_end
# list (one field per line, as it is laid out); the values from each run's
# "name":{"unit":…,"value":V}.
awk -v workload="$workload" -v seed="$seed" -v n="$n" -v runs="$out/runs" '
function value(json, name,    at, rest) {
	at = index(json, "\"" name "\":{")
	if (!at) return "nan"
	rest = substr(json, at)
	sub(/^[^}]*"value":/, "", rest)
	sub(/[,}].*$/, "", rest)
	return rest + 0
}
function quantile(side, m, q,    i, j, tmp, v, pos, lo) {
	for (i = 1; i <= n; i++) v[i] = val[side, m, i]
	for (i = 2; i <= n; i++) { tmp = v[i]; for (j = i - 1; j >= 1 && v[j] > tmp; j--) v[j + 1] = v[j]; v[j + 1] = tmp }
	pos = 1 + q * (n - 1); lo = int(pos)
	return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}
function fmt(x) { return x >= 10000 ? sprintf("%.0f", x) : x >= 100 ? sprintf("%.1f", x) : x >= 1 ? sprintf("%.2f", x) : sprintf("%.4f", x) }
function cell(side, m) { return fmt(quantile(side, m, .5)) " [" fmt(quantile(side, m, .25)) ", " fmt(quantile(side, m, .75)) "]" }
FILENAME == "BENCHMARK.json" {
	if ($0 ~ /"end_to_end"/) e2e = 1
	else if ($0 ~ /"per_layer"/) e2e = 0
	if (e2e && $0 ~ /"name":/) { split($0, f, "\""); names[++count] = f[4] }
	if (e2e && $0 ~ /"better":/) { split($0, f, "\""); better[names[count]] = f[4] }
	next
}
{
	json = $0; sub(/^[0-9]+ [a-z]+ /, "", json)
	for (k = 1; k <= count; k++) val[$2, names[k], $1] = value(json, names[k])
	bad = json; sub(/^.*"failed":/, "", bad)
	failed[$2] += bad + (json ~ /"correct":true/ ? 0 : 1)
}
END {
	print "| workload | metric | parent median [q1, q3] | change median [q1, q3] | change ÷ parent | pairs the change won |"
	print "|---|---|---|---|---|---|"
	for (k = 1; k <= count; k++) {
		m = names[k]; won = 0
		for (i = 1; i <= n; i++) {
			if (better[m] == "higher" ? val["change", m, i] > val["parent", m, i] : val["change", m, i] < val["parent", m, i]) won++
		}
		p = quantile("parent", m, .5)
		printf "| %s (seed %s) | `%s` | %s | %s | %s | %d/%d |\n", workload, seed, m, cell("parent", m), cell("change", m), p ? sprintf("%.3f", quantile("change", m, .5) / p) : "—", won, n
	}
	printf "failed or incorrect: parent %d, change %d (every run is in %s)\n", failed["parent"], failed["change"], runs
}' BENCHMARK.json "$out/runs"
