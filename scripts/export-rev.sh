#!/usr/bin/env bash
# Prints the directory holding REV's committed files, exported with `git
# archive` under .bench_build/pairs/<commit> (what the acceptance driver
# measures: committed files in a new directory). An export is kept for the
# next run; an interrupted one leaves nothing behind in .git, as `git
# worktree add` would. Run from the repository root:
#
#   scripts/export-rev.sh REV
set -euo pipefail
rev=${1:?usage: export-rev.sh REV}
out=$PWD/.bench_build/pairs
sha=$(git rev-parse --verify "$rev^{commit}")
if [ ! -d "$out/$sha" ]; then
	rm -rf "$out/export"
	mkdir -p "$out/export"
	git archive "$sha" | tar -x -C "$out/export"
	mv "$out/export" "$out/$sha"
fi
echo "$out/$sha"
