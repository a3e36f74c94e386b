#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#	bash perfbench/run.sh --workload serve --seed 42 --seconds 30 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and
# any span dumps live under .bench_build/ in that directory, so a run
# writes nothing outside it. Build output goes to stderr; the last line
# of stdout is the result JSON.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (need go.mod and perfbench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2

# The commit stamped on results: +dirty marks uncommitted changes, and
# a checkout outside git reports unknown.
commit=unknown
if rev=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	commit=$rev
	if [[ -n $(git -C "$root" status --porcelain 2>/dev/null) ]]; then
		commit+=+dirty
	fi
fi
exec "$out/perfbench" --commit "$commit" "$@"
