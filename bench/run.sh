#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh -workload local-small -seed 1 -seconds 12 -trace 0
#
# It runs from the repository root wherever it is called from, so
# relative paths in its flags (-out, -spans, -tmp) are taken from there.
# The Go build cache, the binary and everything a run writes stay under
# .bench_build/ in the repository root.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
work="$build/work"
mkdir -p "$build/tmp" "$work"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps telemetry
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off

(cd "$root/bench" && go build -o "$build/bench" .)

# Campaign output and the WAL go to .bench_build/work. On ext4 the
# file creation and deletion there make throughput drift from run to
# run, so where the kernel allows it the run gets a private tmpfs
# mounted over that directory, in a mount namespace of its own that
# ends with the process. Otherwise it runs on whatever disk holds the
# checkout, and says so.
for ns in "" "--user --map-root-user"; do
	# shellcheck disable=SC2086 # $ns is a list of flags
	if unshare $ns --mount --propagation private mount -t tmpfs bench "$work" 2>/dev/null; then
		# shellcheck disable=SC2086
		exec unshare $ns --mount --propagation private \
			sh -c 'mount -t tmpfs -o size=2g bench "$1" && shift && exec "$@"' \
			sh "$work" "$build/bench" "$@"
	fi
done
exec "$build/bench" "$@"
