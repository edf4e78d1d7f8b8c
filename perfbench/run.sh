#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs one workload:
#
#   bash perfbench/run.sh --workload serve-lenet --seed 1 --seconds 50 --trace 0
#
# Run it from the root of the checkout. Everything the build writes (Go's
# build cache, temporary files, the binary) stays under .bench_build/ there.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/home/go"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=readonly GOWORK=off

if ! go -C "$here" build -o "$out/perfbench" . >&2; then
	echo "perfbench: build failed (the benchmark needs the Condor sources beside it)" >&2
	exit 3
fi

status=0
"$out/perfbench" "$@" || status=$?
if [ "$status" -ne 0 ]; then
	# A crash of the system under test kills the run: it is reported as a
	# failed run, never retried.
	echo "perfbench: run failed with exit status $status" >&2
fi
exit "$status"
