#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it runs in and runs it
# with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload read-embedded --seed 1 --seconds 40 --trace 0
#
# The Go build cache, HOME and temporary files live under .bench_build so
# that nothing outside the checkout is written.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/bin" "$build/home" "$build/tmp"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/home/go" \
	TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" "$@"
