#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#	bash lsdperf/run.sh --workload cold-small --seed 1 --seconds 30 --trace 0
#
# Build outputs and the Go build cache live in .bench_build at the
# checkout root, so nothing is written outside the checkout. The build
# needs the repository's own module one directory up; without it the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "$0")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/lsdperf" .)
cd "$root"
exec "$build/lsdperf" "$@"
