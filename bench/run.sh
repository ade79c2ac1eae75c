#!/usr/bin/env bash
# Builds the benchmark and runs it with the given flags, from the root of
# the checkout. Everything the build and the run write stays inside the
# checkout: the Go build cache and the binary under .bench_build/, the
# generated inputs and reports under bench/out/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build=$root/.bench_build
bin=$build/dmbench
# Rebuild only when a Go source is newer than the binary: the check costs
# milliseconds, an up-to-date "go build" a second of every run.
if [ ! -x "$bin" ] || [ -n "$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	mkdir -p "$build/tmp"
	GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath GOMODCACHE=$build/gopath/mod \
		GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local \
		go build -C bench -o "$bin" .
fi
exec "$bin" "$@"
