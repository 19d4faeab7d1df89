#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Usage, from anywhere: bash bench/run.sh [flags]  (see bench/README.md)
#
# The binary is stamped with the digest of the sources it was built from and
# refuses to run against a different tree. The Go caches, temporary files and
# the binary stay under .bench_build/ in the checkout.
set -euo pipefail

cd "$(dirname "$0")/.."
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

# Same list and format as digestSources in bench/stamp.go.
digest=$(find . -name '.?*' -prune -o -type f \
	\( -name '*.go' -o -name go.mod -o -name go.sum -o -name BENCHMARK.json \) -print |
	LC_ALL=C sort | xargs -d '\n' sha256sum | sha256sum | cut -d' ' -f1)

commit=unknown dirty=unknown
if [ "$(git rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit=$(git rev-parse HEAD)
	dirty=false
	[ -z "$(git status --porcelain)" ] || dirty=true
fi

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd bench && go build -buildvcs=false -o "$build/anondyn-bench" \
	-ldflags "-X main.sourceDigest=$digest -X main.commit=$commit -X main.dirty=$dirty" .)
exec "$build/anondyn-bench" "$@"
