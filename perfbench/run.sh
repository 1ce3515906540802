#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# arguments given. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cold-dense --seed 1 --seconds 10 --trace 0
#
# Every file the build writes (Go build cache, temporary files) stays under
# .bench_build/, and the module proxy is off, so the build needs no network.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
