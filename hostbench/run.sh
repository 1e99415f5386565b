#!/usr/bin/env bash
# Builds the host-performance benchmark from this checkout and runs it.
#
#   bash hostbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the runs leave behind (the Go build cache, the
# binary and the traced runs' spans) goes under .hostbench/ at the root of
# the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.hostbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
(cd "$here" && go build -o "$out/hostbench" .) >&2
exec "$out/hostbench" -out "$out" "$@"
