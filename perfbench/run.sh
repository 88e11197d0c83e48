#!/usr/bin/env bash
# Builds cmd/serve and the benchmark harness from the checkout's sources
# into .bench_build/, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload fleet-steady --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file it writes (Go build cache,
# binaries, bundles, temporary files) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/serve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/serve and perfbench/ must exist)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"

# Build into per-process names and rename, so concurrent invocations never
# execute a half-written binary.
go build -o "$out/bin/serve.$$" ./cmd/serve
mv -f "$out/bin/serve.$$" "$out/bin/serve"
(cd "$root/perfbench" && go build -o "$out/bin/perfbench.$$" .)
mv -f "$out/bin/perfbench.$$" "$out/bin/perfbench"

exec "$out/bin/perfbench" -root "$root" -serve "$out/bin/serve" "$@"
