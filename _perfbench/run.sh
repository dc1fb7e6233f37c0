#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every flag is passed through to the benchmark binary, e.g.
#
#   bash _perfbench/run.sh --workload sparse --seed 1 --seconds 36 --trace 0
#
# Build outputs, the Go build cache, generated inputs and trace files all
# stay under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd -P)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/serve" ]]; then
	echo "run.sh: run from the repository root (no go.mod or internal/serve here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gotmp"
# XDG_CONFIG_HOME and GOPATH keep the go command's telemetry counters and
# module cache inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
# The revision goes into the provenance line; a checkout that is not its
# own git work tree reports "unknown" rather than an enclosing repository's.
rev=unknown
if [[ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" == "$root" ]]; then
	rev=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	[[ -z "$(git -C "$root" status --porcelain --untracked-files=no 2>/dev/null)" ]] || rev="$rev+modified"
fi
go -C _perfbench build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" -out "$out/perfbench-out" -rev "$rev" "$@"
