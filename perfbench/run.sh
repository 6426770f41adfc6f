#!/usr/bin/env bash
# Builds the m.Site benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload returning --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes goes under $CARGO_TARGET_DIR (default
# .bench_build): the Go build cache, the binary, scratch session/store
# dirs (removed after each run) and trace files.
set -euo pipefail

root=$(pwd)
work="${CARGO_TARGET_DIR:-.bench_build}"
case "$work" in
/*) ;;
*) work="$root/$work" ;;
esac
mkdir -p "$work/gocache" "$work/gotmp" "$work/config"

# Keep the toolchain's caches and its telemetry (under the user config
# dir) inside the work dir, and never reach for the network.
export GOCACHE="$work/gocache" GOTMPDIR="$work/gotmp" GOPATH="$work/gopath" XDG_CONFIG_HOME="$work/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off GOPROXY=off

commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
go -C "$root/perfbench" build -o "$work/perfbench-bin" . >&2
exec "$work/perfbench-bin" --work-dir "$work" --commit "$commit" "$@"
