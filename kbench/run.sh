#!/usr/bin/env bash
# Builds the kbench binary from this checkout and runs it with the given
# arguments. Run from the root of the repository:
#
#   bash kbench/run.sh --workload mesh --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, scratch stores and span files.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

# Fall back to the standard install location when go is not on PATH.
if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	PATH="$PATH:/usr/local/go/bin"
fi

# Build output goes to stderr: the last line of stdout is the result.
go -C kbench build -o "$out/kbench" . 1>&2

exec "$out/kbench" "$@"
