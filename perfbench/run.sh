#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload bigfleet-open --seed 42 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config" "$build/bin"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOTELEMETRY=off

# The checkout's own revision, if it is a git work tree; the ceiling keeps
# git from picking up a repository around it.
revision=unknown
if [ -e "$root/.git" ]; then
	revision=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" describe --always --dirty 2>/dev/null || echo unknown)
fi

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --revision "$revision" "$@"
