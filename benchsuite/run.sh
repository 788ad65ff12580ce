#!/usr/bin/env bash
# Builds the workload benchmark from source and runs it; every argument
# is passed through (see README.md in this directory). Run it from the
# repository root: all build state, the Go cache included, stays under
# .bench_build/ there, and the build needs no network.
set -euo pipefail

root=$PWD
if [[ ! -f "$root/benchsuite/go.mod" ]]; then
	echo "run.sh: run from the repository root (benchsuite/go.mod not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/home" "$build/bin"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$root/benchsuite" && go build -o "$build/bin/benchsuite" .)
exec "$build/bin/benchsuite" "$@"
