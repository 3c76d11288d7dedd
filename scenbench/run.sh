#!/usr/bin/env bash
# Builds the scenario benchmark from source and runs it with the given
# arguments. Run from the repository root; everything the build and the
# run write stays under .bench_build/ there.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config"
go build -C "$here" -o "$build/scenbench" .
exec "$build/scenbench" "$@"
