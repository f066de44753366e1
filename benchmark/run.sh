#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there with the arguments given. Everything the build
# and the run write stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
# XDG_CONFIG_HOME: the go command keeps its telemetry counters and its env
# file under the user's configuration directory.
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/wedgebench" .)
cd "$root"
exec "$build/wedgebench" "$@"
