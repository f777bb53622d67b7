#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout:
#
#   bash bench/run.sh --workload ingest-large --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write — Go's build cache, the go
# command's usage counters, the binary, the stores' metadata planes — stays
# under .bench_build/ in the checkout (span files of traced runs go to
# bench/out/). The first run in a fresh checkout compiles the standard
# library into that cache; later runs relink in well under a second.
set -euo pipefail

# The harness is a package of the program's module: without the program
# there is nothing to build, and no reason to start the go command at all.
if [ ! -f go.mod ] || [ ! -d internal/store ]; then
	echo "bench/run.sh: run from the root of a checkout of the program (no go.mod / internal/store here)" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
# The go command keeps its telemetry counters under the user's config
# directory; this moves them into the checkout as well, and turns them off:
# with telemetry on, the first go command to see a fresh config directory
# starts a detached child of itself that can outlive this script.
export XDG_CONFIG_HOME="$build/config"
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
