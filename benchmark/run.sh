#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything it writes (Go build cache, binary, data directories, reports)
# stays under .bench_build/ in the current directory, the checkout root.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache"
export GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/fcae-benchmark" .)
exec "$out/fcae-benchmark" "$@"
