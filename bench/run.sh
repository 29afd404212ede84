#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the checkout root and runs it
# there with the arguments given. Everything the build and the run write
# (Go build cache included) stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$build/nvbit-bench" .
# A fresh build leaves ~70 MB of dirty build cache; flush it now, or the
# kernel writes it back during the first runs and slows them by a tenth.
sync -f "$build"
exec "$build/nvbit-bench" "$@"
