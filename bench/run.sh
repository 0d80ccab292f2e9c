#!/usr/bin/env bash
# Builds the benchmark (module dvm/bench, which needs the repository around
# it) into bench/out/, Go caches and the go command's own counter files
# included so nothing is written outside the checkout, and runs it from the
# repository root with the given arguments.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/bench/out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local XDG_CONFIG_HOME="$out/config"
go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
