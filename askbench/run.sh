#!/usr/bin/env bash
# Runs the /ask benchmark from the root of a gridmind checkout, e.g.
#   bash askbench/run.sh --workload chat-light --seed 1 --seconds 30 --trace 0
# The Go build cache and temporary files stay in .bench_build/ of the
# checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
exec go -C "$root/askbench" run . "$@"
