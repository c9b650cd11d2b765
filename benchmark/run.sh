#!/bin/sh
# Builds the benchmark and writes a ledger: N untraced runs of every workload
# (each in a fresh process, each with its own seed), then one traced run of
# each, with the host fingerprint, seed, sizes and rates that `compare` needs.
#
#   benchmark/run.sh                      # 10 runs of 30 s per workload, seed 1
#   benchmark/run.sh --runs 5 --seed 7    # fewer runs, another seed
#   benchmark/run.sh --out benchmark/out/parent.json
#   benchmark/run.sh compare A.json B.json
#
# The build reuses the repository's target directory unless CARGO_TARGET_DIR
# says otherwise.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
target=${CARGO_TARGET_DIR:-$here/../target}
case "${1:-}" in
    compare) ;;
    *) set -- ledger "$@" ;;
esac
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" -- "$@"
