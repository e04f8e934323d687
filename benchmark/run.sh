#!/usr/bin/env bash
# The one command of the repo benchmark. Run from the repository root:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run (driver contract)
#   bash benchmark/run.sh run [--seed N] [--trace] [--workload W] [--runs R] [--smoke]
#   bash benchmark/run.sh compare A.json B.json
#   bash benchmark/run.sh --sets 2 [run flags]    two sets of three runs taking turns, then compare
#
# Builds the benchmark package (release, offline) on first use; the build
# goes to $CARGO_TARGET_DIR when set, benchmark/target otherwise.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bench() {
    cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
}

if [[ "${1:-}" == "--sets" ]]; then
    sets="${2:?--sets needs a count}"
    shift 2
    [[ "$sets" == 2 ]] || { echo "run.sh: --sets compares two sets" >&2; exit 2; }
    out="$here/out"
    bench run --runs 3 --sets 2 "$@" --out "$out/result.json"
    bench compare "$out/set1.json" "$out/set2.json"
else
    bench "$@"
fi
