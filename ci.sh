#!/usr/bin/env bash
# Offline correctness gate for the MST reproduction.
#
# Runs everything a reviewer needs before merging, with no network access:
#   1. formatting drift, then clippy over every target of the workspace
#      with warnings as errors (`cargo clippy --workspace --all-targets
#      -- -D warnings`)
#   2. the static-analysis framework's own test suite (lexer, rule
#      fixtures, seeded fixture trees, the real tree — `cargo test -p xtask`)
#   3. the zero-dependency static-analysis pass (crates/xtask: rules R1–R5,
#      R7–R9, R11, R13; lock order is a debug-build rank, checked by gate 5);
#      the machine-readable report is archived to results/xtask_report.json
#   4. a release build of the whole workspace
#   5. the full test suite
#   6. the index tests again with `paranoid` audits after every mutation,
#      then the pinned tree images in release (`tree_shape`: page bytes,
#      signed zeros included, must not depend on the build profile)
#   7. the index shootout smoke (every row — R-tree, bulk-loaded R-tree,
#      STR-tree, TB-tree, metric tree — answers equal to the exact scan, or
#      the bin exits nonzero)
#   8. the chaos smoke test in release mode (seeded fault injection:
#      quiet schedule must be bit-identical, noisy schedule must stay
#      honest — no panics, balanced ledgers, named shard failures — and a
#      degraded answer must equal the survivors' oracle: the baseline over
#      only the objects of the shards not named), then the survivors test
#      in release (one of two engines fails part-way through k-MST queries,
#      k from 1 to 250, on all four substrates; the answer must equal the
#      other engine's alone, bit for bit, with shard 0 named)
#   9. the whole loopback and connection-chaos suites of mst-serve in
#      release mode (real TCP on ephemeral ports: the server smoke, bit-
#      identical pipelined answers, typed refusals, depth pacing, graceful
#      drains; seeded clients dying mid-pipeline, a peer that stops
#      reading, a drain with peers stopped mid-frame), because races
#      between a connection's reader, its writer, the executor worker
#      that answers its query and the other readers on the write lane
#      show at release speed
#  10. the MINDIST bit-equality suite at its full release count (plan,
#      stateless driver and unpruned reference agree to the bit on 240 000
#      seeded triples; the debug run in gate 5 checks a tenth of that)
#  11. the candidate-path bit-equality suites at their full release count
#      (`UpperKeys` against selection over all keys after every update,
#      streamed co-segments against the cut-list version, the one gap walk
#      against the three it replaced, the leaf cursor against the binary
#      search on every entry of Trucks-like R-/TB-/STR-trees, the pinned
#      per-substrate query profiles and the pinned profiles of one search
#      over two shards' trees; the debug run in gate 5 drives a tenth of
#      the seeded streams), then the batch executor's parity grid in
#      release, so its shards x workers cells race at full speed: k-MST,
#      range-MST, kNN, and the point-kNN and range grid (each answer equal
#      to unsharded `Query::run` and a brute-force oracle over the store,
#      in canonical order)
#  12. the decoder mutation sweep at its full release count (every decoder
#      of outside bytes — wire requests and responses, pages, index images,
#      WAL frames, snapshots — fed every truncation, seeded bit flips and
#      every count field at its maximum: typed errors, never a panic; the
#      debug run in gate 5 drives a tenth of the cases)
#  13. the repo benchmark's own gate: benchmark/ is a separate workspace
#      that `cargo build --workspace` never compiles, so this is the only
#      gate that catches a crate-API rename breaking it. Builds it
#      offline, runs its tests, then one smoke run of all four workloads
#      (every sampled answer must equal scan_kmst); output stays under
#      benchmark/out/
#  14. the replication smoke benchmark (a live primary/replica pair over
#      loopback TCP; the report goes to target/repl_bench.json; fails on
#      a p99 replication lag over the gate, a catch-up that does not
#      converge bit-identically, a missed failover, or a write accepted
#      with no primary)
#  15. an offline --verify-store sweep of a freshly written durable store
#  16. the asserting examples, run in release: they are the library front
#      door's only end-to-end users outside the test suites (each checks
#      its own answers, runs in under two seconds, and writes only under
#      the system temp dir)
#  17. `git status --porcelain` reads as it did before the run: no tracked
#      file modified, no new file left behind
#
# Each gate prints its wall time so slow gates are easy to spot.
set -euo pipefail
cd "$(dirname "$0")"

# gate <label> <cmd...>: run one gate, timing it. A failing gate aborts
# the script (set -e) after the failure propagates out of the function.
gate() {
    local label="$1"
    shift
    echo "==> $label"
    local t0=$SECONDS
    "$@"
    echo "    [$label: $((SECONDS - t0))s]"
}

# The tree as the run found it: which paths differ from HEAD (or are
# new), and a checksum of how — so the last gate also works on a tree
# with uncommitted edits. Outside a git checkout there is nothing to compare.
tree_state() {
    git rev-parse --is-inside-work-tree >/dev/null 2>&1 || return 0
    git status --porcelain
    git diff HEAD | cksum
}
tree_before=$(tree_state)

gate "cargo fmt --check" cargo fmt --check

gate "cargo clippy --workspace --all-targets -- -D warnings" \
    cargo clippy --workspace --all-targets -- -D warnings

gate "static analysis self-tests (cargo test -p xtask)" \
    cargo test -q -p xtask

# The check gate doubles as the report archiver: --json writes the
# deterministic violation report to stdout (empty array when clean)
# while human-readable diagnostics still go to stderr on failure.
xtask_check() {
    mkdir -p results
    cargo run --release -q -p xtask -- check --json >results/xtask_report.json
}
gate "static analysis (xtask check, report -> results/xtask_report.json)" \
    xtask_check

gate "cargo build --release --workspace" cargo build --release --workspace

gate "cargo test --workspace" cargo test -q --workspace

gate "cargo test -p mst-index --features paranoid" \
    cargo test -q -p mst-index --features paranoid

gate "pinned tree images in release (page bytes independent of the build profile)" \
    cargo test -q --release -p mst-index --test tree_shape

gate "index shootout smoke (R-tree / R-tree bulk / STR-tree / TB-tree / Metric tree agree with the scan)" \
    cargo run --release -q -p mst-bench --bin index_comparison -- \
    --objects 16 --samples 200 --queries 6 --k 2 --seed 11

gate "chaos smoke (seeded fault injection)" \
    cargo test -q --release --test chaos chaos_smoke

gate "survivors (a failed shard leaves the other shard's answer, every substrate)" \
    cargo test -q --release -p mst-search a_failed_shard_leaves_the_survivors_answer

gate "server loopback and connection chaos (TCP, typed refusals, pacing, stalled peers, drain)" \
    cargo test -q --release -p mst-serve --test loopback --test conn_chaos

gate "MINDIST bit-equality, full count (plan == stateless driver == reference)" \
    cargo test -q --release -p mst-index mindist

candidate_path_suites() {
    cargo test -q --release -p mst-trajectory -p mst-search candidate_path
    cargo test -q --release --test candidate_path
    cargo test -q --release -p mst-exec --test batch_exec
}
gate "candidate-path bit-equality, full count (UpperKeys model, walkers, pinned BFMST/metric/kNN profiles and the one-search-over-shards forest profiles; sharded parity grid incl. point-kNN and range vs brute force, at release-speed concurrency)" \
    candidate_path_suites

gate "decoder mutation sweep, full count (truncations, bit flips, inflated counts: no panics)" \
    cargo test -q --release -p mst-serve --test decoder_sweep

repo_benchmark() {
    cargo build --release --offline --manifest-path benchmark/Cargo.toml
    cargo test -q --offline --manifest-path benchmark/Cargo.toml
    bash benchmark/run.sh run --smoke
}
gate "repo benchmark (benchmark/: offline build, own tests, smoke run of all four workloads)" \
    repo_benchmark

gate "replication smoke bench (target/repl_bench.json, max-lag + failover gates)" \
    cargo run --release -q -p mst-bench --bin repl -- --smoke

# Seed a durable store (the server checkpoints the seed before it prints
# its port), stop the process, and sweep the store offline: the
# --verify-store path must report it clean and exit 0.
verify_store_smoke() {
    local dir store pid
    dir=$(mktemp -d)
    store="$dir/store"
    cargo run --release -q -p mst-serve -- \
        --store "$store" --objects 24 --shards 2 --port 0 \
        >"$dir/out.log" 2>"$dir/err.log" &
    pid=$!
    for _ in $(seq 1 150); do
        grep -q "listening on" "$dir/out.log" 2>/dev/null && break
        sleep 0.2
    done
    kill "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    cargo run --release -q -p mst-serve -- --verify-store "$store"
    rm -rf "$dir"
}
gate "offline store verification (mst-serve --verify-store)" \
    verify_store_smoke

# `cargo build --workspace` compiles the examples but nothing ran them.
asserting_examples() {
    local example
    for example in quickstart mod_lifecycle sharded_batch index_explorer transit_planning \
        serve_client fleet_compression_audit; do
        cargo run --release -q --example "$example" >/dev/null
    done
}
gate "asserting examples (release: quickstart, mod_lifecycle, sharded_batch, index_explorer, transit_planning, serve_client, fleet_compression_audit)" \
    asserting_examples

# Everything a run writes is ignored or outside the tree: a gate that
# regenerates a committed artefact, or drops a new file, shows here.
clean_tree() {
    local after
    after=$(tree_state)
    if [[ "$after" != "$tree_before" ]]; then
        echo "ci.sh: the run changed the working tree:" >&2
        diff <(echo "$tree_before") <(echo "$after") >&2 || true
        return 1
    fi
}
gate "git status --porcelain (the run left the tree as it found it)" clean_tree

echo "ci.sh: all gates passed"
