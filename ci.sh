#!/usr/bin/env bash
# Local CI gate: formatting, lints, the workspace invariant checker, and
# the tier-1 build + test sweep. The fmt stage is skipped (not failed)
# when rustfmt is missing; clippy is required, because it carries an
# invariant.
set -euo pipefail
cd "$(dirname "$0")"

# Each `stage` call closes the stage before it and prints the wall
# seconds it took; the closing "CI green" stage prints them all as one
# table, so what a gate costs is read off the log, not guessed.
STAGE_NAMES=()
STAGE_SECS=()
stage() {
    if [ "${#STAGE_NAMES[@]}" -gt 0 ]; then
        STAGE_SECS+=("$((SECONDS - STAGE_T0))")
        printf '    [%s: %d s]\n' "${STAGE_NAMES[-1]}" "${STAGE_SECS[-1]}"
    fi
    STAGE_NAMES+=("$*")
    STAGE_T0=$SECONDS
    printf '\n==> %s\n' "$*"
}

# Every first-party crate. The vendored stubs under vendor/ are excluded
# from the style gates on purpose: they mirror upstream code and should
# stay diffable against it, not against our formatter.
SHERIFF_CRATES=()
for d in crates/*/; do
    SHERIFF_CRATES+=("sheriff-$(basename "$d")")
done

stage "cargo fmt --check (workspace, vendor excluded)"
if cargo fmt --version >/dev/null 2>&1; then
    for c in "${SHERIFF_CRATES[@]}"; do
        cargo fmt -p "$c" -- --check
    done
else
    echo "rustfmt not installed; skipping"
fi

# Besides style, this stage holds three invariants. The routing matrix
# stays closed: every per-variant decision over `ProtoMsg` and
# `TimerKind` denies `clippy::wildcard_enum_match_arm`, and the workspace
# lint table warns on `match_wildcard_for_single_variants`, so a
# catch-all arm that would swallow a new message or timer fails here
# (rustc's E0004 does the rest). And `clippy.toml` bans wall-clock reads
# everywhere but the files that `#[expect]` them, and hash-ordered
# containers in the modules that deny `clippy::disallowed_types` —
# resolved by name, so an alias does not slip through. A missing clippy
# therefore fails the gate. `--no-deps` is what "vendor excluded" means:
# the vendored stubs are path dependencies under the same `clippy.toml`.
stage "cargo clippy -D warnings (workspace, vendor excluded)"
if ! cargo clippy --version >/dev/null 2>&1; then
    echo "clippy not installed — three invariants would go unchecked" >&2
    exit 1
fi
cargo clippy "${SHERIFF_CRATES[@]/#/-p}" --all-targets --no-deps -- -D warnings

# The invariant checker, for what needs a call graph: privacy taint,
# panic-freedom of the protocol machines, the reactor and everything
# they reach, lock order / blocking / callbacks under a guard, and the
# audit that every suppression pragma still suppresses something. That
# it can still fail — on known-bad fixtures, through this binary's exit
# code — is pinned by `cargo test -p sheriff-lint` (tier-1 tests below).
# See DESIGN.md "Static analysis & invariants" and crates/lint.
stage "sheriff-lint"
cargo run --release -q -p sheriff-lint -- crates

# Bounded model checker: exhaustively explore the sans-IO protocol
# worlds (delivery orderings, duplications, drops, timer firings, node
# crash/restarts) to the CI-pinned depths. No finding is accepted: exit
# 1 means an invariant violation, with a minimized, replayable
# counterexample in the report. See DESIGN.md "Model checking the
# protocol layer" and crates/model.
stage "sheriff-model"
cargo run --release -q -p sheriff-model -- --json target/model-report.json
echo "model report archived at target/model-report.json"

# Negative control: the explorer must still be able to fail. Each
# seeded mutation — the Database never arming `DbDone`, the channel never
# arming `Retransmit` — must be discovered; a clean run over a mutated
# world means the checker itself is broken. These two are the only
# check left for "armed but never released". Depth 8 is the first at
# which a store lands on the Database.
stage "sheriff-model negative control"
for mutation in drop-db-done-arm drop-retransmit-arm; do
    if cargo run --release -q -p sheriff-model -- \
        --world small --depth 8 --mutate "$mutation" >/dev/null 2>&1; then
        echo "world mutated by $mutation passed the model checker — explorer is broken" >&2
        exit 1
    fi
done
echo "seeded mutations correctly rejected"

stage "tier-1 build"
cargo build --workspace --all-targets

stage "tier-1 tests"
cargo test --workspace --quiet

# The protocol refactor's contract: the DES and TCP backends run the same
# sans-IO machines, so same seed + same world must yield identical
# observations. Kept as a named stage so a parity break is unmissable.
stage "cross-backend parity"
cargo test -p sheriff-wire --test backend_parity --quiet

# DES goldens: what `table1_performance` and `fig6_distribution` print
# and count at the pinned seed is committed under ci/golden/ — stdout and
# the telemetry snapshot, so `measurement.diff_bytes_stored`, every
# `db.*` key, timer and event counts, and the schedule behind them are
# compared byte for byte. A change that is not meant to move the
# simulation must pass this untouched; one that is says so by
# re-baselining in the same reviewed commit.
stage "des goldens"
mkdir -p target/golden
for bin in table1_performance fig6_distribution; do
    cargo run -q --release -p sheriff-experiments --bin "$bin" -- --seed 1742 \
        > "target/golden/${bin}.stdout"
    cp "target/experiments/${bin}_telemetry.json" target/golden/
done
for want in ci/golden/*; do
    got="target/golden/$(basename "$want")"
    if ! cmp -s "$want" "$got"; then
        diff -u "$want" "$got" | head -n 80 || true
        echo "DES output diverges from $want" >&2
        echo "(if the simulation was meant to change: cp target/golden/* ci/golden/ and commit)" >&2
        exit 1
    fi
done
echo "stdout and telemetry of both experiments match ci/golden/"

# Chaos gate: seed-deterministic fault schedules (drops, dups, delays, a
# server crash, a partition) must leave no leaked jobs and no duplicate
# observations, and the same schedule must produce identical observation
# sets on the DES and TCP backends. Seeds are pinned so the CI schedule
# is reproducible; explore locally with CHAOS_SEEDS=....
stage "chaos"
CHAOS_SEEDS="11,23,37,41,53,67,79,97" \
    cargo test -p sheriff-core --test chaos_soak --quiet
cargo test -p sheriff-wire --test chaos_parity --quiet

# Durability gate: the crash-point matrix re-runs recovery from every WAL
# record boundary (and every mid-record byte) and must reconstruct exactly
# the durable prefix; the TCP soak then kills the Database under a pinned
# seed bank and re-opens its on-disk files cold, proving zero observation
# loss on the real-file Storage backend too. See DESIGN.md, "Durability &
# recovery".
stage "durability"
cargo test -p sheriff-core --test durability --quiet
CHAOS_SEEDS="11,23,37,41,53,67,79,97" \
    cargo test -p sheriff-wire --test durability_soak --quiet

# Reactor soak gate: the sharded event-loop backend must hold a
# 1000-peer roster (second layer of the paper's 1265 installed add-ons,
# §8, without 1005 OS threads) across waves of concurrent checks, and
# must survive an entire reactor shard — every node one event-loop
# thread owns — crashing and restarting as a unit with zero acked
# observations lost. Seeds pinned for a reproducible CI schedule;
# explore locally with REACTOR_SOAK_SEEDS=... / REACTOR_SOAK_PEERS=....
stage "reactor-soak"
REACTOR_SOAK_PEERS=1000 REACTOR_SOAK_SEEDS="11,23" \
    cargo test -p sheriff-wire --test reactor_soak --quiet

# The repository's benchmark (BENCHMARK.json → pricebench/) is a
# workspace of its own with path dependencies on crates/*, so neither
# tier-1 nor any stage above compiles it: an API change in sheriff-wire
# could break it unnoticed. Its own tests run every workload at smoke
# scale (about 5 s after the build). The closing diff catches a manifest
# edit in crates/* that made cargo rewrite the benchmark's lockfile (or
# any other stray edit under the benchmark's pinned paths) here, not at
# the benchmark driver.
stage "pricebench smoke"
cargo test --offline --manifest-path pricebench/Cargo.toml
git diff --exit-code -- BENCHMARK.json pricebench/

# Benchmark summaries: the criterion stand-in prints one median line per
# benchmark; each run's summary lands in target/bench/BENCH_<group>.json
# and is diffed against the committed baseline of the same name at the
# repo root. The baselines are only ever changed by hand, in a reviewed
# commit (copy the file over) — this stage never writes outside target/,
# so a full CI run leaves `git status` clean. Every bench target is
# summarised — a group whose run emits no parseable bench line fails the
# stage (a silently-empty summary would read as "no regression" forever).
# The diff is informational: medians move with the machine, so it gates
# nothing.
stage "bench summary archive"
BENCH_GROUPS=(crypto_primitives private_kmeans extraction currency system_throughput)
mkdir -p target/bench
for group in "${BENCH_GROUPS[@]}"; do
    cargo bench -p sheriff-bench --bench "$group" \
        | tee "target/bench/${group}.txt"
    awk 'BEGIN { printf "[" }
         /^bench / { if (n++) printf ","
                     printf "\n  {\"bench\": \"%s\", \"median\": \"%s %s\"}", $2, $4, $5 }
         END { print "\n]" }' "target/bench/${group}.txt" \
        > "target/bench/BENCH_${group}.json"
    if ! grep -q '"bench"' "target/bench/BENCH_${group}.json"; then
        echo "bench group ${group} emitted no summary lines — summary would be empty" >&2
        exit 1
    fi
    echo "bench summary at target/bench/BENCH_${group}.json; against the committed baseline:"
    diff -u "BENCH_${group}.json" "target/bench/BENCH_${group}.json" || true
done

# First-party line counts per crate, so a PR's size delta is read off
# two CI logs instead of asserted in its description. A file's product
# lines end at its first module-level `#[cfg(test)]`; the rest are test
# lines.
stage "first-party src/ line counts"
printf '%-12s %8s %6s\n' crate product test
for d in crates/*/; do
    find "${d}src" -name '*.rs' -exec awk -v crate="$(basename "$d")" '
        FNR == 1 { in_test = 0 }
        /^#\[cfg\(test\)\]/ { in_test = 1 }
        { if (in_test) test++; else product++ }
        END { printf "%-12s %8d %6d\n", crate, product, test }' {} +
done

stage "CI green"
for i in "${!STAGE_SECS[@]}"; do
    printf '%5d s  %s\n' "${STAGE_SECS[$i]}" "${STAGE_NAMES[$i]}"
done
printf '%5d s  total\n' "$SECONDS"
