#!/usr/bin/env bash
# Local CI gate: formatting, lints (which carry the workspace's static
# invariants), the model checker, and the tier-1 build + test sweep. The
# fmt stage is skipped (not failed) when rustfmt is missing; clippy is
# required, because it carries invariants.
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

# Besides style, this stage holds five invariants. Panic-freedom: the
# crates the protocol machines and the reactor reach (`core`, `wire`,
# `html`, `market`, `telemetry`, `geo`, `netsim`, `currency`) deny
# `unwrap`/`expect`, the `panic!` family and indexing at their roots, and
# each exception is an `#[expect(..., reason)]` that fails here once it
# no longer fires (`panic_free_roots.rs` in the tier-1 tests pins the
# headers). The routing matrix
# stays closed: every per-variant decision over `ProtoMsg` and
# `TimerKind` denies `clippy::wildcard_enum_match_arm`, and the workspace
# lint table warns on `match_wildcard_for_single_variants`, so a
# catch-all arm that would swallow a new message or timer fails here
# (rustc's E0004 does the rest). And `clippy.toml` bans wall-clock reads
# and the exits of a peer's `Private` plaintext everywhere but the files
# that `#[expect]` them, and hash-ordered containers in the modules that
# deny `clippy::disallowed_types` — resolved by name, so an alias does
# not slip through. A missing clippy therefore fails the gate.
# `--no-deps` is what "vendor excluded" means: the vendored stubs are
# path dependencies under the same `clippy.toml`.
stage "cargo clippy -D warnings (workspace, vendor excluded)"
if ! cargo clippy --version >/dev/null 2>&1; then
    echo "clippy not installed — five invariants would go unchecked" >&2
    exit 1
fi
cargo clippy "${SHERIFF_CRATES[@]/#/-p}" --all-targets --no-deps -- -D warnings

# Bounded model checker: exhaustively explore the sans-IO protocol
# worlds (delivery orderings, duplications, drops, timer firings, WAL
# flushes, node crash/restarts) to the CI-pinned depths. No finding is accepted: exit
# 1 means an invariant violation, with a minimized, replayable
# counterexample in the report. See DESIGN.md "Model checking the
# protocol layer" and crates/model.
stage "sheriff-model"
cargo run --release -q -p sheriff-model -- --json target/model-report.json
echo "model report archived at target/model-report.json"

# Negative control: the explorer must still be able to fail. Each
# seeded mutation must be discovered, at the smallest depth that can
# show it; a clean run over a mutated world means the checker itself is
# broken. The Database never arming `DbDone` and the channel never arming
# `Retransmit` are the only check left for "armed but never released":
# depth 8 is the first at which a store lands on the Database. A disk
# that reports each ticket durable at hand-off lets a `DbAck` out ahead
# of its flush: depth 10 is the first at which that ack reaches the
# Measurement server, where "acked means durable" starts to bind.
stage "sheriff-model negative control"
for run in drop-db-done-arm:8 drop-retransmit-arm:8 ack-at-hand-off:10; do
    mutation=${run%:*}
    if cargo run --release -q -p sheriff-model -- \
        --world small --depth "${run#*:}" --mutate "$mutation" >/dev/null 2>&1; then
        echo "world mutated by $mutation passed the model checker — explorer is broken" >&2
        exit 1
    fi
done
echo "seeded mutations correctly rejected"

stage "tier-1 build"
cargo build --workspace --all-targets

# Also runs `backend_parity` and `chaos_parity` (neither reads an env var).
stage "tier-1 tests"
cargo test --workspace --quiet

# The Coordinator's shared multi-exponentiation, the Fermat decryption,
# and encryption, blinding, unblinding, aggregation and decryption over
# fixed-base combs and shared window tables, against the per-factor forms
# they replaced, in the 256-, 512-bit and RFC 3526 2048-bit groups; and
# the window ladder and the comb against bit-by-bit square-and-multiply
# on the 2048-bit prime and its q. `#[ignore]`d in the debug sweep above,
# about ten seconds here.
stage "crypto wide-group oracles (release)"
cargo test --release -p sheriff-crypto -p sheriff-bigint --quiet -- --ignored

# DES goldens: what `table1_performance` and `fig6_distribution` print
# and count at the pinned seed is committed under ci/golden/ — stdout and
# the telemetry snapshot, so `measurement.diff_bytes_stored`, every
# `db.*` key, timer and event counts, and the schedule behind them are
# compared byte for byte. `ablation_doppelganger` and
# `sec32_bot_detection` call `PpcEngine::remote_fetch` directly, outside
# the DES, so their stdout and JSON pin the sandboxed fetch path too.
# `ablation_diffstorage` pins the bytes DiffStorage keeps for a 30-IPC
# fan-out on four retailers, so a diff or page-render change that moves
# them shows here. A change that is not meant to move the simulation must pass this
# untouched; one that is says so by re-baselining in the same reviewed
# commit.
stage "des goldens"
mkdir -p target/golden
for bin in table1_performance fig6_distribution ablation_doppelganger sec32_bot_detection \
    ablation_diffstorage; do
    cargo run -q --release -p sheriff-experiments --bin "$bin" -- --seed 1742 \
        > "target/golden/${bin}.stdout"
done
cp target/experiments/{table1_performance,fig6_distribution}_telemetry.json \
    target/experiments/{ablation_doppelganger,sec32_bot_detection,ablation_diffstorage}.json \
    target/golden/
for want in ci/golden/*; do
    got="target/golden/$(basename "$want")"
    if ! cmp -s "$want" "$got"; then
        diff -u "$want" "$got" | head -n 80 || true
        echo "DES output diverges from $want" >&2
        echo "(if the simulation was meant to change: cp target/golden/* ci/golden/ and commit)" >&2
        exit 1
    fi
done
echo "stdout and JSON of all five experiments match ci/golden/"

# Chaos gate: seed-deterministic fault schedules (drops, dups, delays, a
# server crash, a partition) must leave no leaked jobs and no duplicate
# observations. Seeds are pinned so the CI schedule is reproducible;
# explore locally with CHAOS_SEEDS=.... That the same schedule gives
# identical observation sets on both backends is `chaos_parity`, run by
# the tier-1 stage.
stage "chaos"
CHAOS_SEEDS="11,23,37,41,53,67,79,97" \
    cargo test -p sheriff-core --test chaos_soak --quiet

# Durability gate: the crash-point matrix re-runs recovery from every WAL
# record boundary (and every mid-record byte) and must reconstruct exactly
# the durable prefix; the TCP soak then kills the Database under a pinned
# seed bank and re-opens its on-disk files cold, proving zero observation
# loss on the real-file Storage backend too — once with checks one at a
# time, once with eight in flight (begin_check/await_check) while the
# crash window opens, so acks held behind the WAL flusher's group commit
# meet the crash; every acked check must be among the recovered ones.
# See DESIGN.md, "Durability & recovery".
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

# Line counts per crate, first-party then vendored, so a change's size delta
# is read off two CI logs instead of asserted in its description; the two
# closing rows total each side, so a change's net first-party product
# delta is one number. A file's product lines end at its first
# module-level `#[cfg(test)]`; the rest are test lines.
stage "first-party src/ line counts"
counts="$(for d in crates/*/ vendor/*/; do
    case "$d" in
        vendor/*) name="${d%/}" ;;
        *) name="$(basename "$d")" ;;
    esac
    find "${d}src" -name '*.rs' -exec awk -v crate="$name" '
        FNR == 1 { in_test = 0 }
        /^#\[cfg\(test\)\]/ { in_test = 1 }
        { if (in_test) test++; else product++ }
        END { printf "%-20s %8d %6d\n", crate, product, test }' {} +
done)"
printf '%-20s %8s %6s\n' crate product test
printf '%s\n' "$counts"
printf '%s\n' "$counts" | awk '
    { side = ($1 ~ /^vendor\//) ? "vendored" : "first-party"; p[side] += $2; t[side] += $3 }
    END {
        printf "%-20s %8d %6d\n", "total first-party", p["first-party"], t["first-party"]
        printf "%-20s %8d %6d\n", "total vendored", p["vendored"], t["vendored"]
    }'

stage "CI green"
for i in "${!STAGE_SECS[@]}"; do
    printf '%5d s  %s\n' "${STAGE_SECS[$i]}" "${STAGE_NAMES[$i]}"
done
printf '%5d s  total\n' "$SECONDS"
