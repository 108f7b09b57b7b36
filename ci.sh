#!/usr/bin/env bash
# The gate every change must pass: release build, fast engine gate, full
# test suite, bench compilation, the benchmark's own build and tests,
# warnings-as-errors lint, concurrency model checking, and the workspace
# source lint. Referenced from README.md ("Install & build").
#
# Flags:
#   --sanitize   additionally run the concurrency-sensitive test suites
#                under ThreadSanitizer (requires a nightly toolchain with
#                rust-src; skipped with a notice when unavailable).
set -euo pipefail
cd "$(dirname "$0")"

sanitize=0
for arg in "$@"; do
    case "$arg" in
        --sanitize) sanitize=1 ;;
        *) echo "ci: unknown flag $arg" >&2; exit 2 ;;
    esac
done

cargo build --release
cargo test -q -p sqlkit          # fast gate: the SQL substrate everything sits on
cargo test -q --test analyze_gold_clean  # corpus gate: analyzer silent on all gold SQL
cargo test -q --test trace_shape # trace-determinism gate: two identical runs render
                                 # identical logical traces, timestamps and volatile
                                 # events excluded
# Planner gate: sqlkit's one SELECT executor (bind, lower, pipelined
# FROM/WHERE, shared tail) must reproduce the frozen interpreter oracle
# (tests/golden/interpreter_oracle.txt: corpus gold SQL, sampled specs,
# hand-written shapes) row for row and error for error through the plan
# cache and every one-shot entry point; the oracle loader fails on a
# missing, empty, short or drifted file. Also paged round trips and
# index-set invalidation.
cargo test -q --test planner_differential --test prepared_differential

# Store gate: the crash-recovery fault matrix (every-byte truncation +
# corruption of the WAL, ~3.3k injection points), then pack a benchmark
# through the CLI and fsck every produced page file — fsck must exit 0
# on clean stores and non-zero on a corrupted one.
cargo test -q -p osql-store
cargo test -q -p osql-store --test recovery
store_dir="$(mktemp -d)"
trap 'rm -rf "$store_dir"' EXIT
cargo run --release -q -p osql-cli -- pack "$store_dir" --profile tiny
for f in "$store_dir"/*.store; do
    cargo run --release -q -p osql-cli -- fsck "$f"
done
first_store="$(ls "$store_dir"/*.store | head -n1)"
printf 'X' | dd of="$first_store" bs=1 seek=100 count=1 conv=notrunc status=none
if cargo run --release -q -p osql-cli -- fsck "$first_store" >/dev/null 2>&1; then
    echo "ci: fsck failed to flag an injected corruption" >&2
    exit 1
fi

# Server gate: the HTTP serving layer must build, pass its conformance
# smoke tests (malformed input, header/body limits, keep-alive, quota
# and queue-full 429 paths, graceful drain) and the coalescing
# determinism tests (one pipeline execution, byte-identical responses),
# and stay clippy-clean.
cargo build -p osql-server
cargo test -q -p osql-server --test http_smoke
cargo test -q -p osql-server --test coalesce
cargo clippy -p osql-server --all-targets -- -D warnings

# Replication gate: segment/manifest round-trips and the ship→apply→
# promote fault matrix (no committed-and-shipped txn lost, no unshipped
# suffix invented); follower admission (bounded-staleness floors, 503 +
# Retry-After, /healthz + /metrics exposition); the differential suite
# pinning follower responses byte-identical to the primary whenever the
# floor is met; and a CLI round-trip on a freshly packed world:
# ship → follow (exit 0, caught up) → promote → fsck-clean replicas.
cargo test -q -p osql-repl
cargo test -q -p osql-repl --test failover
cargo test -q -p osql-server --test follower
cargo test -q --test repl_differential
repl_dir="$(mktemp -d)"
trap 'rm -rf "$store_dir" "$repl_dir"' EXIT
cargo run --release -q -p osql-cli -- pack "$repl_dir/primary" --profile tiny
cargo run --release -q -p osql-cli -- repl ship "$repl_dir/primary" "$repl_dir/ship"
cargo run --release -q -p osql-cli -- repl follow "$repl_dir/ship" "$repl_dir/replica"
cargo run --release -q -p osql-cli -- repl promote "$repl_dir/replica"
for f in "$repl_dir/replica"/*.store; do
    cargo run --release -q -p osql-cli -- fsck "$f"
done

# Observability gate: trace-ID round-trip and the four /debug endpoints
# (flight lookup, recent/slow listings, SLO report) answer over real
# HTTP; the shared Retry-After rounding stays pinned; the flight
# recorder's invariants hold under exhaustive model exploration; and the
# windowed/SLO exposition stays byte-deterministic (trace_shape above).
cargo test -q -p osql-server --test http_smoke -- \
    trace_ids_round_trip_and_debug_endpoints_answer \
    retry_after_rounding_is_shared_and_pinned

# Concurrency gates (osql-chk). Three layers:
#   1. workspace-lint: no raw std::sync primitives in checked crates, no
#      lock().unwrap() outside the sanctioned helper, no wall-clock reads
#      in logical-trace code.
#   2. chk self-tests: the explorer finds its seeded bugs, the lock-order
#      analyzer flags cycles, the lint fires on fixtures.
#   3. model suites: every migrated structure's invariants explored
#      exhaustively under --cfg osql_model (separate target dir so the
#      model-world cfg does not thrash the main build cache).
cargo run --release -q -p osql-chk --bin workspace-lint
cargo test -q -p osql-chk
for crate in osql-chk osql-repl osql-runtime osql-server osql-store osql-trace sqlkit; do
    RUSTFLAGS="--cfg osql_model" CARGO_TARGET_DIR=target/model \
        cargo test -q -p "$crate" --test model
done

cargo test -q
cargo bench --no-run             # benches must always compile

# Benchmark gate: perfbench (the repository benchmark named in
# BENCHMARK.json) is a workspace of its own that builds the crates
# through path dependencies. Testing it in release builds the benchmark
# binary too, so a crate API change that breaks it fails here, and
# --locked fails on a dependency change that would rewrite
# perfbench/Cargo.lock.
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

cargo clippy -p osql-store --all-targets -- -D warnings
cargo clippy --workspace --all-targets -- -D warnings

# Optional ThreadSanitizer stage: the model checker explores schedules a
# real scheduler rarely produces, TSan validates the real std::sync path
# under genuine parallelism. Nightly-only (-Zbuild-std), so this stage is
# opt-in and degrades to a notice when the toolchain is not available.
if [ "$sanitize" -eq 1 ]; then
    host="$(rustc -vV | sed -n 's/^host: //p')"
    if rustup run nightly rustc --version >/dev/null 2>&1 \
        && rustup component list --toolchain nightly 2>/dev/null | grep -q 'rust-src (installed)'; then
        RUSTFLAGS="-Zsanitizer=thread" CARGO_TARGET_DIR=target/tsan \
            cargo +nightly test -Zbuild-std --target "$host" -q \
            -p osql-runtime -p osql-server -p osql-chk
        echo "ci: tsan ok"
    else
        echo "ci: --sanitize requested but nightly toolchain with rust-src is unavailable; skipping TSan stage" >&2
    fi
fi

echo "ci: ok"
