#!/usr/bin/env bash
# Offline-friendly CI gate. Everything this script needs is vendored in-tree
# (see vendor/), so it must pass with no network access and no extra tools
# beyond a stock Rust toolchain.
#
# Usage: scripts/ci.sh [--quick]
#   --quick   skip clippy, the rustdoc gate and the perfbench self-tests
#             (format check + build + test + ecas-lint only)

set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
for arg in "$@"; do
    case "$arg" in
        --quick) quick=1 ;;
        *)
            echo "unknown argument: $arg" >&2
            exit 2
            ;;
    esac
done

if command -v cargo-fmt >/dev/null 2>&1; then
    echo "==> rustfmt (check formatting)"
    cargo fmt --all --check
else
    echo "==> rustfmt not installed; skipping format check"
fi

echo "==> build (release)"
cargo build --release --workspace

echo "==> ecas-lint (workspace invariants)"
cargo run --release -p ecas-lint

echo "==> ecas-lint --json (machine-readable report -> lint-report.jsonl)"
cargo run --release -p ecas-lint -- --json > lint-report.jsonl

echo "==> test (workspace)"
cargo test -q --workspace

if [ "$quick" -eq 0 ]; then
    if command -v cargo-clippy >/dev/null 2>&1; then
        echo "==> clippy (deny warnings)"
        cargo clippy --workspace --all-targets --release -- -D warnings
    else
        echo "==> clippy not installed; skipping lint step"
    fi

    echo "==> rustdoc (deny warnings: no dead or redundant intra-doc links)"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline

    # perfbench/ is its own Cargo workspace over the public ecas-core API;
    # nothing else compiles it, so an API change that breaks the benchmark
    # fails here instead of when the benchmark next runs.
    echo "==> perfbench (build the benchmark, run its self-tests)"
    cargo test --release --offline --manifest-path perfbench/Cargo.toml
fi

echo "==> smoke: evaluate --obs (byte-identical uncached twice and at --jobs 1, cold and warm cached, warm at --jobs 1)"
obs_dir="$(mktemp -d)"
trap 'rm -rf "$obs_dir"' EXIT
./target/release/evaluate --obs "$obs_dir/obs_a" > "$obs_dir/obs_a.txt"
for artifact in manifest.json metrics.txt events timelines; do
    if [ ! -e "$obs_dir/obs_a/$artifact" ]; then
        echo "missing observability artifact: $artifact" >&2
        exit 1
    fi
done
./target/release/evaluate --obs "$obs_dir/obs_b" > "$obs_dir/obs_b.txt"
./target/release/evaluate --obs "$obs_dir/obs_seq" --jobs 1 > "$obs_dir/obs_seq.txt"
./target/release/evaluate --obs "$obs_dir/obs_cold" --cache-dir "$obs_dir/obs_cache" \
    > "$obs_dir/obs_cold.txt" 2> "$obs_dir/obs_cold.log"
./target/release/evaluate --obs "$obs_dir/obs_warm" --cache-dir "$obs_dir/obs_cache" \
    > "$obs_dir/obs_warm.txt" 2> "$obs_dir/obs_warm.log"
./target/release/evaluate --obs "$obs_dir/obs_warm_seq" --cache-dir "$obs_dir/obs_cache" --jobs 1 \
    > "$obs_dir/obs_warm_seq.txt" 2> "$obs_dir/obs_warm_seq.log"
# metrics.txt holds wall-clock spans; every other artifact must match,
# whatever the pool width.
for run in obs_b obs_seq obs_cold obs_warm obs_warm_seq; do
    if ! diff -r -x metrics.txt "$obs_dir/obs_a" "$obs_dir/$run" >&2 \
        || ! cmp -s "$obs_dir/obs_a.txt" "$obs_dir/$run.txt"; then
        echo "evaluate --obs: $run differs from the first uncached run" >&2
        exit 1
    fi
done
for run in obs_warm obs_warm_seq; do
    if ! grep -q 'cache: hits=30 misses=0 corrupt=0' "$obs_dir/$run.log"; then
        echo "evaluate --obs: $run was not served 100% from the cache" >&2
        cat "$obs_dir/$run.log" >&2
        exit 1
    fi
done
if find "$obs_dir" -name '*.tmp' | grep . >&2; then
    echo "evaluate --obs: temp files left behind" >&2
    exit 1
fi

echo "==> smoke: warm result cache (100% hits, byte-identical output at any pool width)"
cache_dir="$obs_dir/cache"
./target/release/evaluate --cache-dir "$cache_dir" \
    > "$obs_dir/eval_cold.txt" 2> "$obs_dir/eval_cold.log"
./target/release/evaluate --cache-dir "$cache_dir" \
    > "$obs_dir/eval_warm.txt" 2> "$obs_dir/eval_warm.log"
./target/release/evaluate --cache-dir "$cache_dir" --jobs 1 \
    > "$obs_dir/eval_warm_seq.txt" 2> "$obs_dir/eval_warm_seq.log"
for run in eval_warm eval_warm_seq; do
    if ! cmp -s "$obs_dir/eval_cold.txt" "$obs_dir/$run.txt"; then
        echo "warm-cache evaluate: $run output differs from the cold run" >&2
        diff "$obs_dir/eval_cold.txt" "$obs_dir/$run.txt" >&2 || true
        exit 1
    fi
    if ! grep -q 'cache: hits=30 misses=0 corrupt=0' "$obs_dir/$run.log"; then
        echo "warm-cache evaluate: $run was not served 100% from the cache" >&2
        cat "$obs_dir/$run.log" >&2
        exit 1
    fi
done

echo "==> smoke: tampered cache entry (a changed digit is corrupt, recomputed, repaired)"
# Raise the first fractional digit of mean_qoe on one entry's result line:
# same length, still valid JSON, a different answer. The header's body
# hash must reject the entry, so the cell is recomputed and rewritten.
entry="$(find "$cache_dir" -name '*.jsonl' | sort | head -n 1)"
digit="$(sed -n '2s/.*"mean_qoe":[0-9]*\.\([0-9]\).*/\1/p' "$entry")"
before="$(cksum < "$entry")"
if [ -n "$digit" ]; then
    sed -i "2s/\(\"mean_qoe\":[0-9]*\.\)$digit/\1$(( (digit + 1) % 10 ))/" "$entry"
fi
after="$(cksum < "$entry")"
if [ -z "$digit" ] || [ "$before" = "$after" ] || [ "${before#* }" != "${after#* }" ]; then
    echo "tamper leg: could not change one digit of $entry in place" >&2
    exit 1
fi
./target/release/evaluate --cache-dir "$cache_dir" \
    > "$obs_dir/eval_tampered.txt" 2> "$obs_dir/eval_tampered.log"
./target/release/evaluate --cache-dir "$cache_dir" \
    > "$obs_dir/eval_repaired.txt" 2> "$obs_dir/eval_repaired.log"
for run in eval_tampered eval_repaired; do
    if ! cmp -s "$obs_dir/eval_cold.txt" "$obs_dir/$run.txt"; then
        echo "tampered-cache evaluate: $run output differs from the cold run" >&2
        diff "$obs_dir/eval_cold.txt" "$obs_dir/$run.txt" >&2 || true
        exit 1
    fi
done
if ! grep -q 'cache: hits=29 misses=1 corrupt=1' "$obs_dir/eval_tampered.log"; then
    echo "tampered-cache evaluate: the changed entry was not counted corrupt and recomputed" >&2
    cat "$obs_dir/eval_tampered.log" >&2
    exit 1
fi
if ! grep -q 'cache: hits=30 misses=0 corrupt=0' "$obs_dir/eval_repaired.log"; then
    echo "tampered-cache evaluate: the recompute did not repair the entry" >&2
    cat "$obs_dir/eval_repaired.log" >&2
    exit 1
fi

echo "==> bench binaries go through the shared CLI (no direct env::args)"
if grep -Rn 'env::args' crates/bench/src/bin/; then
    echo "bench binaries must parse arguments via ecas_bench::cli" >&2
    exit 1
fi

echo "==> smoke: figure binaries (cold and warm through a cache, uncached at --jobs 1: same stdout)"
for bin in fig5 fig6 fig7 ablation_extras robustness; do
    fig_cache="$obs_dir/fig_cache_$bin"
    ./target/release/$bin --cache-dir "$fig_cache" \
        > "$obs_dir/${bin}_cold.txt" 2> "$obs_dir/${bin}_cold.log"
    ./target/release/$bin --cache-dir "$fig_cache" \
        > "$obs_dir/${bin}_warm.txt" 2> "$obs_dir/${bin}_warm.log"
    ./target/release/$bin --jobs 1 > "$obs_dir/${bin}_seq.txt"
    for run in warm seq; do
        if ! cmp -s "$obs_dir/${bin}_cold.txt" "$obs_dir/${bin}_$run.txt"; then
            echo "$bin: the $run run's output differs from the cold cached run" >&2
            diff "$obs_dir/${bin}_cold.txt" "$obs_dir/${bin}_$run.txt" >&2 || true
            exit 1
        fi
    done
    if ! grep -Eq 'cache: hits=[1-9][0-9]* misses=0 corrupt=0' "$obs_dir/${bin}_warm.log"; then
        echo "$bin: the warm run was not served 100% from the cache" >&2
        cat "$obs_dir/${bin}_warm.log" >&2
        exit 1
    fi
done

echo "==> smoke: fault injection (determinism + liveness)"
./target/release/fault_sweep --smoke > "$obs_dir/fault_sweep_1.txt"
./target/release/fault_sweep --smoke > "$obs_dir/fault_sweep_2.txt"
if ! cmp -s "$obs_dir/fault_sweep_1.txt" "$obs_dir/fault_sweep_2.txt"; then
    echo "fault sweep is not byte-identical across runs" >&2
    diff "$obs_dir/fault_sweep_1.txt" "$obs_dir/fault_sweep_2.txt" >&2 || true
    exit 1
fi
if ! grep -Eq 'total_retries=[1-9][0-9]*' "$obs_dir/fault_sweep_1.txt"; then
    echo "fault smoke produced zero retries; injection is dead" >&2
    cat "$obs_dir/fault_sweep_1.txt" >&2
    exit 1
fi

echo "==> smoke: replay oracle (determinism + zero divergences)"
./target/release/oracle_fuzz --smoke --seed 0xECA5 > "$obs_dir/oracle_fuzz_1.txt"
./target/release/oracle_fuzz --smoke --seed 0xECA5 > "$obs_dir/oracle_fuzz_2.txt"
if ! cmp -s "$obs_dir/oracle_fuzz_1.txt" "$obs_dir/oracle_fuzz_2.txt"; then
    echo "oracle fuzz is not byte-identical across runs" >&2
    diff "$obs_dir/oracle_fuzz_1.txt" "$obs_dir/oracle_fuzz_2.txt" >&2 || true
    exit 1
fi
if ! grep -Eq 'replay_checks=[1-9][0-9]* objective_checks=[1-9][0-9]* failures=0' "$obs_dir/oracle_fuzz_1.txt"; then
    echo "oracle smoke found divergences (or ran zero checks)" >&2
    cat "$obs_dir/oracle_fuzz_1.txt" >&2
    exit 1
fi

echo "==> smoke: fleet engine (determinism + parallel == sequential + liveness)"
./target/release/fleet --smoke > "$obs_dir/fleet_1.txt"
./target/release/fleet --smoke > "$obs_dir/fleet_2.txt"
./target/release/fleet --smoke --jobs 1 > "$obs_dir/fleet_seq.txt"
if ! cmp -s "$obs_dir/fleet_1.txt" "$obs_dir/fleet_2.txt"; then
    echo "fleet smoke is not byte-identical across runs" >&2
    diff "$obs_dir/fleet_1.txt" "$obs_dir/fleet_2.txt" >&2 || true
    exit 1
fi
if ! cmp -s "$obs_dir/fleet_1.txt" "$obs_dir/fleet_seq.txt"; then
    echo "fleet parallel aggregate differs from sequential (--jobs 1)" >&2
    diff "$obs_dir/fleet_1.txt" "$obs_dir/fleet_seq.txt" >&2 || true
    exit 1
fi
if ! grep -Eq 'users=100000 ' "$obs_dir/fleet_1.txt"; then
    echo "fleet smoke did not simulate the full 100k-user population" >&2
    cat "$obs_dir/fleet_1.txt" >&2
    exit 1
fi

echo "==> smoke: cached fleet (cold == warm == uncached --jobs 1, warm all hits)"
fleet_cache="$obs_dir/fleet_cache"
./target/release/fleet --users 1000 --duration 20 --cache-dir "$fleet_cache" \
    > "$obs_dir/fleet_cold.txt" 2> "$obs_dir/fleet_cold.log"
./target/release/fleet --users 1000 --duration 20 --cache-dir "$fleet_cache" \
    > "$obs_dir/fleet_warm.txt" 2> "$obs_dir/fleet_warm.log"
./target/release/fleet --users 1000 --duration 20 --jobs 1 > "$obs_dir/fleet_plain.txt"
for run in fleet_warm fleet_plain; do
    if ! cmp -s "$obs_dir/fleet_cold.txt" "$obs_dir/$run.txt"; then
        echo "cached fleet: $run output differs from the cold cached run" >&2
        diff "$obs_dir/fleet_cold.txt" "$obs_dir/$run.txt" >&2 || true
        exit 1
    fi
done
if ! grep -q 'cache: hits=1000 misses=0 corrupt=0' "$obs_dir/fleet_warm.log"; then
    echo "warm fleet run was not served 100% from the cache" >&2
    cat "$obs_dir/fleet_warm.log" >&2
    exit 1
fi

echo "==> smoke: record corpus (batch-record + order-stable verify + self-diff + index check)"
corpus_dir="$obs_dir/corpus"
./target/release/session batch-record --users 6 --seed 7 --duration 20 --batch 4 "$corpus_dir" >/dev/null
./target/release/session verify --jobs 4 "$corpus_dir" > "$obs_dir/corpus_par.txt"
./target/release/session verify --jobs 1 "$corpus_dir" > "$obs_dir/corpus_seq.txt"
if ! cmp -s "$obs_dir/corpus_par.txt" "$obs_dir/corpus_seq.txt"; then
    echo "parallel corpus verify differs from sequential (--jobs 1)" >&2
    diff "$obs_dir/corpus_par.txt" "$obs_dir/corpus_seq.txt" >&2 || true
    exit 1
fi
if ! grep -q 'records=6 failures=0' "$obs_dir/corpus_par.txt"; then
    echo "corpus verify did not pass all 6 recorded sessions" >&2
    cat "$obs_dir/corpus_par.txt" >&2
    exit 1
fi
./target/release/session diff "$corpus_dir" "$corpus_dir" > "$obs_dir/corpus_diff.txt"
if ! grep -q 'matched=6 diverged=0 only_a=0 only_b=0' "$obs_dir/corpus_diff.txt"; then
    echo "corpus self-diff reported divergences" >&2
    cat "$obs_dir/corpus_diff.txt" >&2
    exit 1
fi
# A record renamed away from its key still replays, but the directory now
# disagrees with corpus.json twice: one indexed key has no file, one file
# is not indexed. Verify must count both and exit 1.
renamed_dir="$obs_dir/corpus_renamed"
cp -r "$corpus_dir" "$renamed_dir"
records=("$renamed_dir"/*.ecasr)
mv "${records[0]}" "$renamed_dir/0000000000000000.ecasr"
status=0
./target/release/session verify "$renamed_dir" > "$obs_dir/corpus_renamed.txt" || status=$?
if [ "$status" -ne 1 ] || ! grep -q 'records=6 failures=2' "$obs_dir/corpus_renamed.txt"; then
    echo "corpus verify did not flag a record renamed away from corpus.json (exit $status)" >&2
    cat "$obs_dir/corpus_renamed.txt" >&2
    exit 1
fi

echo "==> smoke: hot-path perf gate (work-counter determinism + collapse check)"
scripts/bench.sh

echo "==> golden: session-record corpus (replay + byte-identical re-record)"
scripts/golden.sh

echo "CI OK"
