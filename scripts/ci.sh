#!/bin/sh
# Local CI gate: everything a pull request must pass, in the order the
# failures are cheapest to find. Run from anywhere inside the repo.
# Works fully offline — the workspace has no external dependencies.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings, such as broken doc links, are errors)"
# `--lib` because the facade library `tels` and the CLI binary `tels` would
# both write target/doc/tels.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib

echo "==> cargo build"
cargo build --workspace --all-targets

echo "==> cargo test"
cargo test --workspace --quiet

echo "==> perfbench tests"
# The benchmark package has its own workspace; testing it here makes a
# library API change that breaks the benchmark fail CI.
cargo test --manifest-path perfbench/Cargo.toml --quiet

echo "==> synth_pipeline smoke (consistency gates)"
# Single-sample run over the bench suite; the binary asserts that the
# tier-0 oracle changes neither a netlist byte nor the threshold-query
# count yet at least halves the suite's ILP solves (also vs the committed
# BENCH_synthesis.json baseline), that
# the integer fast path's rational-fallback rate stays bounded, that
# tracing is behaviorally inert (equal gates/queries traced vs. untraced),
# that metrics collection is behaviorally inert (byte-identical .tnet,
# equal ILP solves) and costs at most 2% wall clock when enabled, that
# the word-parallel Monte Carlo engine produces bit-identical failure
# rates to the scalar path at no less than 90% of the committed
# BENCH_synthesis.json perturb speedup (the median of five full-run
# measurements; >10% regression fails the gate),
# and that the tier-0.5 pseudo-Boolean procedure changes no netlist byte
# on the large-circuit ψ=7 leg while cutting its remaining ILP solves by
# at least half at equal-or-better wall clock (also vs the committed
# ilp_solve_reduction_large baseline). The run ends with the big-circuit
# scaling leg: a 10k+-node generated circuit streamed through parse →
# factor → synth → verify (streaming parse byte-identical to the string
# parser, stage timings gated loosely against the committed baseline to
# catch accidentally-quadratic regressions) plus the structural-hashing
# shrink assertion on the duplicated-logic ALU array. The ≥100k-node leg
# (parity_ladder(500,200); parse, factoring and synthesis may each grow
# no faster than n log n, with 1.5x headroom for caches, against the 10k
# leg) runs only in full runs, which regenerate BENCH_synthesis.json —
# not here.
cargo run --release -p tels-bench --bin synth_pipeline --quiet -- --quick

echo "==> serve_pipeline smoke (daemon throughput + determinism gates)"
# Single-round run of the serve benchmark: asserts served `.tnet` bytes
# match the one-shot binary for every suite circuit (cold and
# persisted-warm), warm serve throughput at least 2x the
# per-invocation rate, and a linear frame codec: encoding and decoding a
# 1 MiB synth frame may cost at most 3x per byte what a 64 KiB one does
# (a reader that rescans the document per character is 16x). Skips the
# BENCH_serve.json rewrite.
cargo run --release -p tels-bench --bin serve_pipeline --quiet -- --quick

echo "==> traced synthesis smoke (trace/stats round-trip)"
# One traced CLI run: the Chrome trace must parse, nest, cover all four
# instrumented crates, and journal one provenance event per emitted gate;
# the --stats-json object must carry the machine-readable stats schema.
# --no-tier0 keeps the run on the ILP path so `ilp` category events exist.
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
cat > "$smoke_dir/smoke.blif" <<'BLIF'
.model ci_smoke
.inputs a b c d e
.outputs f g
.names a b c d f
11-- 1
1-1- 1
---1 1
.names a c e g
111 1
--0 1
.end
BLIF
cargo run --release --quiet -p tels-cli --bin tels -- synth "$smoke_dir/smoke.blif" \
    --no-tier0 --trace "$smoke_dir/trace.json" --stats-json > "$smoke_dir/stats.json"
cargo run --release --quiet -p tels-cli --bin tels -- trace-check \
    "$smoke_dir/trace.json" "$smoke_dir/stats.json"

echo "==> serve daemon smoke (socket protocol, malformed frame, byte identity)"
# Start the daemon on a unix socket and drive it with `tels client`:
# three submissions — a deliberately malformed frame (must come back as a
# clean error reply, not a crash) and two synthesis jobs (cold then warm
# cache) whose `.tnet` bytes must equal one-shot `tels synth` on the same
# input. `--shutdown` must stop the daemon cleanly (exit 0) and leave the
# persisted cache file behind.
sock="$smoke_dir/tels.sock"
cargo run --release --quiet -p tels-cli --bin tels -- serve \
    --socket "$sock" --cache-file "$smoke_dir/cache.bin" --metrics &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null; rm -rf "$smoke_dir"' EXIT
for _ in $(seq 1 100); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ] || { echo "ci.sh: daemon socket never appeared" >&2; exit 1; }
cargo run --release --quiet -p tels-cli --bin tels -- synth \
    "$smoke_dir/smoke.blif" -o "$smoke_dir/oneshot.tnet" --stats-json \
    > "$smoke_dir/oneshot_stats.json"
cargo run --release --quiet -p tels-cli --bin tels -- client --socket "$sock" --malformed
cargo run --release --quiet -p tels-cli --bin tels -- client --socket "$sock" \
    "$smoke_dir/smoke.blif" -o "$smoke_dir/served_cold.tnet"
cargo run --release --quiet -p tels-cli --bin tels -- client --socket "$sock" \
    "$smoke_dir/smoke.blif" -o "$smoke_dir/served_warm.tnet"
cmp "$smoke_dir/oneshot.tnet" "$smoke_dir/served_cold.tnet"
cmp "$smoke_dir/oneshot.tnet" "$smoke_dir/served_warm.tnet"
# Scrape live metrics once: the Prometheus exposition must pass the
# in-tree lint (every series has a # TYPE, no duplicate series) and carry
# the two jobs served above; `tels top --count 1` must render a frame.
cargo run --release --quiet -p tels-cli --bin tels -- client --socket "$sock" \
    --metrics-prom --lint-prom > "$smoke_dir/metrics.prom"
grep -q '^tels_serve_jobs_ok_total 2$' "$smoke_dir/metrics.prom" \
    || { echo "ci.sh: metrics scrape missing served jobs" >&2; exit 1; }
# The tier-0.5 series must be registered and linted (its value is 0 here
# — the smoke jobs run at the default ψ = 3, below the tier's 6-variable
# floor — presence is what this checks).
grep -q '^tels_check_tier05_total ' "$smoke_dir/metrics.prom" \
    || { echo "ci.sh: metrics scrape missing tier-0.5 series" >&2; exit 1; }
# Each finished run publishes its check outcomes once: both served jobs
# run at ψ = 3, where tier 0 answers before the cache, so the scraped
# tier-0 count is twice the one-shot run's.
tier0=$(sed -n 's/^ *"tier0_lookups": *\([0-9]*\).*/\1/p' "$smoke_dir/oneshot_stats.json")
grep -q "^tels_check_tier0_total $((2 * tier0))\$" "$smoke_dir/metrics.prom" \
    || { echo "ci.sh: tels_check_tier0_total is not twice $tier0" >&2; exit 1; }
cargo run --release --quiet -p tels-cli --bin tels -- top --socket "$sock" --count 1 \
    | grep -q "jobs ok 2" \
    || { echo "ci.sh: tels top did not render live stats" >&2; exit 1; }
cargo run --release --quiet -p tels-cli --bin tels -- client --socket "$sock" --shutdown
wait "$serve_pid"
trap 'rm -rf "$smoke_dir"' EXIT
[ -f "$smoke_dir/cache.bin" ] || { echo "ci.sh: daemon left no cache file" >&2; exit 1; }
[ -f "$smoke_dir/cache.bin.metrics.json" ] \
    || { echo "ci.sh: daemon left no final metrics snapshot" >&2; exit 1; }

echo "==> differential fuzz (quick budget) + corpus replay"
# 500 seeded cases through the full oracle matrix (streaming-vs-string
# BLIF parse identity, tier-0/tier-0.5/trace/metrics/serve
# determinism, synthesis and one-to-one correctness vs the source),
# then every committed reproducer in tests/corpus/ — each is a past
# failure that must stay fixed forever. Any new counterexample is shrunk
# and written to tests/corpus/ for triage (and must be fixed + committed).
cargo run --release --quiet -p tels-cli --bin tels -- fuzz \
    --cases 500 --seed 1 --progress 0 --corpus tests/corpus
cargo run --release --quiet -p tels-cli --bin tels -- fuzz --replay tests/corpus

echo "ci.sh: all checks passed"
