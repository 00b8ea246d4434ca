#!/bin/sh
# CI gate: the tier-1 build and tests, every crate's test suite, and the
# end-to-end checks of the `repro` CLI and daemon below. Any failure —
# including a golden-transcript diff, which `cargo test` surfaces via
# tests/golden_repro.rs — fails the run. Performance is measured
# separately, by `python3 perfbench/run.py`.
set -eux

# Regenerated run artifacts land under out/ (gitignored); only the
# fidelity report (FIDELITY.json) is committed at the repo root.
OUT=out
mkdir -p "$OUT"

cargo build --release
cargo clippy --workspace -- -D warnings
cargo test -q
# Every crate's unit and integration suites (phy, fec, sim, mac, core,
# validate, store, serve, the repro CLI exit-code contract, and the root
# tests again), which the root-package run above does not reach.
cargo test --workspace -q
cargo bench --workspace --no-run
cargo run --release -p wavelan-bench --bin repro -- --list
cargo run --release -p wavelan-bench --bin repro -- --scale smoke --format json > "$OUT/REPRO_SMOKE.json"
# Validate the JSON output parses (the in-tree round-trip tests cover the
# parser itself; jq is a belt-and-braces check where available).
if command -v jq >/dev/null 2>&1; then
    jq . "$OUT/REPRO_SMOKE.json" > /dev/null
else
    # The golden test diffs the same document; a byte-identical match to the
    # committed tests/golden/repro_smoke.json proves it parses.
    cmp "$OUT/REPRO_SMOKE.json" tests/golden/repro_smoke.json
fi
# Scenario-scripting gate: the event-DAG conformance suite runs explicitly
# (determinism, declaration-permutation stability, the ported capture
# tests, and the malformed-script paths), then one scripted scenario's
# transcript is pinned byte-for-byte against its golden file.
cargo test -q --test scenario_dag --test scenario_capture --test scenario_negative
cargo run --release -p wavelan-bench --bin repro -- --scenario list
cargo run --release -p wavelan-bench --bin repro -- --scenario walk-by --scale smoke > "$OUT/SCENARIO_WALKBY.txt"
cmp "$OUT/SCENARIO_WALKBY.txt" tests/golden/scenario_walkby_smoke.txt

# Parameter-sweep gate: the smoke preset's JSON document is pinned against
# its golden file (ranking, sensitivity, per-point seeds — any drift in
# sweep determinism shows up as a byte diff). tests/sweep_determinism.rs
# covers jobs- and axis-order-invariance under `cargo test` above.
cargo run --release -p wavelan-bench --bin repro -- sweep --space list
cargo run --release -p wavelan-bench --bin repro -- sweep --space oven-smoke --format json > "$OUT/SWEEP_SMOKE.json"
cmp "$OUT/SWEEP_SMOKE.json" tests/golden/sweep_smoke.json

# Trace-pipeline gate: export one artifact's columnar trace, re-analyze it
# offline, and require the offline report to match the live run's JSON
# byte-for-byte. The `trace-info` header summary is pinned against a golden
# snapshot (format version, spec hash, seed, per-stream tallies), and the
# streaming conformance suites run explicitly (all 18 artifacts
# streamed==buffered, jobs-invariance, export→reanalyze identity, codec
# property tests, the constant-memory proof).
cargo run --release -p wavelan-bench --bin repro -- table2 --scale smoke --seed 1996 --trace-out "$OUT/TRACE_TABLE2.wltc" --format json > "$OUT/TRACE_LIVE.json"
cargo run --release -p wavelan-bench --bin repro -- reanalyze "$OUT/TRACE_TABLE2.wltc" --format json > "$OUT/TRACE_REANALYZED.json"
cmp "$OUT/TRACE_LIVE.json" "$OUT/TRACE_REANALYZED.json"
cargo run --release -p wavelan-bench --bin repro -- trace-info "$OUT/TRACE_TABLE2.wltc" > "$OUT/TRACE_INFO.txt"
cmp "$OUT/TRACE_INFO.txt" tests/golden/trace_header_smoke.txt
cargo test -q --test trace_stream --test stream_memory
cargo test -q -p wavelan-analysis --test tracecodec_props

# Paper-fidelity gate: every Table 2-14 / Figure 1-3 expectation must be
# within tolerance (exit 1 on any fail verdict), and the report must parse
# with the vendored JSON parser.
cargo run --release -p wavelan-bench --bin repro -- --validate --scale smoke --format json > FIDELITY.json
cargo run --release -p wavelan-bench --bin repro -- --check-json FIDELITY.json

# FEC hot-path gate: fail if fec or harq throughput regresses below 10x
# the PR5-era baseline (fec 1,079.6 and harq 1,154.8 pkt/s — generous
# slack under the >=20x the bit-sliced decoder landed, so host noise
# cannot flap the gate while a real kernel regression still trips it).
# The rate is read from the `[fec: ..., N pkt/s]` stderr line, which
# rounds it, so the printed integer must exceed the floor. The
# `fec_hotpath` criterion bench compiles under `cargo bench --no-run`.
cargo run --release -p wavelan-bench --bin repro -- fec harq --scale smoke 2> "$OUT/FEC_TIMING.txt" > /dev/null
for artifact in fec harq; do
    pps=$(sed -n "s/^\[$artifact: .*, \([0-9]*\) pkt\/s\]\$/\1/p" "$OUT/FEC_TIMING.txt")
    floor=$([ "$artifact" = fec ] && echo 10796 || echo 11548)
    test -n "$pps" && test "$pps" -gt "$floor" || {
        echo "FEC hot-path regression: $artifact at ${pps:-?} pkt/s (floor $floor)" >&2
        exit 1
    }
done

REPRO=./target/release/repro

# Memory ceiling: table2's trials stream through the analyzer instead of
# buffering whole receiver traces, so its peak RSS stays flat in packet
# count. A Reduced-scale run peaks near 14 MB streamed and near 169 MB
# buffered; fail above 48 MB. ru_maxrss is in KiB on Linux.
if command -v python3 >/dev/null 2>&1; then
    python3 - "$REPRO" <<'PY'
import resource, subprocess, sys
subprocess.run([sys.argv[1], "table2", "--scale", "reduced", "--jobs", "2"],
               stdout=subprocess.DEVNULL, check=True)
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"table2 reduced peak RSS: {peak_mb:.1f} MB (ceiling 48 MB)", file=sys.stderr)
sys.exit(0 if peak_mb <= 48 else 1)
PY
fi

# Starts `repro serve` as a real separate process on an ephemeral port,
# with any extra flags given, and waits for /healthz; sets SERVE_PID and
# ADDR.
start_daemon() {
    ADDR_FILE=$(mktemp)
    "$REPRO" serve --addr 127.0.0.1:0 --addr-file "$ADDR_FILE" --workers 2 "$@" &
    SERVE_PID=$!
    for _ in $(seq 1 100); do
        ADDR=$(cat "$ADDR_FILE" 2>/dev/null || true)
        if [ -n "$ADDR" ] && "$REPRO" --http-get "http://$ADDR/healthz" >/dev/null 2>&1; then
            rm -f "$ADDR_FILE"
            return 0
        fi
        sleep 0.1
    done
    echo "daemon never answered /healthz" >&2
    return 1
}

# SIGTERM must drain the daemon with exit 0.
stop_daemon() {
    kill -TERM "$SERVE_PID"
    wait "$SERVE_PID"
}

# Daemon smoke test: fetch one artifact and one sweep and byte-compare both
# to the CLI's JSON, check /metrics parses, then confirm SIGTERM drains.
start_daemon
"$REPRO" --http-get "http://$ADDR/run/tdma?seed=1996&scale=smoke" > "$OUT/SERVE_RUN.json"
"$REPRO" --check-json "$OUT/SERVE_RUN.json"
"$REPRO" --scale smoke --seed 1996 --format json tdma > "$OUT/CLI_RUN.json"
cmp "$OUT/SERVE_RUN.json" "$OUT/CLI_RUN.json"
"$REPRO" --http-get "http://$ADDR/sweep?preset=oven-smoke&scale=smoke&seed=1996" > "$OUT/SERVE_SWEEP.json"
cmp "$OUT/SERVE_SWEEP.json" "$OUT/SWEEP_SMOKE.json"
"$REPRO" --http-get "http://$ADDR/metrics" > "$OUT/SERVE_METRICS.json"
"$REPRO" --check-json "$OUT/SERVE_METRICS.json"
stop_daemon

# Store-tier smoke: restart survival. Compute one off-default key (seed 7
# is not warmed at startup, so the warm daemon cannot answer from L1)
# through a daemon with a persistent store, kill the daemon, restart it
# against the same directory, and require the re-served bytes to come from
# the disk tier (l2_hits moves — no recompute) and to match both the cold
# response and the CLI byte-for-byte.
STORE_DIR=$(mktemp -d)
start_daemon --store "$STORE_DIR"
"$REPRO" --http-get "http://$ADDR/run/tdma?seed=7&scale=smoke" > "$OUT/STORE_COLD.json"
stop_daemon
start_daemon --store "$STORE_DIR"
"$REPRO" --http-get "http://$ADDR/run/tdma?seed=7&scale=smoke" > "$OUT/STORE_WARM.json"
"$REPRO" --http-get "http://$ADDR/metrics" > "$OUT/STORE_METRICS.json"
stop_daemon
cmp "$OUT/STORE_COLD.json" "$OUT/STORE_WARM.json"
"$REPRO" --scale smoke --seed 7 --format json tdma > "$OUT/STORE_CLI.json"
cmp "$OUT/STORE_WARM.json" "$OUT/STORE_CLI.json"
L2_HITS=$(sed -n 's/.*"l2_hits": *\([0-9]*\).*/\1/p' "$OUT/STORE_METRICS.json")
test "$L2_HITS" -ge 1
rm -rf "$STORE_DIR"
