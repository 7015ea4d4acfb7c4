#!/usr/bin/env bash
# Repository CI: formatting, lints, the tier-1 gate (ROADMAP.md), the
# paper's figure and table checks, and the benchmark gates.
#
#   ./ci.sh          # everything
#   ./ci.sh quick    # skip the release build (lints + tests only)
#
# Every step runs even when an earlier one failed. Each step runs in
# its own subshell under `set -euo pipefail`; the summary at the end
# names every failed step, and the script exits 1 if any failed.
set -uo pipefail
cd "$(dirname "$0")"

FAILED=()

# step NAME COMMAND [ARGS...]: runs COMMAND as one step and records NAME
# if it fails. Background jobs a failed step leaves behind are killed.
step() {
    local name=$1
    shift
    echo "==> $name"
    (
        set -euo pipefail
        trap 'jobs -p | xargs -r kill 2>/dev/null' EXIT
        "$@"
    )
    local status=$?
    if ((status != 0)); then
        echo "FAIL (exit $status): $name"
        FAILED+=("$name")
    fi
}

full() { [[ "${1:-}" != "quick" ]]; }

doc_check() {
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
        -p click-fraud-detection \
        $(for d in crates/*/; do echo "-p $(basename "$d" | sed 's/^/cfd-/')"; done)
}

telemetry_smoke() {
    ./target/release/cfd run --count 50000 --window 4096 --metrics=50 --metrics-json \
        2>/tmp/cfd_metrics.jsonl >/dev/null
    python3 - <<'EOF'
import json
lines = [l for l in open("/tmp/cfd_metrics.jsonl") if l.strip()]
assert lines, "reporter emitted no snapshots"
for l in lines:
    snap = json.loads(l)
    assert "metrics" in snap and "pipeline.ingest.clicks" in snap["metrics"], l
final = json.loads(lines[-1])
assert final["metrics"]["pipeline.ingest.clicks"]["value"] == 50000
print(f"   {len(lines)} snapshots parsed, ingest counter exact")
EOF
}

telemetry_smoke_timed() {
    ./target/release/cfd run --algo time-tbf --count 50000 --metrics=50 --metrics-json \
        2>/tmp/cfd_metrics_timed.jsonl >/dev/null
    python3 - <<'EOF'
import json
lines = [l for l in open("/tmp/cfd_metrics_timed.jsonl") if l.strip()]
assert lines, "reporter emitted no snapshots"
final = json.loads(lines[-1])
assert final["metrics"]["pipeline.ingest.clicks"]["value"] == 50000
print(f"   {len(lines)} snapshots parsed, timed ingest counter exact")
EOF
}

# The observability budget: live metrics may cost at most 5% of the
# pipeline's throughput. 15 pairs of `cfd run` over one 2^21-click
# stream, each pair once plain and once with `--metrics`, the order
# alternated between pairs to cancel drift on a shared host. The step
# fails when the median of the per-pair clicks/s ratios is below 0.95.
telemetry_budget() {
    local run=(./target/release/cfd run --kind duplicates --count 2097152 --window 1048576
        --cells-per-element 8 --k 6 --shards 4 --batch 1024 --queue 16)
    local rate='s/^clicks *: .*(\([0-9]*\) clicks\/s)$/\1/p'
    local pairs=() plain instr round
    for round in $(seq 0 14); do
        if ((round % 2 == 0)); then
            plain=$("${run[@]}" | sed -n "$rate")
            instr=$("${run[@]}" --metrics=60000 --metrics-json 2>/dev/null | sed -n "$rate")
        else
            instr=$("${run[@]}" --metrics=60000 --metrics-json 2>/dev/null | sed -n "$rate")
            plain=$("${run[@]}" | sed -n "$rate")
        fi
        pairs+=("$instr/$plain")
    done
    python3 - "${pairs[@]}" <<'EOF'
import statistics, sys
ratios = sorted(int(i) / int(p) for i, p in (a.split("/") for a in sys.argv[1:]))
median = statistics.median(ratios)
print(f"   median paired ratio {median:.3f} (overhead {100 * (1 - median):+.1f}%, "
      f"{len(ratios)} pairs {ratios[0]:.3f}..{ratios[-1]:.3f}), bound 0.95")
sys.exit(0 if median >= 0.95 else 1)
EOF
}

rejects_unknown_option() {
    if ./target/release/cfd run --transport ring 2>/tmp/cfd_opt_err.txt >/dev/null; then
        echo "FAIL: cfd run accepted --transport"; exit 1
    fi
    grep -q -- '--transport' /tmp/cfd_opt_err.txt
    echo "   rejected with: $(head -n 1 /tmp/cfd_opt_err.txt)"
}

rejects_zero_sub_windows() {
    ./target/release/cfd generate --kind botnet --count 1000 --out /tmp/cfd_q0.cfdt >/dev/null
    for cmd in detect run; do
        if ./target/release/cfd "$cmd" --algo time-gbf --sub-windows 0 \
            --trace /tmp/cfd_q0.cfdt 2>/tmp/cfd_q0_err.txt >/dev/null; then
            echo "FAIL: cfd $cmd accepted --sub-windows 0"; exit 1
        fi
        grep -q 'sub-window' /tmp/cfd_q0_err.txt
        if grep -q 'panicked' /tmp/cfd_q0_err.txt; then
            echo "FAIL: cfd $cmd panicked on --sub-windows 0"; exit 1
        fi
        echo "   $cmd rejected with: $(head -n 1 /tmp/cfd_q0_err.txt)"
    done
    # serve builds its detector before it binds, so it must fail the
    # same way without creating the socket.
    rm -f /tmp/cfd_q0.sock
    if ./target/release/cfd serve --algo time-gbf --sub-windows 0 \
        --listen unix:/tmp/cfd_q0.sock 2>/tmp/cfd_q0_err.txt >/dev/null; then
        echo "FAIL: cfd serve accepted --sub-windows 0"; exit 1
    fi
    grep -q 'sub-window' /tmp/cfd_q0_err.txt
    if grep -q 'panicked' /tmp/cfd_q0_err.txt; then
        echo "FAIL: cfd serve panicked on --sub-windows 0"; exit 1
    fi
    if [[ -e /tmp/cfd_q0.sock ]]; then
        echo "FAIL: cfd serve bound its socket before rejecting --sub-windows 0"; exit 1
    fi
    echo "   serve rejected with: $(head -n 1 /tmp/cfd_q0_err.txt)"
}

# One figure or table binary of the paper at smoke scale: it prints its
# `# check:` lines and exits 1 if a claim fails.
paper_check() {
    local status=0
    ./target/release/"$1" --smoke >/tmp/cfd_paper_"$1".txt || status=$?
    grep '^# check:' /tmp/cfd_paper_"$1".txt | sed 's/^/   /'
    return "$status"
}

pipeline_smoke() {
    # Quick scale writes its own file; the committed full-scale
    # BENCH_pr4.json is the archived cfd-bench-pipeline/1 record.
    ./target/release/throughput --pipeline --quick --out target/BENCH_pipeline_quick.json \
        >/tmp/cfd_pipeline.txt
    tail -n 4 /tmp/cfd_pipeline.txt | sed 's/^/   /'
    # JSON schema + hash speedup gate (the gate binds at full scale only)
    python3 tools/check_bench.py target/BENCH_pipeline_quick.json BENCH_pr4.json
}

tenants_smoke() {
    # Quick scale writes its own file; the committed full-scale
    # BENCH_pr9.json is regenerated only by a manual full run.
    ./target/release/throughput --tenants --quick --out target/BENCH_tenants_quick.json \
        >/tmp/cfd_tenants.txt
    tail -n 8 /tmp/cfd_tenants.txt | sed 's/^/   /'
    # JSON schema + bytes/tenant + isolation gates (throughput: full scale only)
    python3 tools/check_bench.py target/BENCH_tenants_quick.json BENCH_pr9.json
}

sweep_smoke() {
    ./target/release/cfd sweep --scenario scenarios/ci_smoke.toml --quick \
        --out target/BENCH_sweep_quick.json >/tmp/cfd_sweep.txt
    tail -n 6 /tmp/cfd_sweep.txt | sed 's/^/   /'
    # JSON schema + grid-coverage/fn<=fp gates
    python3 tools/check_bench.py target/BENCH_sweep_quick.json
}

# Each benchmark spec runs at quick scale, where the checks and FP
# models bind; its [[gates]] floors bind on the committed full-scale
# record BENCH_<name>.json, regenerated by a manual full run.
bench_sweep() {
    ./target/release/cfd sweep --scenario "scenarios/bench_$1.toml" --quick \
        --out "target/BENCH_$1_quick.json"
    python3 tools/check_bench.py "target/BENCH_$1_quick.json" "BENCH_$1.json"
}

sweep_rejects_missing_spec() {
    if ./target/release/cfd sweep --scenario /nonexistent.toml 2>/tmp/cfd_sweep_err.txt; then
        echo "FAIL: missing scenario file was not rejected"; exit 1
    fi
    grep -q -- '--scenario' /tmp/cfd_sweep_err.txt
    echo "   rejected with: $(head -n 1 /tmp/cfd_sweep_err.txt)"
}

# The three serve smokes replay /tmp/cfd_serve.cfdt, generated by the
# step before them.
serve_resume_smoke() {
    rm -f /tmp/cfd_serve.sock /tmp/cfd_serve.cfdg /tmp/cfd_serve_run.json /tmp/cfd_serve.json
    ./target/release/cfd run --trace /tmp/cfd_serve.cfdt --window 8192 --ads 64 \
        --report-json /tmp/cfd_serve_run.json >/dev/null
    ./target/release/cfd serve --listen unix:/tmp/cfd_serve.sock --window 8192 --ads 64 \
        --checkpoint /tmp/cfd_serve.cfdg --checkpoint-every 20000 \
        --report-json /tmp/cfd_serve.json >/dev/null 2>&1 &
    SERVE_PID=$!
    ./target/release/cfd replay-client --connect unix:/tmp/cfd_serve.sock \
        --trace /tmp/cfd_serve.cfdt --limit 100000 --retries 200 >/dev/null
    # Wait for at least one complete checkpoint (tmp+rename is atomic),
    # then SIGKILL the gateway mid-stream: no drain, no goodbye.
    while [[ ! -f /tmp/cfd_serve.cfdg ]]; do sleep 0.1; done
    kill -9 "$SERVE_PID"
    wait "$SERVE_PID" 2>/dev/null || true
    ./target/release/cfd serve --listen unix:/tmp/cfd_serve.sock --window 8192 --ads 64 \
        --checkpoint /tmp/cfd_serve.cfdg --resume \
        --report-json /tmp/cfd_serve.json >/dev/null 2>&1 &
    SERVE_PID=$!
    ./target/release/cfd replay-client --connect unix:/tmp/cfd_serve.sock \
        --trace /tmp/cfd_serve.cfdt --drain --retries 200 >/dev/null
    wait "$SERVE_PID"
    cmp /tmp/cfd_serve_run.json /tmp/cfd_serve.json
    echo "   kill -9 + --resume replay matches the in-process run byte for byte"
}

serve_resume_metrics_smoke() {
    rm -f /tmp/cfd_serve2.sock /tmp/cfd_serve2.cfdg /tmp/cfd_serve2_run.json /tmp/cfd_serve2.json
    ./target/release/cfd run --trace /tmp/cfd_serve.cfdt --window 8192 --ads 64 --shards 2 \
        --report-json /tmp/cfd_serve2_run.json >/dev/null
    ./target/release/cfd serve --listen unix:/tmp/cfd_serve2.sock --window 8192 --ads 64 \
        --shards 2 --checkpoint /tmp/cfd_serve2.cfdg >/dev/null 2>&1 &
    SERVE_PID=$!
    ./target/release/cfd replay-client --connect unix:/tmp/cfd_serve2.sock \
        --trace /tmp/cfd_serve.cfdt --limit 100000 --drain --retries 200 >/dev/null
    wait "$SERVE_PID"
    # Resume with the default --shards (4) and live metrics: telemetry
    # must follow the 2-shard detector the checkpoint holds.
    ./target/release/cfd serve --listen unix:/tmp/cfd_serve2.sock --window 8192 --ads 64 \
        --checkpoint /tmp/cfd_serve2.cfdg --resume --metrics=200 --metrics-json \
        --report-json /tmp/cfd_serve2.json >/dev/null 2>/tmp/cfd_serve2_err.txt &
    SERVE_PID=$!
    ./target/release/cfd replay-client --connect unix:/tmp/cfd_serve2.sock \
        --trace /tmp/cfd_serve.cfdt --drain --retries 200 >/dev/null
    wait "$SERVE_PID"
    if grep -q 'panicked' /tmp/cfd_serve2_err.txt; then
        echo "FAIL: cfd serve --resume --metrics panicked"; exit 1
    fi
    cmp /tmp/cfd_serve2_run.json /tmp/cfd_serve2.json
    echo "   2-shard checkpoint resumed under --metrics matches cfd run --shards 2"
}

serve_unwritable_checkpoint() {
    rm -f /tmp/cfd_serve_bad.sock
    ./target/release/cfd serve --listen unix:/tmp/cfd_serve_bad.sock --window 8192 --ads 64 \
        --checkpoint /nonexistent/dir/s.cfdg --checkpoint-every 1000 \
        >/dev/null 2>/tmp/cfd_serve_bad_err.txt &
    SERVE_PID=$!
    # The server stops reading once the checkpoint fails, so the client
    # may fail too; only the server's exit matters here.
    ./target/release/cfd replay-client --connect unix:/tmp/cfd_serve_bad.sock \
        --trace /tmp/cfd_serve.cfdt --limit 20000 --drain --retries 200 >/dev/null 2>&1 || true
    if wait "$SERVE_PID"; then
        echo "FAIL: cfd serve exited 0 with an unwritable checkpoint"; exit 1
    fi
    grep -q '^error: .*checkpoint /nonexistent/dir/s.cfdg' /tmp/cfd_serve_bad_err.txt
    if grep -q 'panicked' /tmp/cfd_serve_bad_err.txt; then
        echo "FAIL: cfd serve panicked on an unwritable checkpoint"; exit 1
    fi
    echo "   exited with: $(grep '^error:' /tmp/cfd_serve_bad_err.txt)"
}

step "cargo fmt --check" cargo fmt --all --check
step "cargo clippy -D warnings" cargo clippy --workspace --all-targets -- -D warnings
step "cargo doc --no-deps (warnings denied; repo crates, not dep shims)" doc_check

if full "$@"; then
    step "tier-1: cargo build --release" cargo build --release
    step "bench binaries the smokes below run (cargo build --release -p cfd-bench)" \
        cargo build --release -p cfd-bench
fi

step "tier-1: cargo test -q" cargo test -q
step "workspace tests (all crates but the root package, which tier-1 ran)" \
    cargo test -q --workspace --exclude click-fraud-detection
step "workspace tests again, SIMD kernels forced scalar (CFD_FORCE_SCALAR=1)" \
    env CFD_FORCE_SCALAR=1 cargo test -q --workspace
step "bit, detector and wire kernels in release (no overflow checks; wrapping and u128 shift paths; the folded frame CRC)" \
    cargo test -q --release -p cfd-bits -p cfd-core -p cfd-stream
step "telemetry tests" cargo test -q -p cfd-telemetry

if full "$@"; then
    step "telemetry smoke: cfd run --metrics-json parses as JSON lines" telemetry_smoke
    step "telemetry smoke: timed pipeline (cfd run --algo time-tbf)" telemetry_smoke_timed
    step "telemetry budget: cfd run --metrics within 5% of plain (median of 15 alternated pairs)" \
        telemetry_budget
    step "cfd rejects an option its subcommand does not take, by name" rejects_unknown_option
    step "cfd detect|run|serve reject time-gbf with zero sub-windows by name, not a panic" \
        rejects_zero_sub_windows
    for bin in fig1 fig2a fig2b fig_warmup table_ops table_fn table_adnet; do
        step "paper check: $bin --smoke" paper_check "$bin"
    done
    step "pipeline smoke: multi-lane vs scalar batch hash (quick scale) + BENCH_pr4.json gates" \
        pipeline_smoke
    step "tenants smoke: arena vs single detector, isolation (quick scale) + BENCH_pr9.json gates" \
        tenants_smoke
    step "scenario sweep smoke: ci_smoke.toml via cfd sweep (quick scale) + coverage/fn<=fp gates" \
        sweep_smoke
    for spec in scenarios/bench_*.toml; do
        name=$(basename "$spec" .toml)
        name=${name#bench_}
        step "bench sweep smoke: $spec (quick scale) + BENCH_$name.json gates" bench_sweep "$name"
    done
    step "cfd sweep rejects a missing spec with a named-option error" sweep_rejects_missing_spec
    rm -f /tmp/cfd_serve.cfdt
    step "serve smokes: a 200k-click botnet trace to replay" ./target/release/cfd generate \
        --kind botnet --count 200000 --seed 11 --out /tmp/cfd_serve.cfdt
    step "serve smoke: socket replay, kill -9 mid-stream, checkpoint resume" serve_resume_smoke
    step "serve smoke: --resume with --metrics keeps the checkpoint's shard count" \
        serve_resume_metrics_smoke
    step "cfd serve ends with a named error, not a panic, when its checkpoint cannot be written" \
        serve_unwritable_checkpoint
    # Builds the benchmark against this tree's crates and checks names,
    # units, determinism and seed sensitivity of every workload, so a
    # change to serve()/run_sharded_segment that breaks the benchmark
    # fails here.
    step "socket-to-bill benchmark self-test (perfbench, 1/32 scale)" \
        python3 perfbench/run.py --self-test
fi

if ((${#FAILED[@]} > 0)); then
    echo "CI FAILED: ${#FAILED[@]} step(s)"
    printf '  - %s\n' "${FAILED[@]}"
    exit 1
fi
echo "CI OK"
