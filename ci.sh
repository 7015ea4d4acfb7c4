#!/usr/bin/env bash
# Repository CI: formatting, lints, and the tier-1 gate (ROADMAP.md).
#
#   ./ci.sh          # everything
#   ./ci.sh quick    # skip the release build (lints + tests only)
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings denied; repo crates, not dep shims)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
    -p click-fraud-detection \
    $(for d in crates/*/; do echo "-p $(basename "$d" | sed 's/^/cfd-/')"; done)

if [[ "${1:-}" != "quick" ]]; then
    echo "==> tier-1: cargo build --release"
    cargo build --release
    echo "==> bench binaries the smokes below run (cargo build --release -p cfd-bench)"
    cargo build --release -p cfd-bench
fi

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> workspace tests (all crates)"
cargo test -q --workspace

echo "==> workspace tests again, SIMD kernels forced scalar (CFD_FORCE_SCALAR=1)"
CFD_FORCE_SCALAR=1 cargo test -q --workspace

echo "==> telemetry tests"
cargo test -q -p cfd-telemetry

if [[ "${1:-}" != "quick" ]]; then
    echo "==> telemetry smoke: cfd run --metrics-json parses as JSON lines"
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
    echo "==> telemetry smoke: timed pipeline (cfd run --algo time-tbf)"
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
    echo "==> cfd rejects an option its subcommand does not take, by name"
    if ./target/release/cfd run --transport ring 2>/tmp/cfd_opt_err.txt >/dev/null; then
        echo "FAIL: cfd run accepted --transport"; exit 1
    fi
    grep -q -- '--transport' /tmp/cfd_opt_err.txt
    echo "   rejected with: $(head -n 1 /tmp/cfd_opt_err.txt)"
    echo "==> cfd rejects time-gbf with zero sub-windows by name, not a panic"
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
fi

if [[ "${1:-}" != "quick" ]]; then
    echo "==> throughput smoke: blocked vs scattered (quick scale)"
    # Quick scale writes its own file; the committed full-scale
    # BENCH_pr3.json is regenerated only by a manual full run.
    ./target/release/throughput --quick --out target/BENCH_quick.json \
        >/tmp/cfd_throughput.txt
    tail -n 4 /tmp/cfd_throughput.txt | sed 's/^/   /'
    echo "==> BENCH json schema + blocked FP within model bound (>10% fails)"
    python3 tools/check_bench.py target/BENCH_quick.json BENCH_pr3.json
fi

if [[ "${1:-}" != "quick" ]]; then
    echo "==> pipeline smoke: multi-lane vs scalar batch hash (quick scale)"
    # Quick scale writes its own file; the committed full-scale
    # BENCH_pr4.json is the archived cfd-bench-pipeline/1 record.
    ./target/release/throughput --pipeline --quick --out target/BENCH_pipeline_quick.json \
        >/tmp/cfd_pipeline.txt
    tail -n 4 /tmp/cfd_pipeline.txt | sed 's/^/   /'
    echo "==> BENCH pipeline json schema + hash speedup gate (full scale only)"
    python3 tools/check_bench.py target/BENCH_pipeline_quick.json BENCH_pr4.json
fi

if [[ "${1:-}" != "quick" ]]; then
    echo "==> timed smoke: TimeTbf/TimeGbf sequential vs batch (quick scale)"
    # Quick scale writes its own file; the committed full-scale
    # BENCH_pr5.json is regenerated only by a manual full run.
    ./target/release/throughput --timed --quick --out target/BENCH_timed_quick.json \
        >/tmp/cfd_timed.txt
    tail -n 4 /tmp/cfd_timed.txt | sed 's/^/   /'
    echo "==> BENCH timed json schema + batch/blocked speedup gates (full scale only)"
    python3 tools/check_bench.py target/BENCH_timed_quick.json BENCH_pr5.json
fi

if [[ "${1:-}" != "quick" ]]; then
    echo "==> shootout smoke: tbf/gbf/apbf/swbf at equal memory (quick scale)"
    # Quick scale writes its own file; the committed full-scale
    # BENCH_pr6.json is regenerated only by a manual full run.
    ./target/release/throughput --shootout --quick --out target/BENCH_shootout_quick.json \
        >/tmp/cfd_shootout.txt
    tail -n 8 /tmp/cfd_shootout.txt | sed 's/^/   /'
    echo "==> BENCH shootout json schema + Pareto/FP/speedup gates (full scale only)"
    python3 tools/check_bench.py target/BENCH_shootout_quick.json BENCH_pr6.json
fi

if [[ "${1:-}" != "quick" ]]; then
    echo "==> simd smoke: wide vs forced-scalar dispatch, verdicts must agree (quick scale)"
    # Quick scale writes its own file; the committed full-scale
    # BENCH_pr8.json is regenerated only by a manual full run.
    ./target/release/throughput --simd --quick --out target/BENCH_simd_quick.json \
        >/tmp/cfd_simd.txt
    tail -n 6 /tmp/cfd_simd.txt | sed 's/^/   /'
    echo "==> BENCH simd json schema + wide-speedup gates (full scale only)"
    python3 tools/check_bench.py target/BENCH_simd_quick.json BENCH_pr8.json
fi

if [[ "${1:-}" != "quick" ]]; then
    echo "==> tenants smoke: multi-tenant arena vs single detector, isolation asserts (quick scale)"
    # Quick scale writes its own file; the committed full-scale
    # BENCH_pr9.json is regenerated only by a manual full run.
    ./target/release/throughput --tenants --quick --out target/BENCH_tenants_quick.json \
        >/tmp/cfd_tenants.txt
    tail -n 8 /tmp/cfd_tenants.txt | sed 's/^/   /'
    echo "==> BENCH tenants json schema + bytes/tenant + isolation gates (throughput full scale only)"
    python3 tools/check_bench.py target/BENCH_tenants_quick.json BENCH_pr9.json
fi

if [[ "${1:-}" != "quick" ]]; then
    echo "==> scenario sweep smoke: committed spec end-to-end via cfd sweep (quick scale)"
    ./target/release/cfd sweep --scenario scenarios/ci_smoke.toml --quick \
        --out target/BENCH_sweep_quick.json >/tmp/cfd_sweep.txt
    tail -n 6 /tmp/cfd_sweep.txt | sed 's/^/   /'
    echo "==> BENCH sweep json schema + grid-coverage/fn<=fp gates"
    python3 tools/check_bench.py target/BENCH_sweep_quick.json
    echo "==> scenario sweep smoke: same spec through throughput --scenario"
    ./target/release/throughput --scenario scenarios/ci_smoke.toml --quick \
        --out target/BENCH_sweep_tp_quick.json >/dev/null
    python3 tools/check_bench.py target/BENCH_sweep_tp_quick.json
    echo "==> throughput --scenario rejects a missing spec with a named-option error"
    if ./target/release/throughput --scenario /nonexistent.toml 2>/tmp/cfd_sweep_err.txt; then
        echo "FAIL: missing scenario file was not rejected"; exit 1
    fi
    grep -q -- '--scenario' /tmp/cfd_sweep_err.txt
    echo "   rejected with: $(head -n 1 /tmp/cfd_sweep_err.txt)"
fi

if [[ "${1:-}" != "quick" ]]; then
    echo "==> serve smoke: socket replay, kill -9 mid-stream, checkpoint resume"
    rm -f /tmp/cfd_serve.sock /tmp/cfd_serve.cfdg /tmp/cfd_serve_run.json /tmp/cfd_serve.json
    ./target/release/cfd generate --kind botnet --count 200000 --seed 11 \
        --out /tmp/cfd_serve.cfdt >/dev/null
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
    echo "==> cfd serve ends with a named error, not a panic, when its checkpoint cannot be written"
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
fi

if [[ "${1:-}" != "quick" ]]; then
    echo "==> socket-to-bill benchmark self-test (perfbench, 1/32 scale)"
    # Builds the benchmark against this tree's crates and checks names,
    # units, determinism and seed sensitivity of every workload, so a
    # change to serve()/run_sharded_segment that breaks the benchmark
    # fails here.
    python3 perfbench/run.py --self-test
fi

echo "CI OK"
