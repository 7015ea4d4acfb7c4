#!/usr/bin/env python3
"""Socket-to-bill benchmark: build the `perfbench` binary and run it.

Run from the repository root:

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The last stdout line of a run is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--self-test` runs every
workload at a small scale and checks the benchmark itself (see
README.md). The build goes to `$CARGO_TARGET_DIR` (default
`.bench_build`), scratch files to `.bench_run`; both are relative to
the repository root.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
WORK_DIR = ".bench_run"
# Every workload the binary runs. BENCHMARK.json lists the ones steady
# enough on the reference host to gate changes; see README.md.
WORKLOADS = ["serve-mixed", "serve-paced", "audit-bigwindow"]

# Metrics that depend only on (workload, seed): bit-equal across runs.
DETERMINISTIC = {
    0: ["fp_rate", "bits_per_element"],
    1: [
        "fn_rate",
        "checkpoint.bytes",
        "wire.bytes_per_click",
        "shard.load_skew",
        "detector.probe_reads_per_click",
        "detector.insert_writes_per_click",
        "detector.clean_ops_per_click",
        "detector.model_ops_per_click",
    ],
}


def build():
    """Builds the release binary; returns its path or exits non-zero."""
    if not (ROOT / "crates").is_dir():
        sys.exit("error: the workspace crates are missing next to perfbench/; "
                 "the benchmark builds them from source")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S,
                              stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"error: build failed: {e}")
    if done.returncode != 0:
        sys.exit(f"error: build failed with exit code {done.returncode}")
    return ROOT / env["CARGO_TARGET_DIR"] / "release" / "perfbench"


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(binary, argv):
    """Runs the binary; returns (exit code, stdout lines)."""
    cmd = [str(binary), *argv, "--commit", commit(), "--work-dir", WORK_DIR]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"error: run exceeded {RUN_TIMEOUT_S} s\n")
        return 1, []
    sys.stderr.write(done.stderr)
    return done.returncode, done.stdout.splitlines()


def self_test(binary):
    """Small-scale checks of the benchmark itself."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def once(workload, seed, trace):
        code, lines = run(binary, ["--workload", workload, "--seed", str(seed),
                                   "--seconds", "1", "--trace", str(trace),
                                   "--shrink", "5"])
        if code != 0 or not lines:
            failures.append(f"{workload} seed {seed} trace {trace}: exit {code}")
            return None, None
        result = json.loads(lines[-1])
        digest = next((l.split(" = ")[1] for l in lines
                       if l.startswith("record stream_digest")), None)
        tag = f"{workload} seed {seed} trace {trace}"
        if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
            failures.append(f"{tag}: correct={result['correct']} failed={result['failed']}")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected[trace]:
            missing = sorted(set(expected[trace]) - set(got))
            extra = sorted(set(got) - set(expected[trace]))
            wrong = sorted(k for k in got if k in expected[trace] and got[k] != expected[trace][k])
            failures.append(f"{tag}: missing {missing} extra {extra} wrong units {wrong}")
        return result["metrics"], digest

    for w in WORKLOADS:
        for trace in (0, 1):
            a, digest_a = once(w, 1, trace)
            b, _ = once(w, 1, trace)
            if a is None or b is None:
                continue
            for name in DETERMINISTIC[trace]:
                if a[name]["value"] != b[name]["value"]:
                    failures.append(f"{w} trace {trace}: {name} differs across two runs "
                                    f"at one seed ({a[name]['value']} vs {b[name]['value']})")
            if trace == 0:
                _, digest_c = once(w, 2, 0)
                if digest_a is None or digest_a == digest_c:
                    failures.append(f"{w}: seeds 1 and 2 gave the same stream ({digest_a})")
        print(f"self-test {w}: done", flush=True)
    for f in failures:
        print(f"FAIL {f}")
    print("self-test:", "PASS" if not failures else f"{len(failures)} failure(s)")
    return 0 if not failures else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed")
    p.add_argument("--seconds")
    p.add_argument("--trace", choices=["0", "1"])
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    binary = build()
    if a.self_test:
        return self_test(binary)
    if None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    code, lines = run(binary, ["--workload", a.workload, "--seed", a.seed,
                               "--seconds", a.seconds, "--trace", a.trace])
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
