#!/usr/bin/env python3
"""Validate committed BENCH_*.json artifacts against per-schema manifests.

Usage:  python3 tools/check_bench.py FILE [FILE ...]

Each file's ``schema`` field selects a manifest entry describing the
required top-level keys, the required per-config keys, and the gate
checks (correctness gates bind at every scale; speedup gates only bind
on ``"scale": "full"`` runs — quick CI boxes are too noisy to gate).
Exits non-zero with a message naming the file and the failed gate.
"""

import json
import math
import os
import sys


def fail(name, msg):
    print(f"FAIL {name}: {msg}", file=sys.stderr)
    sys.exit(1)


def require_keys(name, obj, keys, where):
    missing = set(keys) - obj.keys()
    if missing:
        fail(name, f"{where} missing keys {sorted(missing)}")


def require_rounds(name, cfg, label, rows, rounds):
    if len(rows) != rounds:
        fail(name, f"{label}: {len(rows)} round samples, expected {rounds}")


def three_sigma(model, clicks):
    return 3 * math.sqrt(max(model * (1 - model), 0.0) / clicks)


# ---------------------------------------------------------------------
# Per-schema gate functions. Each receives the parsed document and the
# file name, and either returns a one-line summary or calls fail().
# ---------------------------------------------------------------------


def gates_throughput(d, name):
    layouts = set()
    for c in d["configs"]:
        require_keys(name, c, MANIFEST["cfd-bench-throughput/1"]["config"], c.get("name", "?"))
        require_rounds(name, c, c["name"], c["clicks_per_sec_rounds"], d["rounds"])
        layouts.add(c["layout"])
        if c["layout"] == "blocked":
            model, fp = c["fp_model"], c["fp_measured"]
            if fp > model * 1.1 + three_sigma(model, d["clicks"]):
                fail(name, f'{c["name"]}: measured FP {fp} exceeds model {model} by >10%')
    if layouts != {"scattered", "blocked"}:
        fail(name, f"layouts {sorted(layouts)}, expected scattered+blocked")
    if d["scale"] == "full":
        if not all(d["checks"].values()):
            fail(name, f'checks {d["checks"]}')
        if min(d["speedups"]["tbf"], d["speedups"]["gbf"]) < 1.3:
            fail(name, f'speedups {d["speedups"]}')
    return f'{d["scale"]} scale, {len(d["configs"])} configs, blocked FP within model'


def gates_pipeline(d, name):
    # Hash half only. `/1` documents (BENCH_pr4.json) also carry a
    # ring-vs-channel pipeline half; the channel data plane is gone, so
    # that half is no longer gated.
    h = d["hash"]
    if h["lanes"] not in (4, 8):
        fail(name, f'unexpected lane count {h["lanes"]}')
    for label, rows in (
        ("hash.scalar_rounds", h["scalar_rounds"]),
        ("hash.lanes_rounds", h["lanes_rounds"]),
    ):
        require_rounds(name, d, label, rows, d["rounds"])
    if not d["checks"]["checksums_agree"]:
        fail(name, "lanes/scalar hash checksums diverged")
    if d["scale"] == "full":
        if not (d["checks"]["hash_speedup_ok"] and h["speedup"] >= 1.3):
            fail(name, f'hash speedup {h["speedup"]}')
    return f'{d["scale"]} scale, hash x{h["speedup"]:.2f}'


def gates_timed(d, name):
    rows = {}
    for c in d["configs"]:
        require_keys(name, c, MANIFEST["cfd-bench-timed/1"]["config"], c.get("name", "?"))
        require_rounds(name, c, c["name"], c["clicks_per_sec_rounds"], d["rounds"])
        rows[(c["family"], c["layout"], c["mode"])] = c
    expected = {
        (f, l, m)
        for f in ("time-tbf", "time-gbf")
        for l in ("scattered", "blocked")
        for m in ("sequential", "batch")
    }
    if set(rows) != expected:
        fail(name, f"rows {sorted(set(rows) - expected) or sorted(expected - set(rows))}")
    for fam in ("time-tbf", "time-gbf"):
        for lay in ("scattered", "blocked"):
            seq, bat = rows[(fam, lay, "sequential")], rows[(fam, lay, "batch")]
            if seq["duplicates"] != bat["duplicates"]:
                fail(name, f"{fam} ({lay}) batch and sequential verdicts disagree")
    if not d["checks"]["paths_agree"]:
        fail(name, "batch and sequential verdicts diverged")
    if not d["checks"]["no_occupancy_scans"]:
        fail(name, "O(m) scan rode the timed hot loop")
    if d["scale"] == "full":
        for fam, s in d["speedups"].items():
            if s["batch"] < 1.3 or s["blocked"] < 1.3:
                fail(name, f"{fam} speedups {s}")
        if not (d["checks"]["batch_speedup_ok"] and d["checks"]["blocked_speedup_ok"]):
            fail(name, f'checks {d["checks"]}')
    return f'{d["scale"]} scale, ' + ", ".join(
        f'{f} batch x{s["batch"]:.2f} blocked x{s["blocked"]:.2f}'
        for f, s in d["speedups"].items()
    )


# Per-cell FP-gate slack in the shootout, mirroring the bench: blocked
# TBF/GBF models are tight, scattered ones are first-order (gate 2.5x),
# APBF/SWBF models are documented upper bounds (gate 1.5x).
def shootout_fp_slack(algo, layout):
    if algo in ("tbf", "gbf"):
        return 1.1 if layout == "blocked" else 2.5
    return 1.5


# Per-backend wide-dispatch speedup floors for full-scale AVX2 runs.
# GBF's hot path is word-granular lane cleaning, which the wide
# dispatch rewrites as contiguous AND-store sweeps — a whole-pipeline
# win measured at 1.22–1.35x across runs (median ~1.26x; the isolated
# sweep kernel is ~1.9x). The floor sits at 1.2x, below the measured
# band rather than at its midpoint, so reruns on a noisy one-core host
# reproduce PASS instead of coin-flipping around the point estimate.
# The probe-dominated backends are early-exit branch-bound
# (docs/PERFORMANCE.md "SIMD probe path"), so their bit-identical wide
# kernels gate only against regression, with the floor sized for
# one-core VM noise (APBF runs identical instructions on both rows and
# still wobbles ~10% between runs).
SIMD_SPEEDUP_FLOORS = {"tbf": 0.85, "gbf": 1.2, "apbf": 0.85, "swbf": 0.85}


def gates_simd(d, name):
    rows = {}
    for c in d["configs"]:
        require_keys(name, c, MANIFEST["cfd-bench-simd/1"]["config"], c.get("algo", "?"))
        label = f'{c["algo"]}-{c["dispatch"]}'
        require_rounds(name, c, label, c["clicks_per_sec_rounds"], d["rounds"])
        rows[(c["algo"], c["dispatch"])] = c
    expected = {(a, dsp) for a in ("tbf", "gbf", "apbf", "swbf") for dsp in ("scalar", "wide")}
    if set(rows) != expected:
        fail(name, f"rows {sorted(set(rows) ^ expected)}")
    for algo in ("tbf", "gbf", "apbf", "swbf"):
        s, w = rows[(algo, "scalar")], rows[(algo, "wide")]
        if s["false_positives"] != w["false_positives"]:
            fail(name, f"{algo}: wide and scalar verdicts disagree")
    for key in ("verdicts_agree", "no_occupancy_scans"):
        if not d["checks"][key]:
            fail(name, f"check {key} failed")
    # Speedup gates bind only on full-scale AVX2 runs: with one lane the
    # wide rows dispatch the same scalar kernels and the ratio is noise.
    if d["scale"] == "full" and d["lanes"] > 1:
        if not d["checks"]["simd_speedup_ok"]:
            fail(name, f'checks {d["checks"]}')
        for algo, floor in SIMD_SPEEDUP_FLOORS.items():
            s = d["speedups"][algo]["wide"]
            if s < floor:
                fail(name, f"{algo} wide speedup {s:.2f} < {floor}x")
    return f'{d["scale"]} scale, lanes {d["lanes"]}, ' + ", ".join(
        f'{a} wide x{d["speedups"][a]["wide"]:.2f}' for a in ("tbf", "gbf", "apbf", "swbf")
    )


def gates_shootout(d, name):
    rows = {}
    for c in d["configs"]:
        require_keys(name, c, MANIFEST["cfd-bench-shootout/1"]["config"], c.get("algo", "?"))
        label = f'{c["algo"]}-{c["layout"]}-{c["mode"]}'
        require_rounds(name, c, label, c["clicks_per_sec_rounds"], d["rounds"])
        rows[(c["algo"], c["layout"], c["mode"])] = c
    expected = {
        (a, l, m)
        for a in ("tbf", "gbf", "apbf", "swbf")
        for l in ("scattered", "blocked")
        for m in ("sequential", "batch")
    }
    if set(rows) != expected:
        fail(name, f"rows {sorted(set(rows) ^ expected)}")
    budget = d["memory_bits_budget"]
    for (algo, layout, mode), c in sorted(rows.items()):
        label = f"{algo}-{layout}-{mode}"
        used = c["memory_bits"] / budget
        if not 0.88 <= used <= 1.12:
            fail(name, f"{label}: spent {used:.3f} of the {budget}-bit budget")
        bound = c["fp_model"] * shootout_fp_slack(algo, layout)
        if c["fp_measured"] > bound + three_sigma(c["fp_model"], d["clicks"]):
            fail(name, f'{label}: measured FP {c["fp_measured"]} exceeds model {c["fp_model"]}')
        if mode == "batch":
            seq = rows[(algo, layout, "sequential")]
            if c["fp_measured"] != seq["fp_measured"]:
                fail(name, f"{algo} ({layout}) batch and sequential verdicts disagree")
    for key in ("fp_within_model", "memory_within_budget", "paths_agree", "no_occupancy_scans"):
        if not d["checks"][key]:
            fail(name, f"check {key} failed")
    if d["scale"] == "full":
        if not d["checks"]["batch_speedup_ok"]:
            fail(name, f'checks {d["checks"]}')
        for algo in ("apbf", "swbf"):
            s = d["speedups"][algo]["batch"]
            if s < 1.3:
                fail(name, f"{algo} batch speedup {s:.2f} < 1.3x")
    return f'{d["scale"]} scale, ' + ", ".join(
        f'{a} batch x{d["speedups"][a]["batch"]:.2f}' for a in ("tbf", "gbf", "apbf", "swbf")
    )


def gates_tenants(d, name):
    rows = {}
    for c in d["configs"]:
        require_keys(name, c, MANIFEST["cfd-bench-tenants/1"]["config"], c.get("name", "?"))
        require_rounds(name, c, c["name"], c["clicks_per_sec_rounds"], d["rounds"])
        rows[c["name"]] = c
    expected = {"arena-seq", "arena-batch", "arena-sharded", "single-tbf"}
    if set(rows) != expected:
        fail(name, f"rows {sorted(set(rows) ^ expected)}")
    require_keys(
        name, d["budget"], {"entries", "hash_count", "predicted_fp", "bytes_per_tenant"}, "budget"
    )
    # Verdict isolation: every arena row must flag at least the injected
    # duplicates (zero false negatives — a miss means a tenant's window
    # lost state) and at most the per-tenant FP bound beyond them (an
    # excess means cross-tenant contamination).
    injected = d["duplicates_injected"]
    fp_bound = d["budget"]["predicted_fp"]
    for row in ("arena-seq", "arena-batch", "arena-sharded"):
        dups = rows[row]["duplicates"]
        if dups < injected:
            fail(name, f"{row}: missed injected duplicates ({dups} < {injected})")
        excess = (dups - injected) / d["clicks"]
        if excess > fp_bound + three_sigma(fp_bound, d["clicks"]):
            fail(name, f"{row}: excess duplicate rate {excess:.3e} exceeds FP bound {fp_bound}")
    # Memory gate (binds at every scale — the slab layout is
    # deterministic): amortized slab bytes per live tenant within 1.25x
    # of the cfd-analysis per-tenant budget.
    ratio = d["bytes_per_tenant_measured"] / d["budget"]["bytes_per_tenant"]
    if ratio > 1.25:
        fail(
            name,
            f'bytes/live-tenant {d["bytes_per_tenant_measured"]:.1f} is {ratio:.3f}x '
            f'the {d["budget"]["bytes_per_tenant"]}-byte budget (limit 1.25x)',
        )
    for key in ("isolation_ok", "bytes_per_tenant_ok", "no_occupancy_scans"):
        if not d["checks"][key]:
            fail(name, f"check {key} failed")
    # Throughput gate (full scale only): the arena's flat-batch path
    # must hold >= 0.7x of the one-big-TBF baseline at equal memory.
    if d["scale"] == "full":
        if d["baseline_ratio"] < 0.7 or not d["checks"]["throughput_ok"]:
            fail(name, f'baseline ratio {d["baseline_ratio"]:.2f} < 0.7x')
    return (
        f'{d["scale"]} scale, {d["live_tenants"]} live tenants, '
        f'arena x{d["baseline_ratio"]:.2f} of baseline, '
        f'{d["bytes_per_tenant_measured"]:.0f} B/tenant ({ratio:.2f}x budget)'
    )


def gates_sweep(d, name):
    grid = d["grid"]
    axes = ("algo", "cells_per_element", "k", "sub_windows", "layout", "shards", "batch")
    want = 1
    for axis in axes:
        if not grid[axis]:
            fail(name, f"grid.{axis} is empty")
        want *= len(grid[axis])
    if len(d["configs"]) != want:
        fail(name, f'{len(d["configs"])} configs, grid declares {want}')
    if d["group_by"] not in axes:
        fail(name, f'group_by {d["group_by"]!r} is not a grid axis')
    for c in d["configs"]:
        require_keys(name, c, MANIFEST["cfd-bench-sweep/1"]["config"], c.get("algo", "?"))
        label = f'{c["algo"]}-{c["layout"]}-s{c["shards"]}-b{c["batch"]}'
        require_rounds(name, c, label, c["clicks_per_sec_rounds"], d["rounds"])
        if c["clicks_per_sec_median"] <= 0 or c["memory_bits"] <= 0:
            fail(name, f"{label}: non-positive throughput or memory")
        if not 0 <= c["fp_rate"] <= 1:
            fail(name, f'{label}: fp_rate {c["fp_rate"]} outside [0, 1]')
        if c["detected"] != c["duplicates"] - c["false_negatives"] + c["false_positives"]:
            fail(name, f"{label}: detected != duplicates - fn + fp")
        # A false negative needs a prior false positive on the same id
        # to suppress the stamp (FP propagation), so unsharded windows
        # are bounded by fn <= fp; sharded ones can also miss via
        # per-shard slide-out and are not gated.
        if c["shards"] == 1 and c["false_negatives"] > c["false_positives"]:
            fail(name, f'{label}: {c["false_negatives"]} misses > {c["false_positives"]} FPs')
        if c["fp_model"] is not None:
            bound = c["fp_model"] * 2.5 + three_sigma(c["fp_model"], d["clicks"])
            if c["fp_rate"] > bound:
                fail(name, f'{label}: measured FP {c["fp_rate"]} exceeds model {c["fp_model"]}')
    want_groups = {str(c[d["group_by"]]) for c in d["configs"]}
    got_groups = {g["value"] for g in d["groups"]}
    if got_groups != want_groups:
        fail(name, f"group values {sorted(got_groups)} != axis values {sorted(want_groups)}")
    if sum(g["configs"] for g in d["groups"]) != len(d["configs"]):
        fail(name, "group config counts do not partition the grid")
    for g in d["groups"]:
        require_keys(name, g, MANIFEST["cfd-bench-sweep/1"]["group"], f'group {g["value"]}')
        if g["min_fp_rate"] > g["max_fp_rate"]:
            fail(name, f'group {g["value"]}: min_fp_rate > max_fp_rate')
    return (
        f'{d["scale"]} scale, {len(d["configs"])} configs over '
        f'{len(d["groups"])} {d["group_by"]} groups, fn bounded by fp'
    )


# ---------------------------------------------------------------------
# Schema manifest: required keys + gate function per artifact family.
# ---------------------------------------------------------------------

MANIFEST = {
    "cfd-bench-throughput/1": {
        "top": {"scale", "clicks", "rounds", "configs", "speedups", "checks"},
        "config": {
            "name",
            "family",
            "layout",
            "clicks_per_sec_median",
            "clicks_per_sec_rounds",
            "fp_measured",
            "fp_model",
        },
        "gates": gates_throughput,
    },
    "cfd-bench-pipeline/2": {
        "top": {"scale", "clicks", "rounds", "hash", "checks"},
        "config": set(),
        "gates": gates_pipeline,
    },
    "cfd-bench-timed/1": {
        "top": {"scale", "clicks", "rounds", "batch", "configs", "speedups", "checks"},
        "config": {
            "name",
            "family",
            "layout",
            "mode",
            "clicks_per_sec_median",
            "clicks_per_sec_rounds",
            "duplicates",
        },
        "gates": gates_timed,
    },
    "cfd-bench-shootout/1": {
        "top": {
            "scale",
            "clicks",
            "rounds",
            "window",
            "memory_bits_budget",
            "batch",
            "configs",
            "speedups",
            "pareto",
            "checks",
        },
        "config": {
            "algo",
            "layout",
            "mode",
            "clicks_per_sec_median",
            "clicks_per_sec_rounds",
            "fp_measured",
            "fp_model",
            "memory_bits",
        },
        "gates": gates_shootout,
    },
    "cfd-bench-simd/1": {
        "top": {
            "scale",
            "clicks",
            "rounds",
            "window",
            "memory_bits_budget",
            "batch",
            "lanes",
            "configs",
            "speedups",
            "checks",
        },
        "config": {
            "algo",
            "dispatch",
            "clicks_per_sec_median",
            "clicks_per_sec_rounds",
            "false_positives",
        },
        "gates": gates_simd,
    },
    "cfd-bench-tenants/1": {
        "top": {
            "scale",
            "clicks",
            "rounds",
            "batch",
            "tenant_universe",
            "live_tenants",
            "tenant_window",
            "duplicates_injected",
            "memory_bits_per_side",
            "budget",
            "configs",
            "bytes_per_tenant_measured",
            "baseline_ratio",
            "batch_speedup",
            "checks",
        },
        "config": {
            "name",
            "clicks_per_sec_median",
            "clicks_per_sec_rounds",
            "duplicates",
        },
        "gates": gates_tenants,
    },
    "cfd-bench-sweep/1": {
        "top": {
            "scale",
            "clicks",
            "rounds",
            "injected_duplicates",
            "scenario",
            "group_by",
            "grid",
            "configs",
            "groups",
        },
        "config": {
            "algo",
            "resolved_algo",
            "cells_per_element",
            "k",
            "sub_windows",
            "layout",
            "shards",
            "batch",
            "distinct",
            "duplicates",
            "detected",
            "false_positives",
            "false_negatives",
            "fp_rate",
            "fp_model",
            "auto_predicted_fp",
            "auto_meets_target",
            "memory_bits",
            "clicks_per_sec_median",
            "clicks_per_sec_rounds",
        },
        "group": {
            "value",
            "configs",
            "best_clicks_per_sec",
            "best_config",
            "min_fp_rate",
            "max_fp_rate",
            "min_memory_bits",
            "fn_within_fp_bound",
        },
        "gates": gates_sweep,
    },
}

# The archived `/1` pipeline record validates with the same hash checks.
MANIFEST["cfd-bench-pipeline/1"] = MANIFEST["cfd-bench-pipeline/2"]


def check(path):
    with open(path) as f:
        d = json.load(f)
    schema = d.get("schema")
    entry = MANIFEST.get(schema)
    if entry is None:
        fail(path, f"unknown schema {schema!r} (known: {sorted(MANIFEST)})")
    require_keys(path, d, entry["top"], "document")
    summary = entry["gates"](d, path)
    print(f"   {path}: {summary}")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    missing = [path for path in argv[1:] if not os.path.exists(path)]
    if missing:
        print(
            "FAIL: missing benchmark artifacts: "
            + ", ".join(missing)
            + " — run the matching `cargo run --release -p cfd-bench --bin throughput` "
            "scenario(s) to regenerate them",
            file=sys.stderr,
        )
        return 1
    for path in argv[1:]:
        check(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
