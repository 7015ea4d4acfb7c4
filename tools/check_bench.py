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


# Per-row FP slack over the model, plus three-sigma sampling slack. The
# blocked TBF/GBF models embed the block-load mixture (within 10%);
# APBF/SWBF models are upper bounds (1.5x, as in their unit tests); the
# rest are first-order classical-Bloom forms that undershoot the
# double-hash and jumping-window machinery by up to ~2x. A time backend
# shares its count twin's model.
def fp_slack(algo, layout):
    base = algo.removeprefix("time-")
    if base in ("tbf", "gbf") and layout == "blocked":
        return 1.1
    if base in ("apbf", "swbf"):
        return 1.5
    return 2.5


def gates_sweep(d, name):
    grid = d["grid"]
    # Every grid axis but the unused one of cells_per_element and
    # bits_per_element lists at least one value.
    axes = [a for a, values in grid.items() if a != "target_fp" and values]
    if len(axes) != len(grid) - 2:
        fail(name, "grid must set every axis and exactly one memory budget")
    want = math.prod(len(grid[a]) for a in axes)
    if len(d["configs"]) != want:
        fail(name, f'{len(d["configs"])} configs, grid declares {want}')
    if d["group_by"] not in axes:
        fail(name, f'group_by {d["group_by"]!r} is not a grid axis')

    def label(c):
        return "-".join(str(c[a]) for a in axes)

    for c in d["configs"]:
        require_keys(name, c, MANIFEST["cfd-bench-sweep/1"]["config"], c.get("algo", "?"))
        require_rounds(name, c, label(c), c["clicks_per_sec_rounds"], d["rounds"])
        if c["clicks_per_sec_median"] <= 0 or c["memory_bits"] <= 0:
            fail(name, f"{label(c)}: non-positive throughput or memory")
        if not 0 <= c["fp_rate"] <= 1:
            fail(name, f'{label(c)}: fp_rate {c["fp_rate"]} outside [0, 1]')
        if c["detected"] != c["duplicates"] - c["false_negatives"] + c["false_positives"]:
            fail(name, f"{label(c)}: detected != duplicates - fn + fp")
        # A false negative needs a prior false positive on the same id
        # to suppress the stamp (FP propagation), so unsharded windows
        # are bounded by fn <= fp; sharded ones can also miss via
        # per-shard slide-out and are not gated.
        if c["shards"] == 1 and c["false_negatives"] > c["false_positives"]:
            fail(name, f'{label(c)}: {c["false_negatives"]} misses > {c["false_positives"]} FPs')
        if c["fp_model"] is not None:
            model = c["fp_model"]
            bound = model * fp_slack(c["resolved_algo"], c["layout"]) + three_sigma(model, d["clicks"])
            if c["fp_rate"] > bound:
                fail(name, f'{label(c)}: measured FP {c["fp_rate"]} exceeds model {model}')
        if c["occupancy_scans"] != 0:
            fail(name, f'{label(c)}: {c["occupancy_scans"]} occupancy scans in the hot loop')
        # Shards split the window, so every row's budget is n * b bits.
        if c["bits_per_element"] is not None:
            budget = d["scenario"]["window_n"] * c["bits_per_element"]
            if not 0.88 <= c["memory_bits"] / budget <= 1.12:
                fail(name, f'{label(c)}: spent {c["memory_bits"]} bits of a {budget}-bit budget')

    # Batch size and kernel dispatch must never change a verdict.
    families = {}
    for c in d["configs"]:
        key = tuple(c[a] for a in axes if a not in ("batch", "dispatch"))
        counts = (c["false_positives"], c["false_negatives"], c["detected"])
        if families.setdefault(key, counts) != counts:
            fail(name, f"{label(c)}: verdicts differ from a batch/dispatch sibling")

    # Ratio gates: for each algo, the median throughput at axis = num
    # over the one at axis = den, every other axis at its first grid
    # value. Floors bind at full scale only, and a dispatch ratio only
    # where the wide kernels have more than one lane.
    def rate(algo, axis, value):
        for c in d["configs"]:
            if c["algo"] == algo and str(c[axis]) == value and all(
                c[a] == grid[a][0] for a in axes if a not in ("algo", axis)
            ):
                return c["clicks_per_sec_median"]
        fail(name, f"gate {axis} = {value}: no {algo} row at the reference point")

    gate_summary = []
    for g in d["gates"]:
        binds = d["scale"] == "full" and (g["axis"] != "dispatch" or d["lanes"] > 1)
        for algo in g["algos"]:
            ratio = rate(algo, g["axis"], g["num"]) / rate(algo, g["axis"], g["den"])
            if binds and ratio < g["floor"]:
                fail(name, f'{algo} {g["num"]}/{g["den"]} = {ratio:.2f} < {g["floor"]}x')
            gate_summary.append(f'{algo} {g["num"]}/{g["den"]} x{ratio:.2f}')

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
    summary = (
        f'{d["scale"]} scale, {len(d["configs"])} configs over '
        f'{len(d["groups"])} {d["group_by"]} groups, fn bounded by fp'
    )
    if gate_summary:
        summary += f', lanes {d["lanes"]}: ' + ", ".join(gate_summary)
    return summary


# ---------------------------------------------------------------------
# Schema manifest: required keys + gate function per artifact family.
# ---------------------------------------------------------------------

MANIFEST = {
    "cfd-bench-pipeline/2": {
        "top": {"scale", "clicks", "rounds", "hash", "checks"},
        "config": set(),
        "gates": gates_pipeline,
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
            "lanes",
            "scenario",
            "group_by",
            "grid",
            "configs",
            "groups",
            "gates",
        },
        "config": {
            "algo",
            "resolved_algo",
            "cells_per_element",
            "bits_per_element",
            "k",
            "sub_windows",
            "layout",
            "shards",
            "batch",
            "dispatch",
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
            "occupancy_scans",
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
            + " — regenerate a sweep record with `cfd sweep --scenario scenarios/<spec>.toml "
            "--out <record>`, a pipeline or tenants record with `throughput --pipeline|--tenants`",
            file=sys.stderr,
        )
        return 1
    for path in argv[1:]:
        check(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
