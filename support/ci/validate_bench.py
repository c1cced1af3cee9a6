#!/usr/bin/env python3
"""Validate every committed BENCH_*.json baseline in one CI step.

Each baseline file has a named rule set below; the script fails if

* an expected baseline file is missing,
* a BENCH_*.json exists that no rule covers (add a rule when adding a
  bench — silent, unvalidated baselines are how gates rot), or
* any per-file rule fails.

Run from the repository root: ``python3 support/ci/validate_bench.py``.
"""

from __future__ import annotations

import glob
import json
import math
import os
import sys


def validate_search(data: dict) -> str:
    """BENCH_search.json: the phase-ordering search-throughput record."""
    po = data["phase_ordering"]
    for field in ("genome_dims", "evaluations", "distinct_pipelines", "distinct_configs"):
        assert isinstance(po[field], int) and po[field] > 0, field
    assert po["distinct_pipelines"] <= po["distinct_configs"] <= po["evaluations"]
    assert data["cache_misses"] == po["distinct_configs"], "cache key space drifted"
    batch = data["batch"]
    assert isinstance(batch["jobs"], int) and batch["jobs"] > 0
    assert isinstance(batch["unique_jobs"], int) and 0 < batch["unique_jobs"] <= batch["jobs"]
    assert 0.0 <= batch["dedup_rate"] <= 1.0, "dedup rate out of range"
    assert (
        abs(batch["dedup_rate"] - (batch["jobs"] - batch["unique_jobs"]) / batch["jobs"]) < 1e-9
    ), "dedup rate inconsistent with job counts"
    assert batch["cold_modules_per_sec"] > 0, "cold batch throughput missing"
    assert batch["warm_modules_per_sec"] > 0, "warm batch throughput missing"
    # The persistent store must pay for itself: a fully warm batch is at
    # least as fast as the cold batch that populated it…
    assert (
        batch["warm_modules_per_sec"] >= batch["cold_modules_per_sec"]
    ), "warm batch slower than cold — the disk store is a pessimisation"
    # …and it must do so by answering every evaluation from disk.
    assert batch["warm_disk_misses"] == 0, "warm batch recompiled"
    assert batch["warm_disk_hits"] > 0, "warm batch never touched the store"
    sec = data["security"]
    assert sec["secure_genome_dims"] == po["genome_dims"] + 1, "rung gene missing"
    assert isinstance(sec["evaluations"], int) and sec["evaluations"] > 0
    assert isinstance(sec["variants"], int) and sec["variants"] > 0
    # Both countermeasure rungs must survive on the 3-D front…
    assert sec["rung0_variants"] > 0 and sec["rung1_variants"] > 0, "a rung vanished"
    assert sec["rung0_variants"] + sec["rung1_variants"] == sec["variants"]
    r0, r1 = sec["rung0_min_leakage"], sec["rung1_min_leakage"]
    # …with finite leakage scores (WELCH_T_CAP bounds degenerate sets)…
    assert math.isfinite(r0) and math.isfinite(r1), "leakage scores must be finite"
    assert r0 >= 0.0 and r1 >= 0.0, "leakage is a |t| statistic"
    # …and the ladder must strictly cut the leakage axis.
    assert r1 < r0, f"ladderised rung does not reduce leakage: {r1} vs {r0}"
    dataflow = data["dataflow"]
    assert len(dataflow) == 4, "four app kernels expected in the dataflow section"
    strictly_better = 0
    for k in dataflow:
        assert k["baseline_pipeline"], k
        assert k["pipeline"], k
        assert k["wcet_cycles"] > 0 and k["baseline_wcet_cycles"] > 0, k
        # The dataflow-backed tuned pipelines must never pessimise a
        # kernel relative to the frozen pre-dataflow pipeline…
        assert k["wcet_cycles"] <= k["baseline_wcet_cycles"], k
        assert k["wcec_pj"] <= k["baseline_wcec_pj"], k
        assert k["code_halfwords"] <= k["baseline_code_halfwords"], k
        dominates = (
            k["wcet_cycles"] < k["baseline_wcet_cycles"]
            or k["wcec_pj"] < k["baseline_wcec_pj"]
            or k["code_halfwords"] < k["baseline_code_halfwords"]
        )
        assert k["strictly_better"] == dominates, k
        strictly_better += dominates
    # …and must strictly improve at least one kernel's objective vector.
    assert strictly_better >= 1, "no kernel improved by the dataflow passes"
    return (
        f"phase ordering {po['distinct_pipelines']}/{po['distinct_configs']} distinct, "
        f"batch warm/cold {batch['warm_over_cold']:.2f}x at "
        f"{batch['dedup_rate']:.0%} dedup, "
        f"leakage rung1 {r1:.3g} < rung0 {r0:.3g}, "
        f"dataflow passes improve {strictly_better}/4 tuned kernels"
    )


def validate_sched(data: dict) -> str:
    """BENCH_sched.json: HEFT scheduler quality per instance family."""
    assert data["scheduler"] == "heft_upward_rank_insertion"
    fams = data["families"]
    assert len(fams) == 6, "six instance families expected"
    for f in fams:
        assert f["instances"] > 0 and 0 <= f["feasible"] <= f["instances"], f
        assert abs(f["feasibility_rate"] - f["feasible"] / f["instances"]) < 1e-9, f
        if f["feasible"]:
            assert f["mean_makespan_us"] > 0 and f["mean_energy_uj"] > 0, f
        # The heuristic never beats the exhaustive optimum.
        assert f["mean_optimal_gap_pct"] >= -1e-9, f
    loose = [f for f in fams if f["name"].endswith("_loose")]
    assert all(f["feasibility_rate"] == 1.0 for f in loose), "loose deadlines must fit"
    assert 0 <= data["a2_mean_gap_pct"] < 5.0, "A2 gap regressed"
    assert data["a2_mean_saving_pct"] > 5.0, "multi-version saving collapsed"
    rates = {f["name"]: f["feasibility_rate"] for f in fams}
    return f"feasibility {rates}"


def validate_wcet(data: dict) -> str:
    """BENCH_wcet.json: IPET-vs-structural tightness per app kernel."""
    assert data["engine"] == "ipet_loop_nest_dp"
    kernels = data["kernels"]
    assert len(kernels) == 4, "four app kernels expected"
    strict = 0
    for k in kernels:
        assert k["ipet_cycles"] > 0 and k["structural_cycles"] > 0, k
        # IPET may only sharpen the structural bound, never exceed it.
        assert k["ipet_cycles"] <= k["structural_cycles"], k
        ratio = k["tightness_ratio"]
        assert 0.0 < ratio <= 1.0, k
        assert abs(ratio - k["ipet_cycles"] / k["structural_cycles"]) < 1e-9, k
        # The shared flow solver must tighten energy in lock-step.
        assert 0.0 < k["ipet_wcec_pj"] <= k["structural_wcec_pj"], k
        assert 0.0 < k["wcec_tightness_ratio"] <= 1.0, k
        if k["ipet_cycles"] < k["structural_cycles"]:
            strict += 1
    assert strict >= 1, "IPET must be strictly tighter on at least one kernel"
    ratios = {k["app"]: round(k["tightness_ratio"], 3) for k in kernels}
    return f"tightness {ratios}, {strict}/4 strict"


def validate_wcet_memo(data: dict) -> str:
    """BENCH_wcet_memo.json: WCET analysis throughput, fresh analyses."""
    assert data["bench"] == "wcet_tightness"
    assert data["analyses_per_sec_uncached"] > 0, "throughput record missing"
    return f"{data['analyses_per_sec_uncached']:.0f} analyses/s"


def validate_sim(data: dict) -> str:
    """BENCH_sim.json: pre-decoded engine throughput vs the reference."""
    assert data["engine"] == "pre_decoded_direct_threaded"
    assert isinstance(data["pool_threads"], int) and data["pool_threads"] > 0
    kernels = data["kernels"]
    assert len(kernels) == 4, "four app kernels expected"
    for k in kernels:
        assert k["cycles_per_run"] > 0 and k["batch_runs"] > 0, k
        assert k["ref_cycles_per_sec"] > 0 and k["decoded_cycles_per_sec"] > 0, k
        assert k["batch_cycles_per_sec"] > 0, k
        # The pre-decoded engine must never lose to the interpreter it
        # lowers from (speedup >= 1.0 is the hard floor; the headline
        # target is tracked in the baseline itself).
        assert k["decoded_cycles_per_sec"] >= k["ref_cycles_per_sec"], k
        assert k["speedup"] >= 1.0, k
        assert (
            abs(k["speedup"] - k["decoded_cycles_per_sec"] / k["ref_cycles_per_sec"]) < 1e-9
        ), k
        # Every observed batch run stays under the static bound — the
        # fleet doubles as a soundness probe for IPET.
        assert 0 < k["observed_max_cycles"] <= k["ipet_cycles"], k
        assert 0.0 < k["observed_over_ipet"] <= 1.0, k
        assert (
            abs(k["observed_over_ipet"] - k["observed_max_cycles"] / k["ipet_cycles"]) < 1e-9
        ), k
    floor = min(k["speedup"] for k in kernels)
    assert abs(data["min_single_thread_speedup"] - floor) < 1e-9, "floor drifted"
    speedups = {k["app"]: round(k["speedup"], 2) for k in kernels}
    return f"speedups {speedups}, floor {floor:.2f}x"


def validate_fault(data: dict) -> str:
    """BENCH_fault.json: deterministic SEU campaigns per app kernel."""
    assert data["bench"] == "fault_campaign"
    assert isinstance(data["injections_per_kernel"], int) and data["injections_per_kernel"] > 0
    kernels = data["kernels"]
    assert len(kernels) == 4, "four app kernels expected"
    rate_fields = ("masked_rate", "sdc_rate", "trapped_rate", "timing_rate", "hang_rate")
    for k in kernels:
        assert k["injections"] == data["injections_per_kernel"], k
        assert 0 < k["reference_cycles"] <= k["ipet_cycles"], k
        # Every run executed under an explicit watchdog budget that
        # exceeds the fault-free run.
        assert k["watchdog_cycles"] > k["reference_cycles"], k
        for field in rate_fields:
            assert 0.0 <= k[field] <= 1.0, (k["app"], field)
        assert abs(sum(k[f] for f in rate_fields) - 1.0) < 1e-9, k
        # Harness invariants, not outcomes: the zero-fault control is
        # bit-identical to the reference and the serialized campaign is
        # byte-equal across pool widths.
        assert k["control_masked"] is True, k
        assert k["pool_width_invariant"] is True, k
        # A kernel that masks nothing (or everything) signals a broken
        # classifier rather than a vulnerability result.
        assert 0.0 < k["masked_rate"] < 1.0, k
    rates = {k["app"]: round(k["masked_rate"], 2) for k in kernels}
    return f"masked {rates} over {data['injections_per_kernel']} injections"


RULES = {
    "BENCH_fault.json": validate_fault,
    "BENCH_search.json": validate_search,
    "BENCH_sched.json": validate_sched,
    "BENCH_sim.json": validate_sim,
    "BENCH_wcet.json": validate_wcet,
    "BENCH_wcet_memo.json": validate_wcet_memo,
}


def main() -> int:
    root = os.getcwd()
    present = {os.path.basename(p) for p in glob.glob(os.path.join(root, "BENCH_*.json"))}
    missing = sorted(set(RULES) - present)
    if missing:
        print(f"FAIL: missing baseline file(s): {', '.join(missing)}")
        return 1
    unknown = sorted(present - set(RULES))
    if unknown:
        print(
            f"FAIL: no validation rule for {', '.join(unknown)} — "
            "add one to support/ci/validate_bench.py"
        )
        return 1
    failures = 0
    for name in sorted(RULES):
        with open(os.path.join(root, name)) as fh:
            data = json.load(fh)
        try:
            summary = RULES[name](data)
        except (AssertionError, KeyError, TypeError, ZeroDivisionError) as exc:
            print(f"FAIL: {name}: {exc!r}")
            failures += 1
            continue
        print(f"ok: {name}: {summary}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
