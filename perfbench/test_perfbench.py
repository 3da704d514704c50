"""The benchmark's own tests: result schema, BENCHMARK.json, and tiny smoke runs.

The smoke runs use half-size sites and few CP iterations, so they finish in a
few seconds; they exercise the same code paths as the pinned workloads.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from dosekit import phantom, planner
from perfbench import metrics, oracle, run, workloads

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny(roundtrip: bool) -> workloads.Workload:
    cases = tuple(
        (workloads.scaled_site(phantom.builtin_site(site), 0.5), 1) for site in ("siteA", "siteB")
    )
    name = "tiny-roundtrip" if roundtrip else "tiny-pareto"
    return workloads.Workload(name, cases, plans_per_case=3, max_iters=40, roundtrip=roundtrip)


def tiny_run(roundtrip: bool, seed: int = 1, trace: bool = False, tmp_path=None):
    return workloads.run(tiny(roundtrip), seed, 0.0, trace, tmp_path, setup_reps=(1, 1))


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES) == list(run.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (unit, _) in metrics.PER_LAYER.items()
    }
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])


@pytest.mark.parametrize("roundtrip", [False, True])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_result_schema(roundtrip, trace, tmp_path):
    result = tiny_run(roundtrip, trace=bool(trace), tmp_path=tmp_path)
    e2e = metrics.end_to_end(result)
    layer = metrics.per_layer(result) if trace else {}
    line = json.loads(json.dumps(metrics.result_line(result, e2e, layer, trace)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(line["metrics"]) == list(expected)
    for name, m in line["metrics"].items():
        assert set(m) == {"value", "unit"} and isinstance(m["value"], float)
        assert m["unit"] == (expected[name][0] if trace else expected[name])
    assert e2e["error_rate"].value == 0.0
    assert e2e["setup_s"].value > 0 and e2e["setup_wall_s"].value > 0
    if roundtrip:
        assert e2e["evals_per_s"].value > 0
        assert result.counters["volume.bytes_written"] > 0
        assert result.counters["volume.bytes_read"] > 0
    else:
        assert e2e["plans_per_min"].value > 0 and e2e["plan_gap_pct_max"].value > 0
    if trace:
        for name in metrics.PER_LAYER:
            if name.endswith("_s") and not name.startswith(("volume.", "evaluation.")):
                assert layer[name].value > 0, name
        if roundtrip:
            assert all(layer[name].value > 0 for name in metrics.ROUNDTRIP_LAYER)
    assert not list(tmp_path.joinpath(".bench_build").iterdir())


def test_same_seed_repeats_digests_counters_and_gaps(tmp_path):
    a = tiny_run(False, seed=3, tmp_path=tmp_path)
    b = tiny_run(False, seed=3, tmp_path=tmp_path)
    c = tiny_run(False, seed=4, tmp_path=tmp_path)
    assert a.digest == b.digest and a.counters == b.counters and a.gaps_pct == b.gaps_pct
    assert c.digest != a.digest


def test_later_pass_that_differs_is_a_failure(tmp_path, monkeypatch):
    calls = []
    real = workloads.make_plans

    def drifting(wl, item):
        case, plans = real(wl, item)
        calls.append(item.key)
        if len(calls) > len(wl.cases):  # second pass onwards
            plans[0] = planner.Plan(plans[0].patient_id, 0, plans[0].weights,
                                    plans[0].fluence * 2, plans[0].dose, plans[0].diagnostics)
        return case, plans

    monkeypatch.setattr(workloads, "make_plans", drifting)
    result = workloads.run(tiny(False), 1, 0.0, True, tmp_path, setup_reps=(1, 1))  # two passes
    assert result.failed == len(tiny(False).cases)


def test_plan_not_written_on_a_later_pass_is_a_failure(tmp_path, monkeypatch):
    wl = tiny(True)
    calls = []
    real = planner.save_plan

    def stops_writing(directory, plan):
        calls.append(plan)
        if len(calls) <= len(wl.cases) * wl.plans_per_case:  # first pass only
            real(directory, plan)

    monkeypatch.setattr(planner, "save_plan", stops_writing)
    result = workloads.run(wl, 1, 0.0, True, tmp_path, setup_reps=(1, 1))  # two passes
    assert result.passes == 2 and result.failed == len(wl.cases)
    assert metrics.end_to_end(result)["error_rate"].value > 0


def test_corrupted_readback_registers_in_error_rate(tmp_path, monkeypatch):
    real = workloads.write_case

    def corrupting(directory, case, plans):
        real(directory, case, plans)
        path = directory / "plan1" / planner.FLUENCE_FILE
        raw = bytearray(path.read_bytes())
        raw[0] ^= 1  # lowest mantissa bit of the first fluence value
        path.write_bytes(bytes(raw))

    monkeypatch.setattr(workloads, "write_case", corrupting)
    result = tiny_run(True, tmp_path=tmp_path)
    e2e = metrics.end_to_end(result)
    assert result.failed == len(tiny(True).cases)
    assert e2e["error_rate"].value > 0
    assert metrics.result_line(result, e2e, {}, 0)["correct"] is False


def test_oracle_violation_registers_in_error_rate(tmp_path, monkeypatch):
    # An "optimum" at x = 0 is worse than any CP plan, so every CP objective
    # sits below it: exactly what a wrong oracle or planner would produce.
    monkeypatch.setattr(oracle, "nnls", lambda M, b: (M[0] * 0.0, float((b @ b) ** 0.5)))
    result = tiny_run(False, tmp_path=tmp_path)
    assert result.failed == len(tiny(False).cases)
    assert metrics.end_to_end(result)["error_rate"].value > 0


def test_oracle_finds_the_optimum_below_cp(tmp_path):
    wl = tiny(False)
    item = workloads.prepare(wl, 1)[0]
    case, plans = workloads.make_plans(wl, item)
    infl = planner.build_influence_matrix(case, workloads.BEAMS)
    for plan in plans:
        gap = oracle.plan_gap(infl, case.structures, plan)
        assert not gap.violation and gap.pct > 0


def test_tracer_nests_internal_calls_and_restores_functions(tmp_path):
    original = planner.build_influence_matrix
    result = tiny_run(False, trace=True, tmp_path=tmp_path)
    assert planner.build_influence_matrix is original
    spans = result.tracer.spans
    build = next(s for s in spans if s.name == "planner.build_influence_matrix")
    assert spans[build.parent].name == "planner.generate_plans"
    assert build.peak_bytes > 0
    solve = next(s for s in spans if s.name == "planner.solve_stacked")
    assert spans[solve.parent].name == "planner.solve_fluence"
    self_times = result.tracer.self_times()
    assert all(t >= 0 for t in self_times)
    total = sum(s.duration for s in spans if s.parent is None)
    assert sum(self_times) == pytest.approx(total)


def test_fails_without_dosekit_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-pareto", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
