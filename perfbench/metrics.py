"""Metric names, units and how each is computed from a run.

END_TO_END and PER_LAYER are what every workload reports in the result line
(and what BENCHMARK.json lists). The other end-to-end metrics and
ROUNDTRIP_LAYER are printed in the report for the workloads they apply to.
README.md explains every metric and which end-to-end metric each per-layer
one should move.
"""

from __future__ import annotations

import statistics

import numpy as np

from .reference import IMPORT_NOMINAL_S, KERNEL_NOMINAL_S

END_TO_END = {
    "case_ref_p50": "ref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Per-layer metric -> (unit, span name whose median inclusive duration it is, or None).
PER_LAYER = {
    "planner.influence_s": ("s", "planner.build_influence_matrix"),
    "planner.influence_peak_mb": ("MB", None),
    "planner.influence_nnz": ("count", None),
    "planner.body_rows": ("count", None),
    "planner.beamlets": ("count", None),
    "planner.solve_s": ("s", "planner.solve_stacked"),
    "planner.solve_s_p90": ("s", None),
    "planner.cp_iters": ("count", None),
    "planner.converged_frac": ("fraction", None),
    "planner.spmv_gflop": ("GFLOP", None),
    "planner.spmv_gbytes": ("GB", None),
    "planner.norm_s": ("s", "planner.estimate_operator_norm"),
    "planner.scatter_s": ("s", "planner.scatter_dose"),
    "phantom.generate_s": ("s", "phantom.generate_patient"),
    "volume.bytes_written": ("bytes", None),
    "volume.bytes_read": ("bytes", None),
    "evaluation.metric_rows": ("count", None),
    "trace.overhead_pct": ("%", None),
}
# Layer times of the dataset-roundtrip's timed part. Their functions are never
# called on the other workloads, so they are printed in the report only.
ROUNDTRIP_LAYER = {
    "phantom.save_patient_s": "phantom.save_patient",
    "phantom.load_patient_s": "phantom.load_patient",
    "planner.save_plan_s": "planner.save_plan",
    "planner.load_plan_s": "planner.load_plan",
    "volume.write_s": "volume.write_volume",
    "volume.read_s": "volume.read_volume",
    "evaluation.evaluate_plan_s": "evaluation.evaluate_plan",
    "evaluation.isodose_mse_s": "evaluation.isodose_mse",
    "evaluation.ttest_s": "evaluation.paired_t_test",
}


class Metric:
    __slots__ = ("value", "unit", "n", "of")

    def __init__(self, value: float, unit: str, n: int, of: str):
        self.value, self.unit, self.n, self.of = float(value), unit, n, of


def setup_seconds(result) -> float:
    """Set-up time in seconds at the nominal host speed of reference.py.

    The median import and the median preparation are each divided by the
    reference that brackets them and multiplied by that reference's nominal
    time: the import by the import of the reference modules, the preparation
    (pinned inputs and set-up plans) by the in-process kernel.
    """
    imports = statistics.median(s / ref for s, ref in result.imports)
    prepares = statistics.median(s / ref for s, ref in result.prepares)
    return IMPORT_NOMINAL_S * imports + KERNEL_NOMINAL_S * prepares


def end_to_end(result) -> dict[str, Metric]:
    """All end-to-end metrics that apply to the run's workload."""
    wl = result.workload
    case_s = result.job_seconds()
    busy_s = sum(case_s) + sum(result.ttest_s)
    out = {
        "case_ref_p50": Metric(statistics.median(result.job_refs()), "ref", len(case_s), "cases"),
        "case_s_p50": Metric(statistics.median(case_s), "s", len(case_s), "cases"),
        "ref_s_p50": Metric(statistics.median(s for _, s in result.refs), "s", len(result.refs),
                            "reference samples"),
        "peak_rss_mb": Metric(result.peak_rss_mb, "MB", 1, "process"),
        "setup_s": Metric(setup_seconds(result), "s", len(result.imports) + len(result.prepares),
                          "imports and preparations"),
        "setup_wall_s": Metric(statistics.median(s for s, _ in result.imports)
                               + statistics.median(s for s, _ in result.prepares),
                               "s", len(result.imports) + len(result.prepares),
                               "imports and preparations"),
        "error_rate": Metric(result.failed / result.attempted, "fraction", result.attempted,
                             "operations"),
    }
    if wl.roundtrip:
        out["evals_per_s"] = Metric(result.eval_pairs / busy_s, "pairs/s", result.eval_pairs,
                                    "pairs")
    else:
        out["plans_per_min"] = Metric(60.0 * result.plans_done / busy_s, "plans/min",
                                      result.plans_done, "plans")
        gaps = result.gaps_pct
        if gaps:
            out["plan_gap_pct_p50"] = Metric(statistics.median(gaps), "%", len(gaps), "plans")
            out["plan_gap_pct_max"] = Metric(max(gaps), "%", len(gaps), "plans")
    return out


def per_layer(result) -> dict[str, Metric]:
    """Per-layer metrics of a traced run (PER_LAYER, plus ROUNDTRIP_LAYER where called)."""
    tracer = result.tracer
    durations: dict[str, list[float]] = {}
    for span in tracer.spans:
        durations.setdefault(span.name, []).append(span.duration)

    def median_of(span_name: str) -> Metric:
        values = durations.get(span_name, [])
        return Metric(statistics.median(values) if values else 0.0, "s", len(values), "calls")

    solves = durations.get("planner.solve_stacked", [0.0])
    peaks = tracer.peaks("planner.build_influence_matrix")
    traced = result.job_refs(traced=True)
    derived = {
        "planner.solve_s_p90": Metric(np.percentile(solves, 90), "s", len(solves), "calls"),
        "planner.influence_peak_mb": Metric(max(peaks, default=0) / 2**20, "MB", len(peaks),
                                            "calls"),
        "trace.overhead_pct": Metric(
            100.0 * (statistics.median(traced) / statistics.median(result.job_refs()) - 1.0),
            "%", len(traced), "traced cases",
        ),
    }
    out = {}
    for metric, (unit, span_name) in PER_LAYER.items():
        if span_name is not None:
            out[metric] = median_of(span_name)
        elif metric in derived:
            out[metric] = derived[metric]
        else:
            out[metric] = Metric(result.counters.get(metric, 0), unit, 1, "pass")
    if result.workload.roundtrip:
        for metric, span_name in ROUNDTRIP_LAYER.items():
            out[metric] = median_of(span_name)
    return out


def result_line(result, e2e: dict, layer: dict, trace: int) -> dict:
    """The last line of a run's output: end-to-end metrics, or per-layer ones when traced."""
    chosen, source = (PER_LAYER, layer) if trace else (END_TO_END, e2e)
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": source[k].value, "unit": source[k].unit} for k in chosen},
    }


def self_time_by_span(tracer, exclude_job_prefix: str = "setup") -> dict[str, float]:
    """Total self time per span name over the traced jobs (set-up excluded)."""
    totals: dict[str, float] = {}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        if span.job.startswith(exclude_job_prefix):
            continue
        totals[span.name] = totals.get(span.name, 0.0) + self_s
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))
