"""DVH curves, dose-volume metrics, isodose-region MSE, and paired t-tests.

Doses are normalized model-space values; percent errors are expressed
relative to the case's highest PTV prescription.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import betainc

from .errors import DosekitError, ValidationError
from .volume import BODY, OAR, PTV, StructureMask, StructureSet, VoxelGrid

D98 = "D98"
D95 = "D95"
D02 = "D02"
DMEAN = "Dmean"
DMAX = "Dmax"
PTV_METRICS = (DMEAN, DMAX, D98, D95, D02)
OAR_METRICS = (DMEAN, DMAX)


class EvaluationError(DosekitError):
    pass


@dataclass(frozen=True, eq=False)
class DvhCurve:
    """Cumulative dose-volume curve of one structure.

    ``doses`` holds one dose per structure voxel, sorted descending, so
    ``dose_at_fraction(q)`` is the exact order statistic d(ceil(q*N)): the
    dose received by at least a fraction q of the volume. No interpolation.
    """

    structure: str
    doses: np.ndarray

    def __post_init__(self):
        doses = np.asarray(self.doses)
        if doses.ndim != 1 or doses.size == 0:
            raise EvaluationError(f"curve for {self.structure!r} needs at least one dose")
        if np.any(np.diff(doses) > 0):
            raise EvaluationError(f"curve for {self.structure!r} must be nonincreasing")
        doses = doses.copy()
        doses.flags.writeable = False
        object.__setattr__(self, "doses", doses)

    @classmethod
    def from_dose(cls, dose: VoxelGrid, mask: StructureMask) -> "DvhCurve":
        if dose.dims != mask.mask.dims:
            raise EvaluationError(
                f"dose dims {dose.dims} do not match mask {mask.name!r} dims {mask.mask.dims}"
            )
        values = dose.data[mask.bool_array()]
        if values.size == 0:
            raise EvaluationError(f"structure {mask.name!r} has an empty mask")
        return cls(mask.name, np.sort(values)[::-1])

    @property
    def voxel_count(self) -> int:
        return int(self.doses.size)

    def dose_at_fraction(self, q: float) -> float:
        if not 0.0 < q <= 1.0:
            raise EvaluationError(f"volume fraction must be in (0, 1], got {q}")
        n = self.doses.size
        return float(self.doses[min(math.ceil(q * n), n) - 1])

    def dose_at_fractions(self, qs: np.ndarray) -> np.ndarray:
        """Vectorized dose_at_fraction."""
        qs = np.asarray(qs, dtype=np.float64)
        if qs.size and (qs.min() <= 0.0 or qs.max() > 1.0):
            raise EvaluationError("volume fractions must be in (0, 1]")
        n = self.doses.size
        idx = np.minimum(np.ceil(qs * n).astype(np.int64), n) - 1
        return self.doses[idx]

    def table(self) -> np.ndarray:
        """(dose, volume_fraction) rows for plotting/export."""
        n = self.doses.size
        fracs = np.arange(1, n + 1, dtype=np.float64) / n
        return np.column_stack([self.doses.astype(np.float64), fracs])


def dvh_metric(curve: DvhCurve, metric: str) -> float:
    """One of D98/D95/D02 (order statistics), Dmean, Dmax."""
    if metric == DMAX:
        return float(curve.doses[0])
    if metric == DMEAN:
        # summed in descending-dose order so an independent sort oracle is bit-exact
        return float(np.sum(curve.doses.astype(np.float64)) / curve.doses.size)
    if metric in (D98, D95, D02):
        return curve.dose_at_fraction(int(metric[1:]) / 100.0)
    raise EvaluationError(f"unknown DVH metric {metric!r}")


def metric_error(pred: float, gt: float, prescription: float) -> float:
    """Absolute error as a percent of the prescription dose."""
    if prescription <= 0:
        raise ValidationError(f"prescription must be positive, got {prescription}")
    return abs(pred - gt) / prescription * 100.0


def isodose_mse(
    pred: VoxelGrid, gt: VoxelGrid, prescription: float, v_percent: float = 10.0
) -> float:
    """MSE restricted to voxels where gt >= v% of the prescription."""
    if pred.dims != gt.dims:
        raise EvaluationError(f"dims mismatch: {pred.dims} vs {gt.dims}")
    if prescription <= 0:
        raise ValidationError(f"prescription must be positive, got {prescription}")
    region = gt.data >= (v_percent / 100.0) * prescription
    n = int(np.count_nonzero(region))
    if n == 0:
        raise EvaluationError(f"{v_percent}% isodose region is empty")
    diff = pred.data[region].astype(np.float64) - gt.data[region].astype(np.float64)
    return float(np.mean(diff * diff))


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: int
    p: float
    significant: bool
    degenerate: bool = False

    def __post_init__(self):
        if self.df < 1:
            raise ValidationError("t-test needs at least one degree of freedom")
        if not 0.0 <= self.p <= 1.0:
            raise ValidationError(f"p-value {self.p} outside [0, 1]")


def paired_t_test(a, b, alpha: float = 0.05) -> TTestResult:
    """Two-sided paired t-test on equal-length samples.

    The p-value comes from the Student-t CDF via the regularized incomplete
    beta function. Zero-variance difference vectors are flagged degenerate:
    p=1 when every difference is zero, p=0 otherwise.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValidationError("paired t-test needs two equal-length vectors")
    n = a.size
    if n < 2:
        raise ValidationError("paired t-test needs n >= 2")
    d = a - b
    df = n - 1
    mean = float(np.mean(d))
    sd = float(np.std(d, ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, df=df, p=1.0, significant=False, degenerate=True)
        t = math.copysign(math.inf, mean)
        return TTestResult(t=t, df=df, p=0.0, significant=alpha > 0.0, degenerate=True)
    t = mean / (sd / math.sqrt(n))
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return TTestResult(t=t, df=df, p=p, significant=p < alpha)


_KIND_ORDER = {PTV: 0, OAR: 1, BODY: 2}
_IMPACT_ORDER = {"high": 0, "low": 1, None: 2}


@dataclass(frozen=True)
class MetricValue:
    structure: str
    kind: str
    impact: str | None
    metric: str
    predicted: float
    ground_truth: float
    percent_error: float

    def __post_init__(self):
        if self.percent_error < 0:
            raise ValidationError("percent error cannot be negative")


@dataclass(frozen=True)
class MetricsReport:
    """Per-structure DVH-metric comparison of a predicted dose to ground truth."""

    rows: tuple[MetricValue, ...]
    prescription: float

    def to_json_dict(self) -> dict:
        return {
            "prescription": self.prescription,
            "rows": [vars(r) for r in self.rows],
        }

    def write_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n")

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["structure", "kind", "impact", "metric", "predicted", "ground_truth", "percent_error"]
            )
            for r in self.rows:
                writer.writerow(
                    [r.structure, r.kind, r.impact or "", r.metric,
                     repr(r.predicted), repr(r.ground_truth), repr(r.percent_error)]
                )


def metrics_for_kind(kind: str) -> tuple[str, ...]:
    return PTV_METRICS if kind == PTV else OAR_METRICS


def evaluate_plan(pred_dose: VoxelGrid, gt, structures: StructureSet) -> MetricsReport:
    """Table 2/3 style metric errors for every nonempty structure.

    `gt` is a ground-truth dose grid or any object exposing one as `.dose`.
    PTVs get coverage metrics plus mean/max; OARs and BODY get mean/max. Rows
    are ordered PTVs, high-impact OARs, low-impact OARs, BODY.
    """
    gt_dose = gt.dose if hasattr(gt, "dose") else gt
    prescription = structures.highest_prescription
    ordered = sorted(
        structures.structures,
        key=lambda s: (_KIND_ORDER[s.kind], _IMPACT_ORDER.get(s.impact, 2), s.name),
    )
    rows = []
    for s in ordered:
        if s.voxel_count == 0:
            continue
        try:
            pred_curve = DvhCurve.from_dose(pred_dose, s)
            gt_curve = DvhCurve.from_dose(gt_dose, s)
            for metric in metrics_for_kind(s.kind):
                pv = dvh_metric(pred_curve, metric)
                gv = dvh_metric(gt_curve, metric)
                rows.append(
                    MetricValue(
                        structure=s.name,
                        kind=s.kind,
                        impact=s.impact,
                        metric=metric,
                        predicted=pv,
                        ground_truth=gv,
                        percent_error=metric_error(pv, gv, prescription),
                    )
                )
        except DosekitError as exc:
            raise EvaluationError(f"structure {s.name!r}: {exc}") from exc
    return MetricsReport(rows=tuple(rows), prescription=prescription)


def write_dvh_csv(curve: DvhCurve, path) -> None:
    """One (dose, volume_fraction) row per voxel rank, descending dose."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dose", "volume_fraction"])
        for dose, frac in curve.table():
            writer.writerow([repr(float(dose)), repr(float(frac))])
