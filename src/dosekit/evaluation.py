"""DVH curves, dose-volume metrics, isodose-region MSE, and paired t-tests.

Doses are normalized model-space values; percent errors are expressed
relative to the case's highest PTV prescription.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .volume import BODY, OAR, PTV, Record, StructureMask, StructureSet, VoxelGrid

D98 = "D98"
D95 = "D95"
D02 = "D02"
DMEAN = "Dmean"
DMAX = "Dmax"
PTV_METRICS = (DMEAN, DMAX, D98, D95, D02)
OAR_METRICS = (DMEAN, DMAX)
ISODOSE_PERCENT = 10.0  # isodose_mse's region: ground truth at >= this % of the prescription
T_TEST_ALPHA = 0.05  # paired_t_test's significance level


@dataclass(frozen=True, eq=False)
class DvhCurve:
    """Cumulative dose-volume curve of one structure.

    The constructor sorts ``doses``, one per structure voxel, descending into a new
    read-only array, so ``dose_at_fraction(q)`` is the exact order statistic
    d(ceil(q*N)): the dose received by at least a fraction q of the volume.
    """

    structure: str
    doses: np.ndarray

    def __post_init__(self):
        doses = np.asarray(self.doses)
        if doses.ndim != 1 or doses.size == 0:
            raise ValidationError(f"curve for {self.structure!r} needs at least one dose")
        doses = np.sort(doses)[::-1]
        doses.flags.writeable = False
        object.__setattr__(self, "doses", doses)

    @classmethod
    def from_dose(cls, dose: VoxelGrid, mask: StructureMask) -> "DvhCurve":
        _check_grid(dose, mask.mask, f"mask {mask.name!r}")
        return cls(mask.name, dose.data[mask.bool_array()])

    def dose_at_fraction(self, q: float) -> float:
        if not 0.0 < q <= 1.0:
            raise ValidationError(f"volume fraction must be in (0, 1], got {q}")
        n = self.doses.size
        return float(self.doses[min(math.ceil(q * n), n) - 1])


def _check_grid(dose: VoxelGrid, ref: VoxelGrid, what: str) -> None:
    """Raise ValidationError unless `dose` has `ref`'s dims: every grid's voxels are
    SPACING_MM, so that is the whole grid."""
    if dose.dims != ref.dims:
        raise ValidationError(f"dose dims {dose.dims} do not match {what} dims {ref.dims}")


def dvh_metric(curve: DvhCurve, metric: str) -> float:
    """One of D98/D95/D02 (order statistics), Dmean, Dmax."""
    if metric == DMAX:
        return float(curve.doses[0])
    if metric == DMEAN:
        # summed in descending-dose order so an independent sort oracle is bit-exact
        return float(np.sum(curve.doses.astype(np.float64)) / curve.doses.size)
    if metric in (D98, D95, D02):
        return curve.dose_at_fraction(int(metric[1:]) / 100.0)
    raise ValidationError(f"unknown DVH metric {metric!r}")


def _check_prescription(prescription: float) -> None:
    if not 0 < prescription < math.inf:  # NaN fails both comparisons
        raise ValidationError(f"prescription must be positive and finite, got {prescription}")


def metric_error(pred: float, gt: float, prescription: float) -> float:
    """Absolute error as a percent of the prescription dose."""
    _check_prescription(prescription)
    return abs(pred - gt) / prescription * 100.0


def isodose_mse(pred: VoxelGrid, gt: VoxelGrid, prescription: float) -> float:
    """MSE restricted to voxels where gt >= ISODOSE_PERCENT% of the prescription."""
    _check_grid(pred, gt, "ground truth")
    _check_prescription(prescription)
    region = gt.data >= (ISODOSE_PERCENT / 100.0) * prescription
    n = int(np.count_nonzero(region))
    if n == 0:
        raise ValidationError(f"{ISODOSE_PERCENT}% isodose region is empty")
    diff = pred.data[region].astype(np.float64) - gt.data[region].astype(np.float64)
    return float(np.mean(diff * diff))


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: int
    p: float
    significant: bool
    degenerate: bool = False


def paired_t_test(a, b) -> TTestResult:
    """Two-sided paired t-test on equal-length samples.

    The p-value comes from the Student-t CDF via the regularized incomplete
    beta function, scipy.special.betainc, which is imported on a process's first
    t-test, not with this module: scipy.special costs about 0.2-0.3 s to load.
    Zero-variance difference vectors are flagged degenerate: p=1 when every
    difference is zero, p=0 otherwise. A result is significant when p < T_TEST_ALPHA.
    Non-finite samples and differences whose mean or spread overflows raise
    ValidationError.
    """
    from scipy.special import betainc

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValidationError("paired t-test needs two equal-length vectors")
    n = a.size
    if n < 2:
        raise ValidationError("paired t-test needs n >= 2")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValidationError("paired t-test samples must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        d = a - b
        mean = float(np.mean(d))
        sd = float(np.std(d, ddof=1))
    if not (math.isfinite(mean) and math.isfinite(sd)):
        raise ValidationError("paired t-test differences overflow")
    df = n - 1
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, df=df, p=1.0, significant=False, degenerate=True)
        t = math.copysign(math.inf, mean)
        return TTestResult(t=t, df=df, p=0.0, significant=True, degenerate=True)
    t = mean / (sd / math.sqrt(n))
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return TTestResult(t=t, df=df, p=p, significant=p < T_TEST_ALPHA)


_KIND_ORDER = {PTV: 0, OAR: 1, BODY: 2}
_IMPACT_ORDER = {"high": 0, "low": 1, None: 2}


@dataclass(frozen=True)
class MetricValue(Record):
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
class MetricsReport(Record):
    """Per-structure DVH-metric comparison of a predicted dose to ground truth,
    saved with ``write_manifest(path, report)``."""

    SCHEMA_VERSION = 1

    prescription: float
    rows: tuple[MetricValue, ...]


def evaluate_plan(pred_dose: VoxelGrid, gt, structures: StructureSet) -> MetricsReport:
    """Table 2/3 style metric errors for every structure (each has at least one voxel).

    `gt` is a ground-truth dose grid or any object exposing one as `.dose`.
    PTVs get coverage metrics plus mean/max; OARs and BODY get mean/max. Rows
    are ordered PTVs, high-impact OARs, low-impact OARs, BODY.
    """
    gt_dose = gt.dose if hasattr(gt, "dose") else gt
    prescription = structures.highest_prescription
    ordered = sorted(
        structures.structures,
        key=lambda s: (_KIND_ORDER[s.kind], _IMPACT_ORDER[s.impact], s.name),
    )
    rows = []
    for s in ordered:
        pred_curve = DvhCurve.from_dose(pred_dose, s)
        gt_curve = DvhCurve.from_dose(gt_dose, s)
        for metric in PTV_METRICS if s.kind == PTV else OAR_METRICS:
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
    return MetricsReport(rows=tuple(rows), prescription=prescription)
