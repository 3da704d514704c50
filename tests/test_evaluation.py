import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dosekit.errors import ValidationError
from dosekit.evaluation import (
    D02,
    D95,
    D98,
    DMAX,
    DMEAN,
    DvhCurve,
    MetricsReport,
    dvh_metric,
    evaluate_plan,
    isodose_mse,
    metric_error,
    paired_t_test,
)
from dosekit.volume import StructureMask, StructureSet, VoxelGrid, read_manifest, write_manifest

from test_volume import make_mask


# ---- independent oracles -------------------------------------------------

def sort_oracle(values, metric):
    """Order-statistic DVH oracle: sort descending, index d(ceil(q*N))."""
    vs = sorted(values, reverse=True)
    n = len(vs)
    if metric == DMAX:
        return vs[0]
    if metric == DMEAN:
        return float(np.sum(np.asarray(vs, dtype=np.float64)) / n)
    q = int(metric[1:]) / 100.0
    return vs[min(math.ceil(q * n), n) - 1]


def t_pdf(x, df):
    c = math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)) / math.sqrt(df * math.pi)
    return c * (1.0 + x * x / df) ** (-(df + 1) / 2.0)


def quad_two_sided_p(t, df):
    tail, _ = quad(t_pdf, abs(t), np.inf, args=(df,))
    return 2.0 * tail


# ---- DvhCurve ------------------------------------------------------------

class TestDvhCurve:
    def test_uniform_dose_is_flat(self):
        c = DvhCurve("s", np.full(17, 0.7, dtype=np.float32))
        for q in (0.01, 0.5, 0.98, 1.0):
            assert c.dose_at_fraction(q) == pytest.approx(0.7)

    def test_order_statistic(self):
        c = DvhCurve("s", np.array([4.0, 3.0, 2.0, 1.0]))
        assert c.dose_at_fraction(0.5) == 3.0

    def test_full_fraction_is_minimum(self):
        c = DvhCurve("s", np.array([4.0, 3.0, 2.0, 1.0]))
        assert c.dose_at_fraction(1.0) == 1.0

    def test_fraction_bounds(self):
        c = DvhCurve("s", np.array([1.0]))
        with pytest.raises(ValidationError):
            c.dose_at_fraction(0.0)
        with pytest.raises(ValidationError):
            c.dose_at_fraction(1.5)

    def test_sorts_its_doses(self):
        given = np.array([2.0, 4.0, 1.0, 3.0])
        c = DvhCurve("s", given)
        assert c.doses.tolist() == [4.0, 3.0, 2.0, 1.0]
        assert not c.doses.flags.writeable
        with pytest.raises(ValueError):
            c.doses[0] = 0.0
        assert given.tolist() == [2.0, 4.0, 1.0, 3.0] and given.flags.writeable
        assert dvh_metric(c, DMAX) == 4.0 and c.dose_at_fraction(0.5) == 3.0

    def test_from_dose_requires_the_mask_grid(self):
        mask = make_mask((2, 2, 2), [(0, 0, 0)])
        dose = VoxelGrid(np.ones((2, 2, 2), dtype=np.float32), spacing=(2.5,) * 3)
        with pytest.raises(ValidationError, match=r"^dose spacing \(2.5, 2.5, 2.5\) does not "
                                                  r"match mask 'body''s \(5.0, 5.0, 5.0\)"):
            DvhCurve.from_dose(dose, mask)

    def test_requires_a_dose(self):
        with pytest.raises(ValidationError, match="^curve for 's' needs at least one dose$"):
            DvhCurve("s", np.array([]))


class TestDvhMetric:
    def test_unknown_metric(self):
        with pytest.raises(ValidationError, match="^unknown DVH metric 'D50'$"):
            dvh_metric(DvhCurve("s", np.array([1.0])), "D50")

    def test_uniform_dose(self):
        c = DvhCurve("s", np.full(9, 0.7, dtype=np.float32))
        for m in (D98, D95, D02, DMEAN, DMAX):
            assert dvh_metric(c, m) == pytest.approx(0.7)

    def test_ten_voxel_hand_case(self):
        doses = np.arange(1.0, 0.05, -0.1)  # 1.0, 0.9, ..., 0.1
        c = DvhCurve("s", doses)
        assert dvh_metric(c, D95) == pytest.approx(0.1)
        assert dvh_metric(c, DMAX) == pytest.approx(1.0)
        assert dvh_metric(c, DMEAN) == pytest.approx(0.55)

    def test_singleton(self):
        c = DvhCurve("s", np.array([0.42], dtype=np.float32))
        for m in (D98, D95, D02, DMEAN, DMAX):
            assert dvh_metric(c, m) == pytest.approx(0.42)

    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=500))
    def test_matches_sort_oracle_exactly(self, seed, n):
        rng = np.random.default_rng(seed)
        values = rng.random(n).astype(np.float32)
        c = DvhCurve("s", np.sort(values)[::-1])
        for m in (D98, D95, D02, DMEAN, DMAX):
            assert dvh_metric(c, m) == sort_oracle(list(values), m)

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=200))
    def test_monotonicity_and_bounds(self, seed, n):
        rng = np.random.default_rng(seed)
        c = DvhCurve("s", np.sort(rng.random(n).astype(np.float32))[::-1])
        d02, d95, d98 = dvh_metric(c, D02), dvh_metric(c, D95), dvh_metric(c, D98)
        assert d02 >= d95 >= d98
        assert dvh_metric(c, DMEAN) <= dvh_metric(c, DMAX)
        assert dvh_metric(c, DMEAN) >= c.dose_at_fraction(1.0)


class TestMetricError:
    def test_identity(self):
        assert metric_error(0.7, 0.7, 1.0) == 0.0

    def test_table2_scale(self):
        assert metric_error(0.7032, 0.7, 1.0) == pytest.approx(0.32)

    def test_highest_prescription_rule(self):
        prescriptions = (1.0, 0.77)
        assert metric_error(0.55, 0.5, max(prescriptions)) == pytest.approx(5.0)

    def test_rejects_nonpositive_prescription(self):
        with pytest.raises(ValidationError):
            metric_error(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("prescription", [math.nan, math.inf])
    def test_rejects_non_finite_prescription(self, prescription):
        with pytest.raises(ValidationError, match="finite"):
            metric_error(1.0, 2.0, prescription)


class TestIsodoseMse:
    def test_identity(self):
        g = VoxelGrid(np.full((3, 3, 3), 0.5, dtype=np.float32))
        assert isodose_mse(g, g, 1.0) == 0.0

    def test_constant_offset(self):
        gt = VoxelGrid(np.full((3, 3, 3), 0.5, dtype=np.float32))
        pred = VoxelGrid(gt.data + np.float32(0.1))
        assert isodose_mse(pred, gt, 1.0) == pytest.approx(0.01, rel=1e-5)

    def test_region_masking(self):
        gt_arr = np.full((4, 4, 4), 0.05, dtype=np.float32)
        gt_arr[:2] = 0.5  # half the voxels above 10% of prescription 1.0
        gt = VoxelGrid(gt_arr)
        pred_arr = gt_arr.copy()
        pred_arr[:2] += 0.2
        pred_arr[2:] += 100.0  # outside the region, must be ignored
        pred = VoxelGrid(pred_arr)
        assert isodose_mse(pred, gt, 1.0) == pytest.approx(0.04, rel=1e-5)

    def test_outside_region_invariance(self):
        rng = np.random.default_rng(5)
        gt = VoxelGrid(rng.uniform(0, 1, size=(4, 4, 4)).astype(np.float32))
        pred = VoxelGrid(rng.uniform(0, 1, size=(4, 4, 4)).astype(np.float32))
        outside = gt.data < 0.1
        perturbed = pred.data.copy()
        perturbed[outside] += 3.7
        assert isodose_mse(pred, gt, 1.0) == isodose_mse(VoxelGrid(perturbed), gt, 1.0)

    def test_rejects_another_grid(self):
        gt = VoxelGrid(np.ones((2, 2, 2), dtype=np.float32))
        finer = VoxelGrid(gt.data, spacing=(2.5, 2.5, 2.5))
        with pytest.raises(ValidationError, match="spacing"):
            isodose_mse(finer, gt, 1.0)
        with pytest.raises(ValidationError, match=r"^dose dims \(1, 2, 2\) do not match"):
            isodose_mse(VoxelGrid(gt.data[:1]), gt, 1.0)

    def test_empty_region(self):
        gt = VoxelGrid(np.zeros((2, 2, 2)))
        with pytest.raises(ValidationError):
            isodose_mse(gt, gt, 1.0)

    def test_region_boundary(self):
        # prescription 5.0 puts the 10% threshold at 0.5, exact in float32 and float64:
        # a voxel at 0.5 lies in the region, one just below it does not
        gt_arr = np.array([0.5, np.nextafter(np.float32(0.5), 0)], dtype=np.float32)
        gt = VoxelGrid(gt_arr.reshape(2, 1, 1))
        pred = VoxelGrid((gt_arr + np.float32([1.0, 3.0])).reshape(2, 1, 1))
        assert isodose_mse(pred, gt, 5.0) == 1.0
        below = VoxelGrid(gt_arr[1:].reshape(1, 1, 1))
        with pytest.raises(ValidationError, match="region is empty"):
            isodose_mse(below, below, 5.0)

    @pytest.mark.parametrize("prescription", [math.nan, math.inf, 0.0],
                             ids=["nan-prescription", "infinite-prescription",
                                  "zero-prescription"])
    def test_rejects_bad_prescription_or_level(self, prescription):
        g = VoxelGrid(np.full((3, 3, 3), 0.5, dtype=np.float32))
        with pytest.raises(ValidationError, match="positive and finite"):
            isodose_mse(g, g, prescription)


class TestPairedTTest:
    def test_symmetric_null(self):
        r = paired_t_test([1.0, -1.0, 0.0], [0.0, 0.0, 0.0])
        assert r.t == 0.0
        assert r.p == 1.0
        assert not r.degenerate

    def test_identical_samples_degenerate(self):
        a = [0.3, 0.5, 0.7, 0.2]
        r = paired_t_test(a, list(a))
        assert r.degenerate
        assert r.p == 1.0
        assert not r.significant

    def test_constant_shift_degenerate(self):
        a = np.array([1.0, 2.0, 3.0])
        r = paired_t_test(a + 0.5, a)
        assert r.degenerate
        assert r.p == 0.0
        assert r.significant

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=10)
            b = a + rng.normal(scale=0.5, size=10)
            r = paired_t_test(a, b)
            if r.degenerate:
                continue
            assert r.p == pytest.approx(quad_two_sided_p(r.t, r.df), abs=1e-9)

    def test_swap_negates_t_keeps_p(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=8)
        b = rng.normal(size=8)
        r1 = paired_t_test(a, b)
        r2 = paired_t_test(b, a)
        assert r1.t == pytest.approx(-r2.t)
        assert r1.p == pytest.approx(r2.p)

    @pytest.mark.parametrize("a, b", [([1.0, 2.0, 3.0], [1.0, 2.0]),
                                      ([[1.0, 2.0]], [[0.0, 1.0]])], ids=["lengths", "matrices"])
    def test_needs_two_equal_length_vectors(self, a, b):
        with pytest.raises(ValidationError, match="^paired t-test needs two equal-length vectors$"):
            paired_t_test(a, b)

    def test_needs_two_samples(self):
        with pytest.raises(ValidationError):
            paired_t_test([1.0], [2.0])

    @pytest.mark.parametrize("a, b, message", [
        ([math.inf, 1.0], [0.0, 0.0], "finite"),
        ([1.0, 2.0], [math.nan, 0.0], "finite"),
        ([1e308, 1e308, -1e308], [-1e308, 0.0, 0.0], "overflow"),
        ([1e200, -1e200, 0.0], [0.0, 0.0, 0.0], "overflow"),
    ], ids=["infinite-sample", "nan-sample", "overflowing-difference", "overflowing-spread"])
    def test_rejects_non_finite_samples(self, a, b, message):
        with pytest.raises(ValidationError, match=message):
            paired_t_test(a, b)


def _tiny_case(with_oar=True):
    shape = (3, 3, 3)
    body_coords = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    body = make_mask(shape, body_coords)
    ptv = make_mask(shape, [(1, 1, 1), (1, 1, 2)], kind="PTV", name="ptv70", prescription=1.0)
    masks = [body, ptv]
    if with_oar:
        masks.append(make_mask(shape, [(0, 0, 0)], kind="OAR", name="oar01", impact="high"))
    return StructureSet(tuple(masks))


class TestEvaluatePlan:
    def test_identity_gives_zero_errors(self):
        sset = _tiny_case()
        rng = np.random.default_rng(2)
        dose = VoxelGrid(rng.random((3, 3, 3)).astype(np.float32))
        report = evaluate_plan(dose, dose, sset)
        assert all(r.percent_error == 0.0 for r in report.rows)

    def test_zero_oar_case_has_ptv_and_body_rows(self):
        sset = _tiny_case(with_oar=False)
        dose = VoxelGrid(np.full((3, 3, 3), 0.5, dtype=np.float32))
        report = evaluate_plan(dose, dose, sset)
        kinds = {r.kind for r in report.rows}
        assert kinds == {"PTV", "BODY"}
        assert len([r for r in report.rows if r.kind == "PTV"]) == 5

    def test_row_count_contract(self):
        sset = _tiny_case()
        dose = VoxelGrid(np.full((3, 3, 3), 0.5, dtype=np.float32))
        report = evaluate_plan(dose, dose, sset)
        # 5 PTV metrics + 2 OAR metrics + 2 BODY metrics
        assert len(report.rows) == 9
        assert report.rows[0].kind == "PTV"
        assert report.rows[-1].kind == "BODY"

    def test_report_round_trips_to_files(self, tmp_path):
        sset = _tiny_case()
        dose = VoxelGrid(np.full((3, 3, 3), 0.5, dtype=np.float32))
        report = evaluate_plan(dose, dose, sset)
        write_manifest(tmp_path / "r.json", report)
        assert read_manifest(tmp_path / "r.json", MetricsReport) == report

    def test_dose_of_other_dims_names_the_structure(self):
        dose = VoxelGrid(np.zeros((4, 4, 4), dtype=np.float32))
        with pytest.raises(ValidationError, match=r"^dose dims \(4, 4, 4\) do not match mask 'ptv70'"):
            evaluate_plan(dose, dose, _tiny_case())


def _write_report(level, path):
    sset = _tiny_case()
    dose = VoxelGrid(np.full((3, 3, 3), level, dtype=np.float32))
    write_manifest(path, evaluate_plan(dose, dose, sset))


@pytest.mark.parametrize("write", [_write_report], ids=["write_json"])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, write):
    path = tmp_path / "out"
    write(0.9, path)
    before = path.read_bytes()

    def replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="disk full"):
        write(0.7, path)
    assert path.read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))
