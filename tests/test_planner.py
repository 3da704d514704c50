import dataclasses
import json
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import nnls

from dosekit.errors import ValidationError
from dosekit.phantom import PatientCase, builtin_site, generate_patient
from dosekit.seeds import derive_seed
from dosekit.planner import (
    FLUENCE_FILE,
    PLAN_JSON,
    BeamConfig,
    CpParams,
    FluenceFileError,
    InfluenceMatrix,
    PlannerGeometryError,
    PlanWeights,
    SolverDivergenceError,
    _residual_sq,
    _objective_blocks,
    beamlet_weight,
    build_influence_matrix,
    estimate_operator_norm,
    generate_plans,
    load_plan,
    objective,
    sample_weights,
    save_plan,
    solve_fluence,
    solve_stacked,
)
from dosekit.volume import KernelSpec, ManifestError, StructureMask, StructureSet, VoxelGrid

from test_volume import make_mask


def pg_oracle(A, c, p, max_iters=300_000, tol=1e-14):
    """Projected gradient descent for min_{x>=0} sum_i c_i (a_i.x - p_i)^2."""
    A = np.asarray(A, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    H = 2.0 * A.T @ (c[:, None] * A)
    L = max(float(np.linalg.eigvalsh(H).max()), 1e-12)
    step = 1.0 / L
    x = np.zeros(A.shape[1])
    for _ in range(max_iters):
        g = 2.0 * A.T @ (c * (A @ x - p))
        xn = np.maximum(x - step * g, 0.0)
        if np.linalg.norm(xn - x) <= tol * max(1.0, np.linalg.norm(xn)):
            x = xn
            break
        x = xn
    obj = float(np.sum(c * (A @ x - p) ** 2))
    return x, obj


def row_space_cp_reference(M, b, params):
    """The row-space Chambolle-Pock loop that `solve_stacked` replaced: it carries
    the dual y (one entry per row of M) and makes one product each with M and M^T
    per iteration. Returns (x, iterations, converged, final objective)."""
    s = 0.95 / max(params.operator_norm, 1e-12)
    Mt = M.T.tocsr()
    x = np.zeros(M.shape[1])
    xbar = x.copy()
    y = np.zeros(M.shape[0])
    iterations = 0
    converged = False
    for it in range(1, params.max_iters + 1):
        iterations = it
        y = (y + s * (M @ xbar - b)) / (1.0 + s / 2.0)
        y[np.abs(y) < np.finfo(np.float64).tiny] = 0.0
        x_old = x
        x = np.maximum(x - s * (Mt @ y), 0.0)
        xbar = 2.0 * x - x_old
        step = float(np.linalg.norm(x - x_old))
        scale = max(float(np.linalg.norm(x)), 1e-30)
        if step / scale < params.tolerance:
            converged = True
            break
    return x, iterations, converged, _residual_sq(M, b, x)


def tight_params(norm, max_iters=50_000):
    return CpParams(operator_norm=norm, max_iters=max_iters, tolerance=1e-13)


def single_voxel_case(ptv_prescription=2.0, with_oar=False):
    body = make_mask((1, 1, 1), [(0, 0, 0)])
    ptv = make_mask((1, 1, 1), [(0, 0, 0)], kind="PTV", name="ptv", prescription=ptv_prescription)
    masks = [body, ptv]
    if with_oar:
        masks.append(make_mask((1, 1, 1), [(0, 0, 0)], kind="OAR", name="oar", impact="high"))
    sset = StructureSet(tuple(masks))
    infl = InfluenceMatrix(
        matrix=sp.csr_matrix(np.array([[1.0]])),
        voxel_indices=np.array([0], dtype=np.int64),
        dims=(1, 1, 1),
        spacing=(5.0, 5.0, 5.0),
    )
    return sset, infl


class TestBeamletWeight:
    def test_surface_axis_voxel(self):
        assert beamlet_weight(0.0, 0.0, BeamConfig()) == 1.0

    def test_depth_attenuation(self):
        assert beamlet_weight(200.0, 0.0, BeamConfig()) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_beyond_cutoff(self):
        cfg = BeamConfig()
        assert beamlet_weight(0.0, cfg.lateral_cutoff + 1.0, cfg) == 0.0

    def test_at_cutoff_included(self):
        cfg = BeamConfig()
        assert beamlet_weight(0.0, cfg.lateral_cutoff, cfg) > 0.0


class TestInfluenceMatrix:
    @pytest.fixture(scope="class")
    def case(self):
        return generate_patient(builtin_site("siteA"), 1)

    def test_entries_nonnegative(self, case):
        infl = build_influence_matrix(case, BeamConfig())
        assert infl.values.min() >= 0.0

    def test_every_ptv_voxel_reachable(self, case):
        infl = build_influence_matrix(case, BeamConfig())
        reach = np.diff(infl.matrix.indptr) > 0
        for ptv in case.structures.ptvs:
            assert reach[infl.rows_for(ptv)].all()

    def test_deterministic(self, case):
        a = build_influence_matrix(case, BeamConfig())
        b = build_influence_matrix(case, BeamConfig())
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.matrix.indices, b.matrix.indices)
        assert np.array_equal(a.voxel_indices, b.voxel_indices)

    def test_geometry_error_when_beams_miss(self, case):
        cfg = BeamConfig(beamlet_grid=(2, 2), lateral_cutoff=0.1, lateral_sigma=0.05)
        with pytest.raises(PlannerGeometryError):
            build_influence_matrix(case, cfg)


def dense_influence_reference(case, cfg):
    """The dense builder the sparse one replaced: every (step, voxel) sample and
    every (voxel, beamlet) entry of a beam at once. Test-only reference."""
    structures = case.structures
    dims = structures.dims
    spacing = np.asarray(structures.spacing, dtype=np.float64)
    body = structures.body
    body_arr = body.bool_array()
    body_idx = body.linear_indices()

    nx, ny, _ = dims
    gx = body_idx % nx
    gy = (body_idx // nx) % ny
    gz = body_idx // (nx * ny)
    centers = (np.stack([gx, gy, gz], axis=1).astype(np.float64) + 0.5) * spacing

    ptv_union = np.zeros(dims, dtype=bool)
    for ptv in structures.ptvs:
        ptv_union |= ptv.bool_array()
    ptv_pts = (np.stack(np.nonzero(ptv_union), axis=1).astype(np.float64) + 0.5) * spacing
    iso = ptv_pts.mean(axis=0)

    diag = float(np.linalg.norm(np.asarray(dims) * spacing))
    steps = np.arange(1, int(np.ceil(diag / cfg.ray_step_mm)) + 1, dtype=np.float64)
    steps *= cfg.ray_step_mm

    nu, nv = cfg.beamlet_grid
    z_rel = ptv_pts[:, 2] - iso[2]
    z_lo, z_hi = z_rel.min() - cfg.field_margin_mm, z_rel.max() + cfg.field_margin_mm
    z_offsets = np.linspace(z_lo, z_hi, nv)

    blocks = []
    for b in range(cfg.n_beams):
        phi = 2.0 * np.pi * b / cfg.n_beams
        d = np.array([np.cos(phi), np.sin(phi), 0.0])
        u = np.array([-np.sin(phi), np.cos(phi), 0.0])

        pu_ptv = (ptv_pts - iso) @ u
        u_lo, u_hi = pu_ptv.min() - cfg.field_margin_mm, pu_ptv.max() + cfg.field_margin_mm
        u_offsets = np.linspace(u_lo, u_hi, nu)

        pos = centers[None, :, :] - steps[:, None, None] * d[None, None, :]
        cell = np.floor(pos / spacing).astype(np.int64)
        valid = np.all((cell >= 0) & (cell < np.asarray(dims)), axis=2)
        cell_clipped = np.clip(cell, 0, np.asarray(dims) - 1)
        inside = body_arr[cell_clipped[..., 0], cell_clipped[..., 1], cell_clipped[..., 2]]
        depth = cfg.ray_step_mm * (inside & valid).sum(axis=0).astype(np.float64)

        pu = (centers - iso) @ u
        pz = centers[:, 2] - iso[2]
        uu, zz = np.meshgrid(u_offsets, z_offsets, indexing="ij")
        r2 = (pu[:, None] - uu.ravel()[None, :]) ** 2 + (pz[:, None] - zz.ravel()[None, :]) ** 2
        block = np.exp(-cfg.attenuation_mu * depth)[:, None] * np.exp(
            -r2 / (2.0 * cfg.lateral_sigma**2)
        )
        block[r2 > cfg.lateral_cutoff**2] = 0.0
        blocks.append(sp.csr_matrix(block))
    return sp.hstack(blocks, format="csr")


def assert_same_csr(actual, expected):
    for name in ("indptr", "indices", "data"):
        a, e = getattr(actual, name), getattr(expected, name)
        assert a.dtype == e.dtype, name
        assert a.tobytes() == e.tobytes(), name


def with_full_grid_body(case):
    """`case` with every grid voxel in the body, so rays leave the body box at the grid edge."""
    body = case.structures.body
    full = VoxelGrid(body.mask.dims, body.mask.spacing, np.ones(body.mask.dims, dtype=np.float32))
    others = tuple(s for s in case.structures.structures if s is not body)
    structures = StructureSet((StructureMask(body.name, body.kind, full), *others))
    return PatientCase(case.id, structures, case.site_id, case.seed)


def scaled_site(spec, factor):
    """`spec` with kernel dims, shape radii and jitter scaled by `factor`; spacing kept."""
    pal = spec.shape_palette

    def scale(pair):
        return (pair[0] * factor, pair[1] * factor)

    palette = dataclasses.replace(
        pal,
        body_radius_mm=tuple(scale(r) for r in pal.body_radius_mm),
        body_center_jitter_mm=pal.body_center_jitter_mm * factor,
        ptv_radius_mm=scale(pal.ptv_radius_mm),
        ptv_center_jitter_mm=pal.ptv_center_jitter_mm * factor,
        oar_radius_mm=scale(pal.oar_radius_mm),
    )
    kernel = KernelSpec(tuple(round(d * factor) for d in spec.kernel.dims))
    return dataclasses.replace(spec, kernel=kernel, shape_palette=palette)


class TestInfluenceMatchesDenseReference:
    @pytest.mark.parametrize("site", ["siteA", "siteB"])
    @pytest.mark.parametrize("patient", [1, 2])
    def test_desk_patients(self, site, patient):
        case = generate_patient(builtin_site(site), patient)
        cfg = BeamConfig()
        assert_same_csr(build_influence_matrix(case, cfg).matrix,
                        dense_influence_reference(case, cfg))

    def test_body_touching_grid_boundary(self):
        case = with_full_grid_body(generate_patient(builtin_site("siteA"), 1))
        cfg = BeamConfig()
        assert_same_csr(build_influence_matrix(case, cfg).matrix,
                        dense_influence_reference(case, cfg))

    @pytest.mark.parametrize("cfg", [
        # cos(pi/2) is about 6e-17, not 0: rays of beam 1 drift across x very slowly
        BeamConfig(n_beams=4, beamlet_grid=(5, 3), ray_step_mm=4.0),
        # entries beyond about 39 mm inside the cutoff underflow to 0 and are dropped
        BeamConfig(lateral_sigma=1.0, lateral_cutoff=200.0),
    ], ids=["four-beams-long-step", "underflow-inside-cutoff"])
    def test_non_default_beams(self, cfg):
        case = generate_patient(builtin_site("siteB"), 1)
        assert_same_csr(build_influence_matrix(case, cfg).matrix,
                        dense_influence_reference(case, cfg))


def python_ray_depth(case, voxel, d, step_mm):
    """Depth of one voxel by a scalar march: step_mm per upstream sample in the body."""
    dims = case.structures.dims
    spacing = case.structures.spacing
    body = case.structures.body.bool_array()
    center = [(g + 0.5) * h for g, h in zip(voxel, spacing)]
    diag = math.sqrt(sum((n * h) ** 2 for n, h in zip(dims, spacing)))
    count = 0
    for k in range(1, math.ceil(diag / step_mm) + 1):
        s = k * step_mm
        cell = [math.floor((c - s * dj) / h) for c, dj, h in zip(center, d, spacing)]
        if all(0 <= i < n for i, n in zip(cell, dims)) and body[tuple(cell)]:
            count += 1
    return step_mm * count


class TestInfluenceEntries:
    def test_entries_match_beamlet_weight(self):
        case = generate_patient(builtin_site("siteA"), 1)
        cfg = BeamConfig()
        infl = build_influence_matrix(case, cfg)
        spacing = np.asarray(case.spacing)
        nx, ny, _ = case.dims
        ptv_union = np.zeros(case.dims, dtype=bool)
        for ptv in case.structures.ptvs:
            ptv_union |= ptv.bool_array()
        ptv_pts = (np.argwhere(ptv_union) + 0.5) * spacing
        iso = ptv_pts.mean(axis=0)
        nu, nv = cfg.beamlet_grid
        z_rel = ptv_pts[:, 2] - iso[2]
        z_offsets = np.linspace(z_rel.min() - cfg.field_margin_mm,
                                z_rel.max() + cfg.field_margin_mm, nv)

        coo = infl.matrix.tocoo()
        picks = np.random.default_rng(0).choice(coo.nnz, size=12, replace=False)
        for row, col, value in zip(coo.row[picks], coo.col[picks], coo.data[picks]):
            b, iu, iv = col // (nu * nv), (col // nv) % nu, col % nv
            phi = 2.0 * np.pi * b / cfg.n_beams
            d = (float(np.cos(phi)), float(np.sin(phi)), 0.0)
            u = np.array([-np.sin(phi), np.cos(phi), 0.0])
            pu_ptv = (ptv_pts - iso) @ u
            u_offset = np.linspace(pu_ptv.min() - cfg.field_margin_mm,
                                   pu_ptv.max() + cfg.field_margin_mm, nu)[iu]
            idx = int(infl.voxel_indices[row])
            voxel = (idx % nx, (idx // nx) % ny, idx // (nx * ny))
            rel = (np.asarray(voxel) + 0.5) * spacing - iso
            lateral = math.hypot(rel @ u - u_offset, rel[2] - z_offsets[iv])
            depth = python_ray_depth(case, voxel, d, cfg.ray_step_mm)
            assert value == pytest.approx(beamlet_weight(depth, lateral, cfg), rel=1e-12)


def test_influence_build_memory_at_64x64x32():
    case = generate_patient(scaled_site(builtin_site("siteA"), 2), 1)
    assert case.dims == (64, 64, 32)
    tracemalloc.start()
    try:
        build_influence_matrix(case, BeamConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 150 * 2**20


class TestObjective:
    def test_exact_fit_is_zero(self):
        sset, infl = single_voxel_case(ptv_prescription=2.0)
        w = PlanWeights(weights={"ptv": 1.0})
        assert objective(infl, sset, w, np.array([2.0])) == pytest.approx(0.0, abs=1e-30)

    def test_hand_value(self):
        sset, infl = single_voxel_case(ptv_prescription=2.0)
        w = PlanWeights(weights={"ptv": 1.0})
        assert objective(infl, sset, w, np.array([0.0])) == pytest.approx(4.0)

    def test_linear_in_weights(self):
        sset, infl = single_voxel_case(ptv_prescription=2.0, with_oar=True)
        x = np.array([0.7])
        w1 = PlanWeights(weights={"ptv": 1.0, "oar": 0.5})
        w2 = PlanWeights(weights={"ptv": 2.0, "oar": 1.0})
        assert objective(infl, sset, w2, x) == pytest.approx(2.0 * objective(infl, sset, w1, x))


class TestSolveFluence:
    def test_unconstrained_minimum(self):
        sset, infl = single_voxel_case(ptv_prescription=2.0)
        w = PlanWeights(weights={"ptv": 1.0})
        plan = solve_fluence(infl, sset, w, max_iters=50_000, tolerance=1e-13)
        assert plan.fluence[0] == pytest.approx(2.0, abs=1e-6)

    def test_kkt_residual_at_unconstrained_minimum(self):
        sset, infl = single_voxel_case(ptv_prescription=2.0)
        w = PlanWeights(weights={"ptv": 1.0})
        plan = solve_fluence(infl, sset, w, max_iters=50_000, tolerance=1e-13)
        assert plan.diagnostics.kkt_residual < 1e-6

    def test_kkt_residual_of_desk_plan(self):
        case = generate_patient(builtin_site("siteA"), 2)
        infl = build_influence_matrix(case, BeamConfig())
        w = sample_weights(case.structures, seed=3)
        plan = solve_fluence(infl, case.structures, w, seed=3)
        # the same residual from M itself, without the Gram matrix
        M, b = _objective_blocks(infl, case.structures, w)
        x = plan.fluence
        grad = 2.0 * (M.T @ (M @ x - b))
        expected = float(np.linalg.norm(x - np.maximum(x - grad, 0.0)))
        assert 0.0 < plan.diagnostics.kkt_residual < np.inf
        assert plan.diagnostics.kkt_residual == pytest.approx(expected, rel=1e-6)

    def test_two_structure_balance(self):
        sset, infl = single_voxel_case(ptv_prescription=1.0, with_oar=True)
        w = PlanWeights(weights={"ptv": 1.0, "oar": 1.0})
        plan = solve_fluence(infl, sset, w, max_iters=50_000, tolerance=1e-13)
        assert plan.fluence[0] == pytest.approx(0.5, abs=1e-6)

    def test_two_structure_weighted(self):
        sset, infl = single_voxel_case(ptv_prescription=1.0, with_oar=True)
        w = PlanWeights(weights={"ptv": 1.0, "oar": 3.0})
        plan = solve_fluence(infl, sset, w, max_iters=50_000, tolerance=1e-13)
        assert plan.fluence[0] == pytest.approx(0.25, abs=1e-6)

    def test_divergence_reports_iteration(self):
        sset, infl = single_voxel_case(ptv_prescription=1.0)
        w = PlanWeights(weights={"ptv": 1.0})
        # lie about the operator norm so the steps blow up
        bad = CpParams(operator_norm=1e-3, max_iters=5000)
        M, b = _objective_blocks(infl, sset, w)
        with pytest.raises(SolverDivergenceError) as exc:
            solve_stacked(M, b, bad)
        assert exc.value.iteration >= 1

    def test_descent_diagnostics(self):
        case = generate_patient(builtin_site("siteA"), 2)
        infl = build_influence_matrix(case, BeamConfig())
        w = sample_weights(case.structures, seed=3)
        plan = solve_fluence(infl, case.structures, w, seed=3)
        d = plan.diagnostics
        assert d.final_objective <= d.objective_at_zero
        assert d.final_objective <= d.objective_at_mid * (1.0 + 1e-6) + 1e-12
        assert plan.fluence.min() >= 0.0
        assert plan.dose.data.min() >= 0.0


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_projected_gradient(self, seed):
        rng = np.random.default_rng(1000 + seed)
        m = int(rng.integers(5, 51))
        n = int(rng.integers(2, 21))
        A = rng.random((m, n)) * (rng.random((m, n)) < 0.7)
        n_blocks = int(rng.integers(1, 4))
        edges = np.sort(rng.choice(np.arange(1, m), size=n_blocks - 1, replace=False)) if n_blocks > 1 else []
        bounds = [0, *edges, m]
        c = np.empty(m)
        p = np.empty(m)
        for bi in range(n_blocks):
            lo, hi = bounds[bi], bounds[bi + 1]
            w = float(rng.uniform(0.01, 1.0))
            c[lo:hi] = w / (hi - lo)
            p[lo:hi] = float(rng.uniform(0.5, 1.0)) if bi == 0 else 0.0
        M = sp.csr_matrix(np.sqrt(c)[:, None] * A)
        norm = estimate_operator_norm(M, seed=seed)
        x_cp, diag = solve_stacked(M, np.sqrt(c) * p, tight_params(norm, max_iters=100_000))
        _, obj_pg = pg_oracle(A, c, p)
        assert diag.final_objective == pytest.approx(obj_pg, rel=1e-6, abs=1e-12)


class TestGramFormMatchesRowSpace:
    @pytest.mark.parametrize("site", ["siteA", "siteB"])
    def test_desk_plans(self, site):
        case = generate_patient(builtin_site(site), 1)
        infl = build_influence_matrix(case, BeamConfig())
        for i in range(3):
            weights = sample_weights(case.structures, seed=derive_seed(0, "weights", i))
            M, b = _objective_blocks(infl, case.structures, weights)
            params = CpParams(estimate_operator_norm(M, derive_seed(0, "operator-norm")), 2000)
            x, diag = solve_stacked(M, b, params)
            x_ref, iterations, converged, obj_ref = row_space_cp_reference(M, b, params)
            assert (diag.iterations, diag.converged) == (iterations, converged)
            assert np.abs(x - x_ref).max() <= 1e-9 * np.abs(x_ref).max()
            assert diag.final_objective == pytest.approx(obj_ref, rel=1e-10, abs=0.0)


class TestSampleWeights:
    def test_range_containment(self):
        case = generate_patient(builtin_site("siteB"), 0)
        w = sample_weights(case.structures, (0.01, 1.0), seed=5)
        for oar in case.structures.oars:
            assert 0.01 <= w[oar.name] <= 1.0
        for ptv in case.structures.ptvs:
            assert w[ptv.name] == 1.0

    def test_deterministic(self):
        case = generate_patient(builtin_site("siteA"), 0)
        assert sample_weights(case.structures, seed=9).weights == sample_weights(
            case.structures, seed=9
        ).weights

    def test_collapsed_interval(self):
        case = generate_patient(builtin_site("siteA"), 0)
        w = sample_weights(case.structures, (0.5, 0.5), seed=1)
        assert all(w[o.name] == 0.5 for o in case.structures.oars)


class TestGeneratePlans:
    @pytest.fixture(scope="class")
    def case(self):
        return generate_patient(builtin_site("siteA"), 4)

    def test_eight_distinct_weight_samples(self, case):
        plans = generate_plans(case, BeamConfig(), 8, seed=2, max_iters=50)
        assert len(plans) == 8
        samples = {tuple(sorted(p.weights.weights.items())) for p in plans}
        assert len(samples) == 8

    def test_deterministic(self, case):
        a = generate_plans(case, BeamConfig(), 2, seed=6, max_iters=100)
        b = generate_plans(case, BeamConfig(), 2, seed=6, max_iters=100)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.fluence, pb.fluence)
            assert pa.dose.identical(pb.dose)

    def test_single_plan_matches_direct_solve(self, case):
        plans = generate_plans(case, BeamConfig(), 1, seed=8, max_iters=200)
        infl = build_influence_matrix(case, BeamConfig())
        weights = sample_weights(case.structures, seed=derive_seed(8, "weights", 0))
        direct = solve_fluence(infl, case.structures, weights, max_iters=200, seed=8,
                               patient_id=case.id)
        assert np.array_equal(plans[0].fluence, direct.fluence)

    def test_dose_zero_outside_body(self, case):
        plan = generate_plans(case, BeamConfig(), 1, seed=3, max_iters=100)[0]
        outside = ~case.structures.body.bool_array()
        assert np.all(plan.dose.data[outside] == 0.0)


def scaled_dense_rows(infl, structures, weights):
    """Rows sqrt(w_s / N_s) * A_s and targets sqrt(w_s / N_s) * p_s, dense."""
    blocks, targets = [], []
    for s in (*structures.ptvs, *structures.oars):
        rows = infl.rows_for(s)
        scale = math.sqrt(weights[s.name] / rows.size)
        blocks.append(scale * infl.matrix[rows].toarray())
        targets.append(np.full(rows.size, scale * (s.prescription if s.kind == "PTV" else 0.0)))
    return np.vstack(blocks), np.concatenate(targets)


class TestGapToExactOptimum:
    @pytest.mark.parametrize("site", ["siteA", "siteB"])
    def test_default_plans_within_ten_percent_of_nnls(self, site):
        case = generate_patient(builtin_site(site), 1)
        infl = build_influence_matrix(case, BeamConfig())
        for plan in generate_plans(case, BeamConfig(), 3, seed=0):
            M, b = scaled_dense_rows(infl, case.structures, plan.weights)
            _, rnorm = nnls(M, b)
            assert plan.diagnostics.final_objective <= 1.10 * rnorm**2


class TestParetoMonotonicity:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mean_dose_nonincreasing_in_weight(self, seed):
        case = generate_patient(builtin_site("siteA"), seed)
        infl = build_influence_matrix(case, BeamConfig())
        oar = case.structures.oars[0]
        means = []
        for w_oar in (0.05, 1.0):
            weights = {s.name: 0.3 for s in case.structures.oars}
            weights[oar.name] = w_oar
            for ptv in case.structures.ptvs:
                weights[ptv.name] = 1.0
            pw = PlanWeights(weights=weights)
            plan = solve_fluence(infl, case.structures, pw, max_iters=20_000, tolerance=1e-13)
            means.append(float(plan.dose.data[oar.bool_array()].astype(np.float64).mean()))
        assert means[1] <= means[0] + 1e-9


class TestPlanPersistence:
    def test_round_trip(self, tmp_path):
        case = generate_patient(builtin_site("siteA"), 5)
        plan = generate_plans(case, BeamConfig(), 1, seed=1, max_iters=100)[0]
        save_plan(tmp_path / "plan_000", plan)
        loaded = load_plan(tmp_path / "plan_000")
        assert loaded.patient_id == plan.patient_id
        assert loaded.index == plan.index
        assert loaded.weights.weights == plan.weights.weights
        assert loaded.dose.identical(plan.dose)
        assert np.array_equal(
            loaded.fluence, np.asarray(plan.fluence, dtype="<f4").astype(np.float64)
        )
        assert loaded.diagnostics == plan.diagnostics


    def test_kkt_residual_saved(self, tmp_path):
        case = generate_patient(builtin_site("siteA"), 5)
        plan = generate_plans(case, BeamConfig(), 1, seed=1, max_iters=100)[0]
        save_plan(tmp_path, plan)
        saved = json.loads((tmp_path / PLAN_JSON).read_text())["diagnostics"]["kkt_residual"]
        assert saved == plan.diagnostics.kkt_residual > 0.0
        assert load_plan(tmp_path).diagnostics.kkt_residual == plan.diagnostics.kkt_residual

    @pytest.mark.parametrize("name", [FLUENCE_FILE, PLAN_JSON])
    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch, name):
        case = generate_patient(builtin_site("siteA"), 5)
        first, second = generate_plans(case, BeamConfig(), 2, seed=1, max_iters=20)
        save_plan(tmp_path, first)
        before = (tmp_path / name).read_bytes()
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst).name == name:
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="disk full"):
            save_plan(tmp_path, second)
        assert (tmp_path / name).read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))


def append_byte(directory):
    with open(directory / FLUENCE_FILE, "ab") as fh:
        fh.write(b"\0")


def drop_last_value(directory):
    path = directory / FLUENCE_FILE
    path.write_bytes(path.read_bytes()[:-4])


def all_nan(directory):
    path = directory / FLUENCE_FILE
    path.write_bytes(np.full(len(path.read_bytes()) // 4, np.nan, dtype="<f4").tobytes())


def broken_json(directory):
    (directory / PLAN_JSON).write_text('{"patient_id": ')


def empty_object(directory):
    (directory / PLAN_JSON).write_text("{}")


def bad_diagnostics(directory):
    path = directory / PLAN_JSON
    path.write_text(path.read_text().replace('"diagnostics": {', '"diagnostics": {"extra": 1, ', 1))


class TestCorruptPlanFiles:
    @pytest.fixture(scope="class")
    def plan(self):
        case = generate_patient(builtin_site("siteA"), 5)
        return generate_plans(case, BeamConfig(), 1, seed=1, max_iters=20)[0]

    @pytest.mark.parametrize("corrupt, error", [
        (append_byte, FluenceFileError),
        (drop_last_value, FluenceFileError),
        (all_nan, ValidationError),
        (broken_json, ManifestError),
        (empty_object, ManifestError),
        (bad_diagnostics, ManifestError),
    ], ids=lambda v: getattr(v, "__name__", ""))
    def test_maps_to_typed_error(self, plan, tmp_path, corrupt, error):
        save_plan(tmp_path, plan)
        corrupt(tmp_path)
        with pytest.raises(error):
            load_plan(tmp_path)
