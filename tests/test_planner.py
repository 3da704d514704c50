import concurrent.futures
import dataclasses
import functools
import inspect
import json
import math
import multiprocessing
import os
import pickle
import re
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import dsymv
from scipy.optimize import nnls

from dosekit import cli, evaluation, phantom, planner, volume
from dosekit.errors import DosekitError, ValidationError
from dosekit.phantom import PatientCase, builtin_site, generate_patient
from dosekit.seeds import derive_seed
from dosekit.planner import (
    DOSE_FILE,
    FLUENCE_FILE,
    PLAN_JSON,
    KKT_RTOL,
    WEIGHT_BOUNDS,
    BeamConfig,
    InfluenceMatrix,
    PlanDiagnostics,
    PlanManifest,
    PlannerGeometryError,
    PlanWeights,
    SolverDivergenceError,
    _gram,
    _residual_sq,
    beamlet_kernel,
    build_influence_matrix,
    estimate_operator_norm,
    generate_plans,
    load_plan,
    objective,
    objective_rows,
    sample_weights,
    save_plan,
    solve_fluence,
    solve_stacked,
)
from dosekit.volume import (SPACING_MM, FileFormatError, KernelSpec, MissingFileError,
                            StructureMask, StructureSet, VoxelGrid)

from test_volume import JSON_VALUES, hand_built_plan, make_mask, without_version


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


def row_space_cp_reference(M, b, operator_norm, max_iters):
    """The row-space Chambolle-Pock loop that `solve_stacked` replaced: it carries
    the dual y (one entry per row of M) and makes one product each with M and M^T
    per iteration, for exactly `max_iters` iterations, as `solve_stacked` does.
    Returns (x, iterations run, final objective)."""
    s = 0.95 / max(operator_norm, 1e-12)
    Mt = M.T.tocsr()
    x = np.zeros(M.shape[1])
    xbar = x.copy()
    y = np.zeros(M.shape[0])
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        y = (y + s * (M @ xbar - b)) / (1.0 + s / 2.0)
        y[np.abs(y) < np.finfo(np.float64).tiny] = 0.0
        x_old = x
        x = np.maximum(x - s * (Mt @ y), 0.0)
        xbar = 2.0 * x - x_old
    return x, iterations, _residual_sq(M, b, x)


def plain_cp_reference(M, b, G, c, operator_norm, max_iters):
    """`solve_stacked` without its block check and in-place buffers: the same
    arithmetic, w = s M^T y updated by one dsymv per iteration (on the upper
    triangle G that `_gram` returns), out of place, with a finiteness check after
    every iteration."""
    s = 0.95 / max(operator_norm, 1e-12)
    a = 1.0 / (1.0 + s / 2.0)
    ssa = s * s * a
    x = np.zeros(M.shape[1])
    xbar = x.copy()
    w = np.zeros(M.shape[1])
    for it in range(1, max_iters + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            w = dsymv(ssa, G, xbar, beta=a, y=w) - ssa * c
            x_old = x
            x = np.maximum(x - w, 0.0)
            xbar = x + (x - x_old)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
            raise SolverDivergenceError(it)
    grad = 2.0 * (dsymv(1.0, G, x) - c)
    kkt = float(np.linalg.norm(x - np.maximum(x - grad, 0.0)))
    return x, PlanDiagnostics(
        iterations=max_iters,
        converged=kkt <= KKT_RTOL * float(np.linalg.norm(2.0 * c)),
        final_objective=_residual_sq(M, b, x),
        objective_at_zero=float(b @ b),
        operator_norm=operator_norm,
        kkt_residual=kkt,
    )


def reference_divergence(M, b, operator_norm, max_iters):
    """The iteration at which `plain_cp_reference` reports divergence."""
    with pytest.raises(SolverDivergenceError) as exc:
        plain_cp_reference(M, b, *_gram(M, b), operator_norm, max_iters)
    return exc.value.iteration


def sparse_power_norm_reference(M, iters=50):
    """The power iteration `estimate_operator_norm` replaced: one product each with
    M and M^T per step instead of one with G = M^T M, from the same all-ones start."""
    v = np.ones(M.shape[1]) / np.sqrt(M.shape[1])
    lam = 0.0
    for _ in range(iters):
        w = M.T @ (M @ v)
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 0.0
        v = w / lam
    return float(np.sqrt(lam))


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
    )
    return sset, infl


class TestBeamletWeight:
    def test_surface_axis_voxel(self):
        assert beamlet_kernel(0.0, 0.0, BeamConfig()) == 1.0

    def test_depth_attenuation(self):
        assert beamlet_kernel(200.0, 0.0, BeamConfig()) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_at_cutoff_included(self):
        cfg = BeamConfig()
        assert beamlet_kernel(0.0, cfg.lateral_cutoff**2, cfg) > 0.0


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(BeamConfig)
                                   if f.type == "float"])
def test_beam_config_rejects_non_finite(field, value):
    with pytest.raises(ValidationError, match="finite"):
        BeamConfig(**{field: value})


@pytest.mark.parametrize("counts", [
    {"n_beams": 7.5}, {"n_beams": 7.0}, {"n_beams": True}, {"n_beams": 0}, {"n_beams": -3},
    {"beamlet_grid": (8.5, 6)}, {"beamlet_grid": (8, 6.0)}, {"beamlet_grid": (True, 6)},
    {"beamlet_grid": (8, 0)}, {"beamlet_grid": (8,)}, {"beamlet_grid": (8, 6, 1)},
], ids=lambda d: f"{next(iter(d))}={next(iter(d.values()))}")
def test_beam_config_counts_are_positive_integers(counts):
    # unchecked, a float count raises a bare TypeError inside the influence build,
    # and True builds one beam
    with pytest.raises(ValidationError, match="positive integer count"):
        BeamConfig(**counts)


def test_beam_config_takes_numpy_integer_counts():
    cfg = BeamConfig(n_beams=np.int64(5), beamlet_grid=(np.int32(4), 3))
    assert cfg == BeamConfig(n_beams=5, beamlet_grid=(4, 3))
    assert type(cfg.n_beams) is int and all(type(n) is int for n in cfg.beamlet_grid)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1.0],
                         ids=["nan", "inf", "-inf", "negative"])
def test_influence_matrix_rejects_bad_entries(value):
    with pytest.raises(ValidationError, match="finite and nonnegative"):
        InfluenceMatrix(sp.csr_matrix(np.array([[value, 1.0]])), np.array([0]), (1, 1, 1))


class TestInfluenceMatrix:
    @pytest.fixture(scope="class")
    def case(self):
        return generate_patient(builtin_site("siteA"), 1)

    def test_entries_nonnegative(self, case):
        infl = build_influence_matrix(case, BeamConfig())
        assert infl.matrix.data.min() >= 0.0

    def test_every_ptv_voxel_reachable(self, case):
        infl = build_influence_matrix(case, BeamConfig())
        reach = np.diff(infl.matrix.indptr) > 0
        for ptv in case.structures.ptvs:
            assert reach[infl.rows_for(ptv)].all()

    def test_deterministic(self, case):
        a = build_influence_matrix(case, BeamConfig())
        b = build_influence_matrix(case, BeamConfig())
        assert np.array_equal(a.matrix.data, b.matrix.data)
        assert np.array_equal(a.matrix.indices, b.matrix.indices)
        assert np.array_equal(a.voxel_indices, b.voxel_indices)

    def test_row_count_must_match_the_voxel_map(self):
        with pytest.raises(ValidationError, match="^row count must match the voxel index map$"):
            InfluenceMatrix(sp.csr_matrix((2, 1)), np.arange(3), (3, 1, 1))

    @pytest.mark.parametrize("voxel", [(1, 0, 0), (3, 0, 0)], ids=["between-rows", "past-rows"])
    def test_rows_for_refuses_voxels_outside_the_body_rows(self, voxel):
        infl = InfluenceMatrix(sp.csr_matrix((2, 1)), np.array([0, 2]), (4, 1, 1))
        with pytest.raises(ValidationError,
                           match="^structure 'ptv' has voxels outside the body rows$"):
            infl.rows_for(make_mask((4, 1, 1), [voxel], kind="PTV", name="ptv",
                                    prescription=1.0))

    def test_geometry_error_when_beams_miss(self, case):
        cfg = BeamConfig(beamlet_grid=(2, 2), lateral_cutoff=0.1, lateral_sigma=0.05)
        with pytest.raises(PlannerGeometryError):
            build_influence_matrix(case, cfg)


def dense_influence_reference(case, cfg):
    """The dense builder the sparse one replaced: every (step, voxel) sample and
    every (voxel, beamlet) entry of a beam at once. Test-only reference."""
    structures = case.structures
    dims = structures.dims
    spacing = np.asarray(SPACING_MM, dtype=np.float64)
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
    full = VoxelGrid(np.ones(body.mask.dims))
    others = tuple(s for s in case.structures.structures if s is not body)
    structures = StructureSet((StructureMask(body.name, body.kind, full), *others))
    return PatientCase(structures, case.site, case.seed)


def with_body_cavity(case):
    """`case` with an air cavity carved out of the body on the -x side of the PTVs, in
    four z-slices only and clear of every PTV and OAR voxel. Rays of beams from -x
    leave the body and re-enter it, so one (x, y) column's depth differs by z."""
    structures = case.structures
    body = structures.body
    body_arr = body.bool_array()
    targets = np.zeros(case.structures.dims, dtype=bool)
    for s in (*structures.ptvs, *structures.oars):
        targets |= s.bool_array()
    cavity = np.zeros(case.structures.dims, dtype=bool)
    cavity[6:11, 8:21, 6:10] = True
    cavity &= body_arr & ~targets & body_arr[5][None]  # body upstream of the slab
    assert cavity.any()
    carved = VoxelGrid(body_arr & ~cavity)
    others = tuple(s for s in structures.structures if s is not body)
    return PatientCase(StructureSet((StructureMask(body.name, body.kind, carved), *others)),
                       case.site, case.seed)


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


# Narrow fields: each beam reaches fewer than half of the body's (x, y) columns, so
# the march skips most columns and the near rows are a minority of the body rows.
NARROW_FIELDS = [
    BeamConfig(beamlet_grid=(16, 12), lateral_sigma=2.0, lateral_cutoff=4.0, field_margin_mm=1.0),
    BeamConfig(n_beams=5, beamlet_grid=(16, 12), lateral_sigma=2.0, lateral_cutoff=4.0,
               field_margin_mm=0.25, ray_step_mm=3.0),
]


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
        BeamConfig(),
        BeamConfig(n_beams=4, beamlet_grid=(5, 3), ray_step_mm=4.0),
    ], ids=["default", "four-beams-long-step"])
    def test_body_with_cavity(self, cfg):
        case = with_body_cavity(generate_patient(builtin_site("siteB"), 1))
        assert_same_csr(build_influence_matrix(case, cfg).matrix,
                        dense_influence_reference(case, cfg))

    @pytest.mark.parametrize("cfg", [
        # cos(pi/2) is about 6e-17, not 0: rays of beam 1 drift across x very slowly
        BeamConfig(n_beams=4, beamlet_grid=(5, 3), ray_step_mm=4.0),
        # entries beyond about 39 mm inside the cutoff underflow to 0 and are dropped
        BeamConfig(lateral_sigma=1.0, lateral_cutoff=200.0),
        # the first sample of every ray already lies outside the body box: depth 0
        BeamConfig(ray_step_mm=1000.0),
    ], ids=["four-beams-long-step", "underflow-inside-cutoff", "first-step-leaves-box"])
    def test_non_default_beams(self, cfg):
        case = generate_patient(builtin_site("siteB"), 1)
        assert_same_csr(build_influence_matrix(case, cfg).matrix,
                        dense_influence_reference(case, cfg))

    @pytest.mark.parametrize("cfg, reached", [
        # one axial beamlet, at the bottom of the field (a shorter cutoff leaves PTV
        # voxels unreached): each level reaches it or not
        (BeamConfig(beamlet_grid=(8, 1), lateral_cutoff=45.0),
         lambda n, nv: n.max() == nv == 1 and n.min() == 0),
        # a cutoff below the z spacing: some box z levels reach no axial beamlet, and
        # none reaches more than 2 of 12
        (NARROW_FIELDS[0], lambda n, nv: n.max() == 2 < nv and n.min() == 0),
        # a cutoff beyond the field's z extent: every level reaches every beamlet
        (BeamConfig(lateral_cutoff=60.0), lambda n, nv: n.min() == nv),
    ], ids=["one-axial-beamlet", "levels-reach-none", "levels-reach-all"])
    def test_axial_window_edges(self, cfg, reached, monkeypatch):
        windows = []
        axial_windows = planner._axial_windows
        monkeypatch.setattr(planner, "_axial_windows",
                            lambda *args: windows.append(axial_windows(*args)) or windows[-1])
        case = generate_patient(builtin_site("siteB"), 1)
        assert_same_csr(build_influence_matrix(case, cfg).matrix,
                        dense_influence_reference(case, cfg))
        (_, window_dz2), = windows
        # the axial beamlets each box z level reaches (every lateral beamlet's row
        # of a level holds the same window)
        assert reached(np.isfinite(window_dz2).sum(axis=1), cfg.beamlet_grid[1])


def column_march_reference(case, cfg):
    """An older builder: a march one step at a time over the (x, y) columns whose
    rays are still in the box, and a dense (near row x beamlet) r^2 per beam.
    Test-only reference where the dense one would not fit."""
    structures = case.structures
    dims = structures.dims
    spacing = np.asarray(SPACING_MM, dtype=np.float64)
    body = structures.body
    body_arr = body.bool_array()
    body_idx = body.linear_indices()

    nx, ny, _ = dims
    gx = body_idx % nx
    gy = (body_idx // nx) % ny
    gz = body_idx // (nx * ny)
    cells = np.stack([gx, gy, gz], axis=1)
    centers = (cells.astype(np.float64) + 0.5) * spacing
    box_lo, box_hi = cells.min(axis=0), cells.max(axis=0)

    col_keys, col_of = np.unique(gx + nx * gy, return_inverse=True)
    col_centers = (np.stack([col_keys % nx, col_keys // nx], axis=1) + 0.5) * spacing[:2]
    body_z = body_arr[:, :, box_lo[2]:box_hi[2] + 1]
    z_in_box = gz - box_lo[2]

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
    pz = centers[:, 2] - iso[2]
    dz2 = (pz[:, None] - z_offsets[None, :]) ** 2
    field_dz = np.maximum(np.maximum(z_offsets[0] - pz, pz - z_offsets[-1]), 0.0)
    near_cutoff2 = (1.01 * cfg.lateral_cutoff) ** 2

    rows, cols, vals = [], [], []
    for b in range(cfg.n_beams):
        phi = 2.0 * np.pi * b / cfg.n_beams
        d = np.array([np.cos(phi), np.sin(phi), 0.0])
        u = np.array([-np.sin(phi), np.cos(phi), 0.0])

        pu_ptv = (ptv_pts - iso) @ u
        u_lo, u_hi = pu_ptv.min() - cfg.field_margin_mm, pu_ptv.max() + cfg.field_margin_mm
        u_offsets = np.linspace(u_lo, u_hi, nu)

        count = np.zeros((col_keys.size, body_z.shape[2]), dtype=np.int64)
        active = np.arange(col_keys.size)
        for s in steps:
            cell = np.floor((col_centers[active] - s * d[:2]) / spacing[:2]).astype(np.int64)
            in_box = np.all((cell >= box_lo[:2]) & (cell <= box_hi[:2]), axis=1)
            if not in_box.all():
                active, cell = active[in_box], cell[in_box]
                if not active.size:
                    break
            count[active] += body_z[cell[:, 0], cell[:, 1]]
        depth = cfg.ray_step_mm * count[col_of, z_in_box].astype(np.float64)

        pu = (centers - iso) @ u
        field_du = np.maximum(np.maximum(u_offsets[0] - pu, pu - u_offsets[-1]), 0.0)
        near = np.flatnonzero(field_du**2 + field_dz**2 <= near_cutoff2)
        r2 = ((pu[near, None] - u_offsets[None, :]) ** 2)[:, :, None] + dz2[near, None, :]
        r2 = r2.reshape(near.size, nu * nv)
        row, col = np.nonzero(r2 <= cfg.lateral_cutoff**2)
        rows.append(near[row])
        cols.append(col + b * nu * nv)
        vals.append(beamlet_kernel(depth[near[row]], r2[row, col], cfg))

    matrix = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(body_idx.size, cfg.n_beams * nu * nv),
    )
    matrix.eliminate_zeros()
    return matrix


def columns_reached(infl, cfg):
    """Per beam, the share of the body's (x, y) columns that hold an entry of the beam."""
    nx, ny, _ = infl.dims
    column = infl.voxel_indices % (nx * ny)
    width = cfg.beamlet_grid[0] * cfg.beamlet_grid[1]
    beam_of = infl.matrix.indices // width
    row_of = np.repeat(np.arange(infl.matrix.shape[0]), np.diff(infl.matrix.indptr))
    return [np.unique(column[row_of[beam_of == b]]).size / np.unique(column).size
            for b in range(cfg.n_beams)]


class TestFieldLimitedMarch:
    @pytest.mark.parametrize("site", ["siteA", "siteB"])
    @pytest.mark.parametrize("patient", [1, 2])
    def test_narrow_field_matches_dense_reference(self, site, patient):
        case = generate_patient(builtin_site(site), patient)
        cfg = NARROW_FIELDS[0]
        infl = build_influence_matrix(case, cfg)
        assert max(columns_reached(infl, cfg)) < 0.5
        assert_same_csr(infl.matrix, dense_influence_reference(case, cfg))

    @pytest.mark.parametrize("cfg", NARROW_FIELDS, ids=["seven-beams", "five-beams-long-step"])
    def test_narrow_field_with_cavity_matches_column_march(self, cfg):
        case = with_body_cavity(generate_patient(builtin_site("siteB"), 1))
        infl = build_influence_matrix(case, cfg)
        assert max(columns_reached(infl, cfg)) < 0.5
        assert_same_csr(infl.matrix, column_march_reference(case, cfg))


@pytest.fixture(scope="module", params=[("siteA", 1), ("siteA", 2), ("siteB", 1), ("siteB", 2)],
                ids=lambda p: f"{p[0]}-{p[1]}")
def scaled_case_and_reference(request):
    """A 64x64x32 patient and its `column_march_reference` matrix, built once."""
    site, patient = request.param
    case = generate_patient(scaled_site(builtin_site(site), 2), patient)
    assert case.structures.dims == (64, 64, 32)
    return case, column_march_reference(case, BeamConfig())


def test_influence_matches_column_march_at_64x64x32(scaled_case_and_reference):
    # the dense oracle would need about 885 MB here
    case, reference = scaled_case_and_reference
    assert_same_csr(build_influence_matrix(case, BeamConfig()).matrix, reference)


@pytest.mark.parametrize("n_beams", [36, 72])
def test_influence_matches_column_march_at_arc_scale(n_beams):
    # arc-like control point counts, where each row holds entries of many beams
    case = generate_patient(builtin_site("siteB"), 1)
    cfg = BeamConfig(n_beams=n_beams)
    assert_same_csr(build_influence_matrix(case, cfg).matrix,
                    column_march_reference(case, cfg))


@pytest.fixture(scope="module")
def half_size_case():
    case = generate_patient(scaled_site(builtin_site("siteB"), 0.5), 1)
    assert case.structures.dims == (16, 16, 8)
    return case


@settings(max_examples=40, deadline=None)
@given(n_beams=st.integers(1, 40), ray_step_mm=st.sampled_from([1.0, 2.5, 4.0]))
def test_influence_matches_dense_reference_at_any_beam_count(half_size_case, n_beams,
                                                             ray_step_mm):
    # every beam angle 2 pi b / n_beams, the axis-aligned ones among them (a
    # direction component of 0 or about 6e-17), at each ray's own exit step
    cfg = BeamConfig(n_beams=n_beams, ray_step_mm=ray_step_mm)
    assert_same_csr(build_influence_matrix(half_size_case, cfg).matrix,
                    dense_influence_reference(half_size_case, cfg))


def python_ray_depth(case, voxel, d, step_mm):
    """Depth of one voxel by a scalar march: step_mm per upstream sample in the body."""
    dims = case.structures.dims
    spacing = SPACING_MM
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
    @pytest.mark.parametrize("spec", [
        builtin_site("siteA"),
        scaled_site(builtin_site("siteA"), 2),  # the dense oracle would need about 885 MB
    ], ids=["desk", "64x64x32"])
    def test_entries_match_beamlet_weight(self, spec):
        case = generate_patient(spec, 1)
        cfg = BeamConfig()
        infl = build_influence_matrix(case, cfg)
        spacing = np.asarray(SPACING_MM)
        nx, ny, _ = case.structures.dims
        ptv_union = np.zeros(case.structures.dims, dtype=bool)
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
            assert lateral**2 <= cfg.lateral_cutoff**2
            depth = python_ray_depth(case, voxel, d, cfg.ray_step_mm)
            assert value == pytest.approx(beamlet_kernel(depth, lateral**2, cfg), rel=1e-12)


def mirrored(case, axis):
    """`case` with every mask flipped along `axis` (1: y, 2: z)."""
    return dataclasses.replace(case, structures=StructureSet(tuple(
        dataclasses.replace(s, mask=VoxelGrid(np.flip(s.mask.data, axis)))
        for s in case.structures.structures)))


def mirror_order(infl, axis, cfg):
    """(voxel_indices, rows, columns): the influence matrix of `mirrored(case, axis)`
    is expected to have these body voxels and to be ``infl.matrix[rows][:, columns]``.
    Its row i is the body voxel of rank i in raster order, the mirror image of an
    original one. A y-mirror maps beam angle 2 pi b / n to 2 pi (n - b) / n and
    reverses the lateral beamlets; a z-mirror keeps every coplanar beam and
    reverses the axial beamlets."""
    coords = list(np.unravel_index(infl.voxel_indices, infl.dims, order="F"))
    coords[axis] = infl.dims[axis] - 1 - coords[axis]
    images = np.ravel_multi_index(coords, infl.dims, order="F")
    rows = np.argsort(images)
    n, (nu, nv) = cfg.n_beams, cfg.beamlet_grid
    b, iu, iv = np.meshgrid(np.arange(n), np.arange(nu), np.arange(nv), indexing="ij")
    if axis == 1:
        b, iu = (n - b) % n, nu - 1 - iu
    else:
        iv = nv - 1 - iv
    return images[rows], rows, ((b * nu + iu) * nv + iv).ravel()


class TestMirrorEquivariance:
    """A mirrored case must give the mirrored influence matrix and plans: a check of
    the builder and the solver against themselves under a transform, not against
    a reference that copies the builder's sampling rule. Desk patients, 7 beams."""

    @pytest.fixture(scope="class", params=["siteA", "siteB"])
    def case(self, request):
        return generate_patient(builtin_site(request.param), 1)

    @pytest.mark.parametrize("axis, rtol", [(1, 1e-12), (2, 0.0)], ids=["y", "z"])
    def test_influence_matrix_is_permuted(self, case, axis, rtol):
        # the y-mirrored rays take other roundings (measured: 1.4e-14 relative);
        # the z-mirror keeps every ray, so its entries are bit-identical
        cfg = BeamConfig()
        infl = build_influence_matrix(case, cfg)
        voxel_indices, rows, columns = mirror_order(infl, axis, cfg)
        expected = infl.matrix[rows][:, columns].tocsr()
        expected.sort_indices()
        actual = build_influence_matrix(mirrored(case, axis), cfg)
        assert np.array_equal(actual.voxel_indices, voxel_indices)
        assert np.array_equal(actual.matrix.indptr, expected.indptr)
        assert np.array_equal(actual.matrix.indices, expected.indices)
        np.testing.assert_allclose(actual.matrix.data, expected.data, rtol=rtol, atol=0.0)

    @pytest.fixture(scope="class")
    def plans(self, case):
        return generate_plans(case, BeamConfig(), 2, seed=0)

    @pytest.mark.parametrize("axis", [1, 2], ids=["y", "z"])
    def test_plans_are_mirrored(self, case, plans, axis):
        # measured float32-identical; the bound does not rest on that rounding
        images = generate_plans(mirrored(case, axis), BeamConfig(), 2, seed=0)
        for plan, image in zip(plans, images, strict=True):
            np.testing.assert_allclose(image.dose.data, np.flip(plan.dose.data, axis), rtol=0.0,
                                       atol=1e-6 * plan.dose.data.max())


def traced(call, *args):
    """`call(*args)` and the tracemalloc peak of making that call."""
    tracemalloc.start()
    try:
        result = call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_influence_build_memory_at_64x64x32():
    case = generate_patient(scaled_site(builtin_site("siteA"), 2), 1)
    assert case.structures.dims == (64, 64, 32)
    _, peak = traced(build_influence_matrix, case, BeamConfig())
    # 12.42-12.75 MiB measured, with two beams in flight; 13.89-14.23 MiB if the
    # per-voxel arrays stay alive through `_csr_from_beams`
    assert peak < 13.5 * 2**20


def test_influence_build_memory_at_72_beams():
    # the CSR arrays are written in place from 12-byte compact entries and 12-byte
    # row runs: 2.18-2.19x the matrix here (50.2-50.3 MB for 23.0 MB), so 2.5x lets no
    # regression of 15 % or more pass
    infl, peak = traced(build_influence_matrix, generate_patient(builtin_site("siteB"), 1),
                        BeamConfig(n_beams=72))
    matrix = infl.matrix
    assert peak <= 2.5 * (matrix.indptr.nbytes + matrix.indices.nbytes + matrix.data.nbytes)


class SynchronousExecutor:
    """ThreadPoolExecutor's and ProcessPoolExecutor's stand-in: the initializer and
    each submitted call run at once, on the caller, and each call's arguments are
    appended to `submitted`."""

    def __init__(self, submitted, initializer=None, initargs=()):
        self.submitted = submitted
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def shutdown(self, wait=True, *, cancel_futures=False):
        return None

    def submit(self, fn, *args):
        self.submitted.append(args)
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def csr_bytes(infl):
    m = infl.matrix
    return m.indptr.tobytes(), m.indices.tobytes(), m.data.tobytes(), infl.voxel_indices.tobytes()


@pytest.mark.parametrize("site, n_beams", [(scaled_site(builtin_site("siteA"), 2), 7),
                                           (builtin_site("siteB"), 72)],
                         ids=["64x64x32", "72-beams"])
def test_two_thread_build_is_the_one_thread_build(site, n_beams, monkeypatch):
    # the helper's beams run on the caller instead; 10 builds with the GIL handed
    # between the threads every 0.1 ms, 50x as often as by default, give the same bytes
    case, cfg = generate_patient(site, 1), BeamConfig(n_beams=n_beams)
    submitted = []
    with monkeypatch.context() as m:
        m.setattr(concurrent.futures, "ThreadPoolExecutor",
                  lambda max_workers: SynchronousExecutor(submitted))
        expected = csr_bytes(build_influence_matrix(case, cfg))
    assert submitted == [(b,) for b in range(1, n_beams, 2)]  # the helper's beams
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for _ in range(10):
            assert csr_bytes(build_influence_matrix(case, cfg)) == expected
            assert threading.active_count() == threads  # the helper is joined
    finally:
        sys.setswitchinterval(interval)


def test_public_calls_stay_on_the_calling_thread(monkeypatch):
    # the layers' public functions, rebound in every dosekit namespace as a tracer
    # that keeps one span stack would rebind them, record the thread of each call
    calls = []

    def recording(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {}
    for module in (planner, phantom, volume, evaluation):
        for name, fn in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__):
                wrappers[fn] = recording(name, fn)
    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "dosekit"]:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                monkeypatch.setattr(module, attr, wrappers[value])
    cfg = BeamConfig()
    planner.generate_plans(generate_patient(builtin_site("siteA"), 1), cfg, 1, seed=0,
                           max_iters=10)
    assert {ident for _, ident in calls} == {threading.get_ident()}
    assert [name for name, _ in calls].count("beamlet_kernel") == cfg.n_beams


class BeamError(Exception):
    pass


def test_helper_failure_reaches_the_caller(monkeypatch):
    caller = threading.get_ident()
    real = planner._lateral_entries

    def failing_on_the_helper(*args):
        if threading.get_ident() != caller:
            raise BeamError("beam 1")
        return real(*args)

    monkeypatch.setattr(planner, "_lateral_entries", failing_on_the_helper)
    threads = threading.active_count()
    with pytest.raises(BeamError, match="^beam 1$"):
        build_influence_matrix(generate_patient(builtin_site("siteA"), 1), BeamConfig())
    assert threading.active_count() == threads


def test_caller_failure_waits_for_the_helper(monkeypatch):
    caller = threading.get_ident()
    real = planner._lateral_entries
    helper_done = threading.Event()

    def failing_on_the_caller(*args):
        if threading.get_ident() == caller:
            raise BeamError("beam 0")
        time.sleep(0.2)  # the caller's beam fails long before this one ends
        entries = real(*args)
        helper_done.set()
        return entries

    monkeypatch.setattr(planner, "_lateral_entries", failing_on_the_caller)
    threads = threading.active_count()
    with pytest.raises(BeamError, match="^beam 0$"):
        build_influence_matrix(generate_patient(builtin_site("siteA"), 1), BeamConfig())
    assert helper_done.is_set()
    assert threading.active_count() == threads


def plan_bytes(plans):
    return [(p.index, p.fluence.tobytes(), p.dose.data.tobytes(), p.diagnostics)
            for p in plans]


def helper_on_the_caller(monkeypatch, submitted):
    """The plans' helper process replaced by a SynchronousExecutor; the helper's
    arguments, which its initializer sets here, are restored after the test."""
    monkeypatch.setattr(planner, "_helper_args", None)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers, mp_context, initializer, initargs:
                        SynchronousExecutor(submitted, initializer, initargs))


def test_helper_process_plans_are_the_one_process_plans(monkeypatch):
    # the 8 x 2000 plans of a desk-pareto case, the helper's run on the caller instead
    case = generate_patient(builtin_site("siteB"), 1)
    submitted = []
    with monkeypatch.context() as m:
        helper_on_the_caller(m, submitted)
        expected = plan_bytes(generate_plans(case, BeamConfig(), 8, seed=0))
    assert submitted == [(i,) for i in (1, 3, 5, 7)]  # the helper's plans
    real, started = concurrent.futures.ProcessPoolExecutor, []

    def recording(*args, **kwargs):
        started.append(kwargs["mp_context"].get_start_method())
        return real(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
    assert plan_bytes(generate_plans(case, BeamConfig(), 8, seed=0)) == expected
    assert started == ["fork"]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("plan_count, max_iters", [(4, 200), (1, 2000)])
def test_small_calls_solve_every_plan_on_the_caller(plan_count, max_iters, monkeypatch):
    # dataset-roundtrip's set-up and scaled-influence's cases: a fork would cost more
    submitted = []
    helper_on_the_caller(monkeypatch, submitted)
    plans = generate_plans(generate_patient(builtin_site("siteA"), 1), BeamConfig(),
                           plan_count, seed=0, max_iters=max_iters)
    assert [p.index for p in plans] == list(range(plan_count))
    assert submitted == []


@pytest.mark.parametrize("failing", [0, 1], ids=["on-the-caller", "on-the-helper"])
def test_failed_plan_leaves_no_process(failing, monkeypatch):
    solve = planner.solve_fluence

    def fail_on_one_plan(*args, **kwargs):
        if kwargs["index"] == failing:
            raise planner.PlannerError("no plan")
        return solve(*args, **kwargs)

    monkeypatch.setattr(planner, "solve_fluence", fail_on_one_plan)  # the helper inherits it
    case = generate_patient(builtin_site("siteA"), 1)
    with pytest.raises(planner.PlannerError, match=f"^plan {failing} for {case.id}: no plan$"):
        generate_plans(case, BeamConfig(), 4, seed=0)
    assert multiprocessing.active_children() == []


def test_helper_divergence_keeps_its_type_and_iteration(monkeypatch):
    # plan 1 diverges on the helper, and comes back pickled
    caller, real = os.getpid(), planner.estimate_operator_norm
    monkeypatch.setattr(planner, "estimate_operator_norm",
                        lambda G: real(G) if os.getpid() == caller else 1e-3)
    case = generate_patient(builtin_site("siteA"), 4)
    with pytest.raises(SolverDivergenceError) as exc:
        generate_plans(case, BeamConfig(), 2, seed=3)
    weights = sample_weights(case.structures, seed=derive_seed(3, "weights", 1))
    M, b = objective_rows(build_influence_matrix(case, BeamConfig()), case.structures,
                          weights)
    iteration = reference_divergence(M, b, 1e-3, 2000)
    assert exc.value.iteration == iteration
    assert str(exc.value) == f"plan 1 for {case.id}: non-finite iterate at iteration {iteration}"
    assert multiprocessing.active_children() == []


def test_plan_command_whose_first_save_fails_leaves_no_process(tmp_path, monkeypatch,
                                                               capsys):
    # the consumer stops at plan 0 while the helper holds plans 1 and 3
    phantom.save_patient(tmp_path / "case", generate_patient(builtin_site("siteA"), 1))

    def failing_save(directory, plan):
        raise MissingFileError(f"{directory}: no room")

    # the generator is kept alive here, so its collection cannot end the helper:
    # `dosekit plan` must close it
    kept = []

    def kept_plans(*args):
        kept.append(planner._solved_plans(*args))
        return kept[-1]

    monkeypatch.setattr(cli, "save_plan", failing_save)
    monkeypatch.setattr(cli, "_solved_plans", kept_plans)
    argv = ["plan", "--case", str(tmp_path / "case"), "--count", "4", "--seed", "0",
            "--out", str(tmp_path / "plans")]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == f"dosekit: {tmp_path / 'plans' / 'plan0'}: no room\n"
    assert multiprocessing.active_children() == []


def dosekit_error_classes():
    found, todo = [], [DosekitError]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_every_dosekit_error_survives_a_pickle(protocol):
    # a plan's failure reaches the caller from the helper process as a pickle
    classes = dosekit_error_classes()
    assert {SolverDivergenceError, FileFormatError, phantom.PhantomGenerationError} < set(classes)
    for cls in classes:
        exc = cls(188) if cls is SolverDivergenceError else cls("a fault")
        exc.args = (f"plan 1 for siteA-p0004: {exc}",)  # as `generate_plans` names the plan
        copy = pickle.loads(pickle.dumps(exc, protocol=protocol))
        # a divergence rebuilt through __init__ came back as "non-finite iterate at
        # iteration plan 1 for siteA-p0004: non-finite iterate at iteration 188"
        assert type(copy) is cls
        assert str(copy) == str(exc) and vars(copy) == vars(exc)


def test_gram_memory_at_72_beams():
    # the dense rows of M and the one n x n array that dsyrk writes (115.9 MB
    # here); a mirrored copy of G would add a second 8 n^2 bytes
    case = generate_patient(builtin_site("siteB"), 1)
    weights = sample_weights(case.structures, seed=derive_seed(0, "weights", 0))
    M, b = objective_rows(build_influence_matrix(case, BeamConfig(n_beams=72)),
                          case.structures, weights)
    m, n = M.shape
    assert n == 3456
    _, peak = traced(_gram, M, b)
    assert peak <= 8 * m * n + 1.1 * 8 * n * n


class TestObjective:
    def test_exact_fit_is_zero(self):
        sset, infl = single_voxel_case(ptv_prescription=2.0)
        w = PlanWeights(weights={"ptv": 1.0})
        assert objective(infl, sset, w, np.array([2.0])) == pytest.approx(0.0, abs=1e-30)

    def test_hand_value(self):
        sset, infl = single_voxel_case(ptv_prescription=2.0)
        w = PlanWeights(weights={"ptv": 1.0})
        assert objective(infl, sset, w, np.array([0.0])) == pytest.approx(4.0)

    def test_needs_a_weight_for_every_structure(self):
        sset, infl = single_voxel_case(with_oar=True)
        with pytest.raises(ValidationError, match="^no tradeoff weight for structure 'oar'$"):
            objective(infl, sset, PlanWeights(weights={"ptv": 1.0}), np.array([0.0]))

    @pytest.mark.parametrize("fluence", [[], [0.0, 1.0], [[0.0]]],
                             ids=["none", "two", "two-axes"])
    def test_fluence_must_have_one_value_per_beamlet(self, fluence):
        sset, infl = single_voxel_case()
        with pytest.raises(ValidationError, match="does not match 1 beamlets$"):
            objective(infl, sset, PlanWeights(weights={"ptv": 1.0}), fluence)

    def test_linear_in_weights(self):
        sset, infl = single_voxel_case(ptv_prescription=2.0, with_oar=True)
        x = np.array([0.7])
        w1 = PlanWeights(weights={"ptv": 1.0, "oar": 0.5})
        w2 = PlanWeights(weights={"ptv": 2.0, "oar": 1.0})
        assert objective(infl, sset, w2, x) == pytest.approx(2.0 * objective(infl, sset, w1, x))

    def test_is_the_weighted_sum_over_structures(self):
        # siteB patient 1: ptv54 holds every voxel of ptv70, so their rows overlap
        case = generate_patient(builtin_site("siteB"), 1)
        sset = case.structures
        ptvs = {s.name: s for s in sset.ptvs}
        assert np.isin(ptvs["ptv70"].linear_indices(), ptvs["ptv54"].linear_indices()).all()
        assert len(sset.oars) == 13
        infl = build_influence_matrix(case, BeamConfig())
        weights = sample_weights(sset, seed=derive_seed(0, "weights", 0))
        x = np.random.default_rng(0).random(infl.n_beamlets)
        expected = 0.0
        for s in (*sset.ptvs, *sset.oars):
            rows = infl.rows_for(s)
            target = s.prescription if s.kind == "PTV" else 0.0
            residual = infl.matrix[rows] @ x - target
            expected += weights[s.name] / rows.size * float(residual @ residual)
        assert objective(infl, sset, weights, x) == pytest.approx(expected, rel=1e-12)


class TestSolveFluence:
    @pytest.mark.parametrize("max_iters", [-5, 0, 2.5, True])
    def test_max_iters_is_a_count(self, max_iters):
        sset, infl = single_voxel_case()
        with pytest.raises(ValidationError, match="max_iters must be a positive integer"):
            solve_fluence(infl, sset, PlanWeights({"ptv": 1.0}), max_iters=max_iters)

    def test_unconstrained_minimum(self):
        sset, infl = single_voxel_case(ptv_prescription=2.0)
        w = PlanWeights(weights={"ptv": 1.0})
        plan = solve_fluence(infl, sset, w, max_iters=2000)
        assert plan.fluence[0] == pytest.approx(2.0, abs=1e-6)

    def test_kkt_residual_at_unconstrained_minimum(self):
        sset, infl = single_voxel_case(ptv_prescription=2.0)
        w = PlanWeights(weights={"ptv": 1.0})
        plan = solve_fluence(infl, sset, w, max_iters=2000)
        assert plan.diagnostics.kkt_residual < 1e-6

    def test_kkt_residual_of_desk_plan(self):
        case = generate_patient(builtin_site("siteA"), 2)
        infl = build_influence_matrix(case, BeamConfig())
        w = sample_weights(case.structures, seed=3)
        plan = solve_fluence(infl, case.structures, w)
        # the same residual from M itself, without the Gram matrix
        M, b = objective_rows(infl, case.structures, w)
        x = plan.fluence
        grad = 2.0 * (M.T @ (M @ x - b))
        expected = float(np.linalg.norm(x - np.maximum(x - grad, 0.0)))
        assert 0.0 < plan.diagnostics.kkt_residual < np.inf
        assert plan.diagnostics.kkt_residual == pytest.approx(expected, rel=1e-6)

    def test_two_structure_balance(self):
        sset, infl = single_voxel_case(ptv_prescription=1.0, with_oar=True)
        w = PlanWeights(weights={"ptv": 1.0, "oar": 1.0})
        plan = solve_fluence(infl, sset, w, max_iters=2000)
        assert plan.fluence[0] == pytest.approx(0.5, abs=1e-6)

    def test_two_structure_weighted(self):
        sset, infl = single_voxel_case(ptv_prescription=1.0, with_oar=True)
        w = PlanWeights(weights={"ptv": 1.0, "oar": 3.0})
        plan = solve_fluence(infl, sset, w, max_iters=2000)
        assert plan.fluence[0] == pytest.approx(0.25, abs=1e-6)

    def test_divergence_reports_iteration(self):
        sset, infl = single_voxel_case(ptv_prescription=1.0)
        w = PlanWeights(weights={"ptv": 1.0})
        M, b = objective_rows(infl, sset, w)
        with pytest.raises(SolverDivergenceError) as exc:
            # lie about the operator norm so the steps blow up
            solve_stacked(M, b, *_gram(M, b), operator_norm=1e-3, max_iters=5000)
        assert exc.value.iteration == reference_divergence(M, b, 1e-3, 5000) == 188

    def test_converged_at_unconstrained_minimum(self):
        sset, infl = single_voxel_case(ptv_prescription=2.0)
        w = PlanWeights(weights={"ptv": 1.0})
        d = solve_fluence(infl, sset, w, max_iters=2000).diagnostics
        _, c = _gram(*objective_rows(infl, sset, w))
        assert d.converged
        assert d.converged == (d.kkt_residual <= KKT_RTOL * np.linalg.norm(2.0 * c))

    def test_short_desk_plan_not_converged(self):
        case = generate_patient(builtin_site("siteA"), 2)
        infl = build_influence_matrix(case, BeamConfig())
        w = sample_weights(case.structures, seed=3)
        d = solve_fluence(infl, case.structures, w, max_iters=40).diagnostics
        _, c = _gram(*objective_rows(infl, case.structures, w))
        assert (d.iterations, d.converged) == (40, False)
        assert d.converged == (d.kkt_residual <= KKT_RTOL * np.linalg.norm(2.0 * c))

    def test_descent_diagnostics(self):
        case = generate_patient(builtin_site("siteA"), 2)
        infl = build_influence_matrix(case, BeamConfig())
        w = sample_weights(case.structures, seed=3)
        plan = solve_fluence(infl, case.structures, w)
        d = plan.diagnostics
        assert d.final_objective <= d.objective_at_zero
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
        b = np.sqrt(c) * p
        G, Mtb = _gram(M, b)
        x_cp, diag = solve_stacked(M, b, G, Mtb, estimate_operator_norm(G), max_iters=5000)
        _, obj_pg = pg_oracle(A, c, p)
        assert diag.final_objective == pytest.approx(obj_pg, rel=1e-6, abs=1e-12)


class TestBlockedLoopMatchesPlainReference:
    """`solve_stacked` checks its iterates once per block of 64 iterations; the
    plain loop checks after every one. Both must give the same bits."""

    @staticmethod
    def desk_problem(site):
        case = generate_patient(builtin_site(site), 1)
        infl = build_influence_matrix(case, BeamConfig())
        weights = sample_weights(case.structures, seed=derive_seed(0, "weights", 0))
        M, b = objective_rows(infl, case.structures, weights)
        G, c = _gram(M, b)
        return M, b, G, c, estimate_operator_norm(G)

    @pytest.fixture(scope="class")
    def problem(self):
        return self.desk_problem("siteB")

    @pytest.fixture(scope="class")
    def siteA_problem(self):
        return self.desk_problem("siteA")

    @staticmethod
    def assert_bit_identical(problem, max_iters):
        x, diag = solve_stacked(*problem, max_iters)
        x_ref, diag_ref = plain_cp_reference(*problem, max_iters)
        assert x.tobytes() == x_ref.tobytes()
        assert diag == diag_ref

    @pytest.mark.parametrize("max_iters", [1, 63, 64, 65, 2000])
    def test_desk_plan_is_bit_identical(self, problem, max_iters):
        self.assert_bit_identical(problem, max_iters)

    @pytest.mark.parametrize("max_iters", [1, 63, 64, 65, 2000])
    def test_siteA_desk_plan_is_bit_identical(self, siteA_problem, max_iters):
        self.assert_bit_identical(siteA_problem, max_iters)

    @staticmethod
    def signed_problem():
        """A 3 x 2 problem with entries of both signs. Its divergence can fall on an
        odd iteration; the nonnegative single-voxel problem's falls only on even ones."""
        rng = np.random.default_rng(0)
        return sp.csr_matrix(rng.standard_normal((3, 2))), rng.standard_normal(3)

    @pytest.mark.parametrize("norm, max_iters, iteration", [
        (9.3e-6, 5000, 65),
        (2.2e-3, 5000, 129),
        (7.8e-6, 5000, 64),
        (2.11e-3, 5000, 128),
        (3.55e-3, 150, 141),
    ], ids=["first-of-block-2", "first-of-block-3", "last-of-block-1", "last-of-block-2",
            "inside-partial-block"])
    def test_divergence_iteration_is_exact(self, norm, max_iters, iteration):
        M, b = self.signed_problem()
        with pytest.raises(SolverDivergenceError) as exc:
            solve_stacked(M, b, *_gram(M, b), norm, max_iters)
        assert exc.value.iteration == reference_divergence(M, b, norm, max_iters) == iteration

    def test_overflowing_diagnostics_raise(self):
        # one iteration before the iterate overflows (see "inside-partial-block"):
        # x is finite, about 4.7e306, but its objective and KKT residual overflow
        M, b = self.signed_problem()
        with pytest.raises(SolverDivergenceError, match="non-finite diagnostics") as exc:
            solve_stacked(M, b, *_gram(M, b), 3.55e-3, 140)
        assert exc.value.iteration == 140


class TestGramIsUpperTriangle:
    """`_gram` returns M^T M as its upper triangle alone, with the strict lower
    triangle 0, and every consumer reads that triangle (dsymv, lower=0). A
    consumer that read the other triangle would give a wrong plan without any
    error; here it fails the comparison with the mirrored G."""

    @pytest.mark.parametrize("site, patient, factor", [
        ("siteA", 1, 1), ("siteA", 2, 1), ("siteB", 1, 1), ("siteB", 2, 1), ("siteA", 1, 2),
    ], ids=["siteA-1", "siteA-2", "siteB-1", "siteB-2", "siteA-1-64x64x32"])
    def test_gram_is_the_upper_triangle(self, site, patient, factor):
        case = generate_patient(scaled_site(builtin_site(site), factor), patient)
        infl = build_influence_matrix(case, BeamConfig())
        for i in range(3):
            weights = sample_weights(case.structures, seed=derive_seed(0, "weights", i))
            M, b = objective_rows(infl, case.structures, weights)
            G, c = _gram(M, b)
            assert G.flags.f_contiguous
            np.testing.assert_allclose(np.triu(G), np.triu((M.T @ M).toarray()),
                                       rtol=1e-12, atol=0.0)
            assert not np.tril(G, -1).any()
            full = np.asfortranarray(G + np.triu(G, 1).T)  # each mirrored entry added to 0
            norm = estimate_operator_norm(G)
            assert estimate_operator_norm(full) == norm
            x, diag = solve_stacked(M, b, G, c, norm, 2000)
            x_full, diag_full = solve_stacked(M, b, full, c, norm, 2000)
            assert x.tobytes() == x_full.tobytes()
            assert diag == diag_full


def placed(G, offset):
    """A copy of the F-ordered G whose data starts `offset` bytes past a 64-byte boundary."""
    n = G.shape[0]
    buffer = np.zeros(n * n + 16)
    start = (-buffer.ctypes.data % 64 + offset) // 8
    copy = buffer[start:start + n * n].reshape((n, n), order="F")
    copy[...] = G
    return copy


@pytest.mark.parametrize("site", ["siteA", "siteB"])
def test_gram_starts_on_a_cache_line(site):
    # numpy aligns an array to 16 bytes only, and dsymv on a G at 16 mod 32 bytes
    # took about 1.3x as long; the solve's result does not depend on where G lies
    case = generate_patient(builtin_site(site), 1)
    infl = build_influence_matrix(case, BeamConfig())
    for i in range(3):
        weights = sample_weights(case.structures, seed=derive_seed(0, "weights", i))
        M, b = objective_rows(infl, case.structures, weights)
        G, c = _gram(M, b)
        assert G.ctypes.data % 64 == 0 and G.flags.f_contiguous
        norm = estimate_operator_norm(G)
        x, diag = solve_stacked(M, b, G, c, norm, 500)
        x_off, diag_off = solve_stacked(M, b, placed(G, 16), c, norm, 500)
        assert x.tobytes() == x_off.tobytes()
        assert diag == diag_off


class TestGramFormMatchesRowSpace:
    @pytest.mark.parametrize("site", ["siteA", "siteB"])
    def test_desk_plans(self, site):
        case = generate_patient(builtin_site(site), 1)
        infl = build_influence_matrix(case, BeamConfig())
        for i in range(3):
            weights = sample_weights(case.structures, seed=derive_seed(0, "weights", i))
            M, b = objective_rows(infl, case.structures, weights)
            G, c = _gram(M, b)
            norm = estimate_operator_norm(G)
            x, diag = solve_stacked(M, b, G, c, norm, 2000)
            x_ref, iterations, obj_ref = row_space_cp_reference(M, b, norm, 2000)
            assert diag.iterations == iterations == 2000
            # the KKT bound of `solve_stacked`, formed here from M, b and x_ref alone
            grad = 2.0 * (M.T @ (M @ x_ref - b))
            kkt_ref = np.linalg.norm(x_ref - np.maximum(x_ref - grad, 0.0))
            assert diag.converged == (kkt_ref <= KKT_RTOL * np.linalg.norm(2.0 * (M.T @ b)))
            assert np.abs(x - x_ref).max() <= 1e-9 * np.abs(x_ref).max()
            assert diag.final_objective == pytest.approx(obj_ref, rel=1e-10, abs=0.0)


class TestOperatorNorm:
    @pytest.mark.parametrize("site", ["siteA", "siteB"])
    def test_gram_power_iteration_matches_sparse(self, site):
        case = generate_patient(builtin_site(site), 1)
        infl = build_influence_matrix(case, BeamConfig())
        for i in range(3):
            weights = sample_weights(case.structures, seed=derive_seed(0, "weights", i))
            M, b = objective_rows(infl, case.structures, weights)
            G, _ = _gram(M, b)
            norm = estimate_operator_norm(G)
            assert norm == pytest.approx(sparse_power_norm_reference(M), rel=1e-12, abs=0.0)
            assert norm == pytest.approx(np.sqrt(np.linalg.eigvalsh(G, UPLO="U").max()), rel=1e-6, abs=0.0)

    def test_reducible_gram(self):
        # block-diagonal M, so G is reducible: a small block, two empty beamlet
        # columns (as siteA desk has six), and the larger block in the last columns
        rng = np.random.default_rng(7)
        small = 0.2 * rng.random((4, 3))
        large = rng.random((6, 5))
        M = sp.csr_matrix(sp.block_diag([small, np.zeros((0, 2)), large]))
        assert M.shape == (10, 10) and M[:, 3:5].nnz == 0
        G, _ = _gram(M, np.zeros(M.shape[0]))
        expected = np.sqrt(np.linalg.eigvalsh(G, UPLO="U").max())
        assert estimate_operator_norm(G) == pytest.approx(expected, rel=1e-9, abs=0.0)

    def test_zero_matrix(self):
        M = sp.csr_matrix((4, 3))
        G, _ = _gram(M, np.zeros(4))
        assert estimate_operator_norm(G) == 0.0


class TestPlanWeights:
    @pytest.mark.parametrize("weights", [
        {"a": float("nan")},
        {"a": float("inf")},
        {"a": 0.0},
    ], ids=["nan-weight", "infinite-weight", "zero-weight"])
    def test_rejects_bad_weights_and_bounds(self, weights):
        with pytest.raises(ValidationError):
            PlanWeights(weights)


class TestSampleWeights:
    def test_range_containment(self):
        case = generate_patient(builtin_site("siteB"), 0)
        w = sample_weights(case.structures, seed=5)
        for oar in case.structures.oars:
            assert WEIGHT_BOUNDS[0] <= w[oar.name] <= WEIGHT_BOUNDS[1]
        for ptv in case.structures.ptvs:
            assert w[ptv.name] == 1.0

    def test_deterministic(self):
        case = generate_patient(builtin_site("siteA"), 0)
        assert sample_weights(case.structures, seed=9).weights == sample_weights(
            case.structures, seed=9
        ).weights


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
        direct = solve_fluence(infl, case.structures, weights, max_iters=200, patient_id=case.id)
        assert np.array_equal(plans[0].fluence, direct.fluence)

    def test_dose_zero_outside_body(self, case):
        plan = generate_plans(case, BeamConfig(), 1, seed=3, max_iters=100)[0]
        outside = ~case.structures.body.bool_array()
        assert np.all(plan.dose.data[outside] == 0.0)

    @pytest.mark.parametrize("counts", [
        {"max_iters": -5}, {"max_iters": 0}, {"max_iters": 2.5}, {"max_iters": True},
        {"plan_count": 2.5}, {"plan_count": True}, {"plan_count": 0},
    ], ids=lambda d: f"{next(iter(d))}={next(iter(d.values()))}")
    def test_counts_are_positive_integers(self, case, counts):
        # unchecked, max_iters=-5 saved a plan of -5 iterations, and 2.5 raised a
        # bare TypeError from range
        args = {"plan_count": 1, "max_iters": 10, **counts}
        with pytest.raises(ValidationError, match="positive integer count"):
            generate_plans(case, BeamConfig(), args["plan_count"], seed=0,
                           max_iters=args["max_iters"])

    def test_numpy_integer_counts(self, case):
        plans = generate_plans(case, BeamConfig(), np.int64(1), seed=0, max_iters=np.int32(20))
        assert len(plans) == 1 and plans[0].diagnostics.iterations == 20
        assert type(plans[0].diagnostics.iterations) is int  # so that the plan saves as JSON

    def test_divergence_keeps_its_type_and_iteration(self, case, monkeypatch):
        monkeypatch.setattr(planner, "estimate_operator_norm", lambda G: 1e-3)
        with pytest.raises(SolverDivergenceError, match=f"plan 0 for {case.id}: ") as exc:
            generate_plans(case, BeamConfig(), 2, seed=3)
        weights = sample_weights(case.structures, seed=derive_seed(3, "weights", 0))
        M, b = objective_rows(build_influence_matrix(case, BeamConfig()), case.structures,
                              weights)
        assert exc.value.iteration == reference_divergence(M, b, 1e-3, 2000)


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
            plan = solve_fluence(infl, case.structures, pw, max_iters=20_000)
            means.append(float(plan.dose.data[oar.bool_array()].astype(np.float64).mean()))
        assert means[1] <= means[0] + 1e-9


class TestPlanPersistence:
    def test_plan_owns_a_read_only_fluence(self, tmp_path):
        # a fluence written after the plan was made used to save as a plan that
        # load_plan refused: "fluence.f32: fluence must be finite and nonnegative"
        given = np.array([0.0, 0.5, 1.25, 3.0])
        plan = dataclasses.replace(hand_built_plan(), fluence=given)
        given[0] = -1.0
        with pytest.raises(ValueError, match="read-only"):
            plan.fluence[0] = -1.0
        save_plan(tmp_path, plan)
        assert load_plan(tmp_path).fluence.tolist() == [0.0, 0.5, 1.25, 3.0]

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
        # a failed write keeps the old file whole, but PLAN_JSON commits a plan, and
        # save_plan removes it first: a failure at PLAN_JSON used to leave the first
        # plan's PLAN_JSON over the second plan's dose and fluence
        case = generate_patient(builtin_site("siteA"), 5)
        first, second = generate_plans(case, BeamConfig(), 2, seed=1, max_iters=20)
        save_plan(tmp_path, first)
        before = (tmp_path / FLUENCE_FILE).read_bytes()
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst).name == name:
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="disk full"):
            save_plan(tmp_path, second)
        if name == FLUENCE_FILE:
            assert (tmp_path / FLUENCE_FILE).read_bytes() == before
        assert not (tmp_path / PLAN_JSON).exists()
        with pytest.raises(MissingFileError, match=f"{PLAN_JSON}: no such file"):
            load_plan(tmp_path)
        assert not list(tmp_path.glob("*.tmp"))

    def test_refused_overwrite_leaves_no_plan(self, tmp_path):
        # write_manifest refuses a NaN diagnostic after the dose and fluence are written;
        # over a saved plan 0, that directory loaded as plan 0 with plan 1's dose
        case = generate_patient(builtin_site("siteA"), 5)
        first, second = generate_plans(case, BeamConfig(), 2, seed=1, max_iters=20)
        save_plan(tmp_path, first)
        second = dataclasses.replace(second, diagnostics=dataclasses.replace(
            second.diagnostics, kkt_residual=math.nan))
        with pytest.raises(ValidationError, match="Out of range float"):
            save_plan(tmp_path, second)
        with pytest.raises(MissingFileError, match=f"{PLAN_JSON}: no such file"):
            load_plan(tmp_path)


def append_byte(directory):
    with open(directory / FLUENCE_FILE, "ab") as fh:
        fh.write(b"\0")


def drop_last_value(directory):
    path = directory / FLUENCE_FILE
    path.write_bytes(path.read_bytes()[:-4])


def all_nan(directory):
    path = directory / FLUENCE_FILE
    path.write_bytes(np.full(len(path.read_bytes()) // 4, np.nan, dtype="<f4").tobytes())


def signalling_nan(directory):
    # casting a signalling NaN to float64 raises FE_INVALID, a RuntimeWarning
    path = directory / FLUENCE_FILE
    path.write_bytes(np.full(len(path.read_bytes()) // 4, 0x7F800001, dtype="<u4").tobytes())


def negative_value(directory):
    path = directory / FLUENCE_FILE
    path.write_bytes(np.full(len(path.read_bytes()) // 4, -1.0, dtype="<f4").tobytes())


def nan_dose(directory):
    path = directory / DOSE_FILE
    raw = bytearray(path.read_bytes())
    raw[-4:] = np.float32(np.nan).tobytes()  # the last dose value
    path.write_bytes(bytes(raw))


def broken_json(directory):
    (directory / PLAN_JSON).write_text('{"patient_id": ')


def empty_object(directory):
    # stamped, so the fault is the missing keys, not the version
    (directory / PLAN_JSON).write_text(f'{{"schema_version": {PlanManifest.SCHEMA_VERSION}}}')


def no_schema_version(directory):
    without_version(directory / PLAN_JSON)


def schema_version_1(directory):
    path = directory / PLAN_JSON
    path.write_text(path.read_text().replace(f'"schema_version": {PlanManifest.SCHEMA_VERSION}',
                                             '"schema_version": 1', 1))


def bad_diagnostics(directory):
    path = directory / PLAN_JSON
    path.write_text(path.read_text().replace('"diagnostics": {', '"diagnostics": {"extra": 1, ', 1))


def boolean_index(directory):
    # JSON true is a Python int, but not a plan index
    path = directory / PLAN_JSON
    path.write_text(path.read_text().replace('"index": 0', '"index": true', 1))


def mistyped_diagnostics(directory):
    path = directory / PLAN_JSON
    path.write_text(path.read_text().replace('"iterations": 20', '"iterations": "many"', 1))


def with_first_weight(directory, value):
    path = directory / PLAN_JSON
    meta = json.loads(path.read_text())
    meta["weights"][next(iter(meta["weights"]))] = value
    path.write_text(json.dumps(meta))


def overflowing_weight(directory):
    # float(10**400) raises OverflowError
    with_first_weight(directory, 10**400)


def string_weight(directory):
    with_first_weight(directory, "1.0")


def bool_weight(directory):
    # JSON true is a Python int, but not a weight
    with_first_weight(directory, True)


def unknown_top_level_key(directory):
    path = directory / PLAN_JSON
    path.write_text(path.read_text().replace('"index": 0', '"index": 0, "sneaky": 1', 1))


def nan_weight(directory):
    # json.dumps writes a bare NaN, which is not strict JSON
    with_first_weight(directory, float("nan"))


def infinite_weight(directory):
    # and a bare Infinity
    with_first_weight(directory, float("inf"))


def non_finite_diagnostics(directory):
    # read leniently, these loaded as kkt_residual=nan and final_objective=-inf
    path = directory / PLAN_JSON
    meta = json.loads(path.read_text())
    meta["diagnostics"].update(kkt_residual=float("nan"), final_objective=-float("inf"))
    path.write_text(json.dumps(meta))


def with_n_beamlets(directory, value):
    path = directory / PLAN_JSON
    meta = json.loads(path.read_text())
    meta["n_beamlets"] = value
    path.write_text(json.dumps(meta))


def zero_beamlets(directory):
    # with a matching empty fluence file, which loaded as a plan without fluence
    with_n_beamlets(directory, 0)
    (directory / FLUENCE_FILE).write_bytes(b"")


def negative_beamlets(directory):
    with_n_beamlets(directory, -2)


def negative_index(directory):
    path = directory / PLAN_JSON
    path.write_text(path.read_text().replace('"index": 0', '"index": -1', 1))


def too_long_integer(directory):
    # json.loads raises ValueError for an integer of more than 4300 digits
    path = directory / PLAN_JSON
    path.write_text(path.read_text().replace('"index": 0', '"index": ' + "1" * 5000, 1))


def overflowing_diagnostics(directory):
    # json.loads reads 1e400 as inf, which write_manifest refuses to write
    path = directory / PLAN_JSON
    path.write_text(re.sub(r'"kkt_residual": [^,]+', '"kkt_residual": 1e400', path.read_text(),
                           count=1))


def too_deeply_nested(directory):
    # json.loads raises RecursionError
    (directory / PLAN_JSON).write_text("[" * 100_000)


def loads_or_is_typed(directory):
    """load_plan either returns or raises a DosekitError; anything else propagates."""
    try:
        load_plan(directory)
    except DosekitError:
        pass


class TestCorruptPlanFiles:
    @pytest.fixture(scope="class")
    def plan(self):
        case = generate_patient(builtin_site("siteA"), 5)
        return generate_plans(case, BeamConfig(), 1, seed=1, max_iters=20)[0]

    @pytest.mark.parametrize("corrupt, blamed", [
        (append_byte, FLUENCE_FILE),
        (drop_last_value, FLUENCE_FILE),
        (all_nan, FLUENCE_FILE),
        (signalling_nan, FLUENCE_FILE),
        (negative_value, FLUENCE_FILE),
        (nan_dose, DOSE_FILE),
        (broken_json, PLAN_JSON),
        (empty_object, PLAN_JSON),
        (bad_diagnostics, PLAN_JSON),
        (schema_version_1, PLAN_JSON),
        (no_schema_version, PLAN_JSON),
        (boolean_index, PLAN_JSON),
        (mistyped_diagnostics, PLAN_JSON),
        (overflowing_weight, PLAN_JSON),
        (string_weight, PLAN_JSON),
        (bool_weight, PLAN_JSON),
        (unknown_top_level_key, PLAN_JSON),
        (nan_weight, PLAN_JSON),
        (infinite_weight, PLAN_JSON),
        (non_finite_diagnostics, PLAN_JSON),
        (overflowing_diagnostics, PLAN_JSON),
        (too_long_integer, PLAN_JSON),
        (too_deeply_nested, PLAN_JSON),
        (zero_beamlets, PLAN_JSON),
        (negative_beamlets, PLAN_JSON),
        (negative_index, PLAN_JSON),
    ], ids=lambda v: getattr(v, "__name__", v))
    def test_maps_to_typed_error(self, plan, tmp_path, corrupt, blamed):
        # every fault is one FileFormatError class, so the message's path names the file
        save_plan(tmp_path, plan)
        corrupt(tmp_path)
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(tmp_path / blamed))}: "):
            load_plan(tmp_path)

    def test_bad_fluence_is_refused_by_plan_and_names_the_file(self, plan, tmp_path):
        save_plan(tmp_path, plan)
        negative_value(tmp_path)
        path = re.escape(str(tmp_path / FLUENCE_FILE))
        with pytest.raises(FileFormatError, match=f"^{path}: fluence must be finite and "
                                                  f"nonnegative$"):
            load_plan(tmp_path)

    @pytest.mark.parametrize("name", [PLAN_JSON, FLUENCE_FILE, DOSE_FILE])
    def test_missing_file_is_typed(self, plan, tmp_path, name):
        save_plan(tmp_path, plan)
        (tmp_path / name).unlink()
        with pytest.raises(MissingFileError, match=f"{name}: no such file"):
            load_plan(tmp_path)

    def test_empty_directory_is_typed(self, tmp_path):
        with pytest.raises(DosekitError):
            load_plan(tmp_path)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_plan_json_loads_or_is_typed(self, plan, data):
        with tempfile.TemporaryDirectory() as d:
            directory = Path(d)
            save_plan(directory, plan)
            meta = json.loads((directory / PLAN_JSON).read_text())
            target = data.draw(st.sampled_from([meta, meta["diagnostics"], meta["weights"]]))
            key = data.draw(st.sampled_from(sorted(target)))
            action = data.draw(st.sampled_from(["replace", "delete", "rename"]))
            if action == "replace":
                target[key] = data.draw(JSON_VALUES)
            elif action == "delete":
                del target[key]
            else:
                target[data.draw(st.text(max_size=6))] = target.pop(key)
            (directory / PLAN_JSON).write_text(json.dumps(meta))
            loads_or_is_typed(directory)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_fluence_bytes_load_or_are_typed(self, plan, data):
        expected = 4 * plan.fluence.size
        size = data.draw(st.just(expected) | st.integers(0, expected + 8))
        with tempfile.TemporaryDirectory() as d:
            directory = Path(d)
            save_plan(directory, plan)
            (directory / FLUENCE_FILE).write_bytes(data.draw(st.binary(min_size=size,
                                                                       max_size=size)))
            loads_or_is_typed(directory)
