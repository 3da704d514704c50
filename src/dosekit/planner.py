"""Ground-truth plan factory.

A simplified ray/attenuation model builds a sparse dose-influence matrix A for
equispaced coplanar beams. Depths come from a ray march over the body's (x, y)
columns, a chunk of ray steps at a time, whose in-box samples become one sparse
visit-count product per beam; lateral entries are formed only for the (voxel,
lateral beamlet) pairs within the cutoff, then expanded over the axial
beamlets. Each beam's entries are kept as compact (int32 row, int32 column,
value) arrays, and the CSR arrays of A are written from them in place: at the
build's peak an entry takes about 28 bytes, 2.3x its 12 bytes in the finished
matrix, where (row, column, value) triples and their COO-to-CSR copies took
about 70. A plan minimises sum_s (w_s / N_s) ||A_s x - p_s||^2
over fluence x >= 0 (p_s: prescription of a PTV, 0 for an OAR); scaling
structure s's rows and target by sqrt(w_s / N_s) makes that min ||M x - b||^2,
solved by the Chambolle-Pock primal-dual iteration. The iteration runs in
beamlet space: it carries s M^T y instead of the dual y, so each step is one
product with the dense Gram matrix G = M^T M (8 n^2 bytes for n beamlets)
instead of one product each with M and M^T. That product is one BLAS dsymv,
which reads only one triangle of the symmetric G and folds the dual step's
scaling into its alpha and beta. Every dense product of a plan goes through
scipy.linalg.blas (see `_gram`). Neither scipy module is imported with this
module: scipy.sparse is imported on a process's first influence build and
scipy.linalg.blas on its first plan. They cost about 0.2-0.3 s and 50-70 ms
to load, which importing the package (and `dosekit phantom`) should not pay.
The iterates are checked for finiteness once per block of 64 iterations, and a
block that ends non-finite is replayed with a check after every iteration, so a
divergence is still reported at its exact first iteration. Sampling the
structure tradeoff weights sweeps the Pareto surface.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DosekitError, ValidationError
from .phantom import PatientCase
from .seeds import derive_seed
from .volume import (Record, StructureMask, StructureSet, VoxelGrid, _atomic_write_bytes,
                     _read_bytes, read_manifest, read_volume, write_manifest, write_volume)

if typing.TYPE_CHECKING:
    import scipy.sparse as sp

# `sample_weights` draws OAR weights log-uniform on [lo, hi].
WEIGHT_BOUNDS = (0.01, 1.0)
# Ray steps that `build_influence_matrix` samples at once for every column.
_MARCH_CHUNK = 16


class PlannerError(DosekitError):
    pass


class PlannerGeometryError(PlannerError):
    """Beam arrangement leaves target voxels with zero influence."""


class FluenceFileError(PlannerError):
    """A saved fluence file that is not the plan's beamlet count of <f4 values."""


class SolverDivergenceError(PlannerError):
    def __init__(self, iteration: int, what: str = "iterate"):
        self.iteration = iteration
        super().__init__(f"non-finite {what} at iteration {iteration}")


@dataclass(frozen=True)
class BeamConfig(Record):
    """Equispaced coplanar beams with Gaussian beamlet falloff."""

    n_beams: int = 7
    beamlet_grid: tuple[int, int] = (8, 6)  # (lateral, axial) beamlets per beam
    attenuation_mu: float = 0.005  # per mm
    lateral_sigma: float = 5.0  # mm
    lateral_cutoff: float = 15.0  # mm
    field_margin_mm: float = 5.0
    ray_step_mm: float = 2.5

    def __post_init__(self):
        if self.n_beams < 1:
            raise ValidationError("n_beams must be >= 1")
        # NaN fails v > 0; an infinite cutoff would make every (voxel, beamlet) an entry
        if not all(math.isfinite(v) and v > 0 for v in (
                *self.beamlet_grid, self.attenuation_mu, self.lateral_sigma,
                self.lateral_cutoff, self.field_margin_mm, self.ray_step_mm)):
            raise ValidationError("beam parameters must be finite and strictly positive")


def beamlet_kernel(depth_mm, lateral_sq_mm2, cfg: BeamConfig) -> np.ndarray:
    """exp(-mu*depth) * exp(-r^2 / (2 sigma^2)) elementwise, zero where r^2 > cutoff^2."""
    value = np.exp(-cfg.attenuation_mu * depth_mm) * np.exp(
        -lateral_sq_mm2 / (2.0 * cfg.lateral_sigma**2)
    )
    return np.where(lateral_sq_mm2 <= cfg.lateral_cutoff**2, value, 0.0)


@dataclass(frozen=True, eq=False)
class InfluenceMatrix:
    """Sparse beamlet-to-voxel dose map over the body voxels.

    Row i corresponds to the body voxel with raster index voxel_indices[i];
    columns are beamlets ordered beam-major, lateral index next, axial last.
    """

    matrix: sp.csr_matrix
    voxel_indices: np.ndarray
    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]

    def __post_init__(self):
        if self.matrix.shape[0] != self.voxel_indices.size:
            raise ValidationError("row count must match the voxel index map")
        data = self.matrix.data
        # min and max are NaN if any entry is, and NaN fails both comparisons
        if data.size and not (data.min() >= 0 and data.max() < np.inf):
            raise ValidationError("influence entries must be finite and nonnegative")

    @property
    def n_beamlets(self) -> int:
        return self.matrix.shape[1]

    def rows_for(self, mask: StructureMask) -> np.ndarray:
        """Row positions of a structure's voxels (all lie inside the body)."""
        wanted = mask.linear_indices()
        pos = np.searchsorted(self.voxel_indices, wanted)
        if pos.size and (pos.max() >= self.voxel_indices.size or
                         np.any(self.voxel_indices[pos] != wanted)):
            raise ValidationError(f"structure {mask.name!r} has voxels outside the body rows")
        return pos.astype(np.int64)


def _lateral_entries(pu, u_offsets, dz2, field_dz2, depth, cfg: BeamConfig):
    """One beam's entries as (int32 row, int32 beam-local column u * nv + v, value),
    rows ascending and columns ascending within a row.

    pu is each row's lateral coordinate along the beam, dz2 its squared axial
    distance to each axial beamlet centre and field_dz2 to the nearest one. Only
    rows within the cutoff (plus a 1 % margin) of the rectangle spanned by the
    beamlet centres are tested, and of those only the (row, u) pairs whose
    lateral distance alone is within the cutoff are expanded over the axial
    offsets, because r^2 = du^2 + dz^2 >= du^2. Each temporary is released once
    the next is formed, so the kernel is evaluated with only the entries' own
    arrays alive, and no two beams' temporaries are alive at once.
    """
    nu, nv = cfg.beamlet_grid
    cutoff2 = cfg.lateral_cutoff**2
    field_du = np.maximum(np.maximum(u_offsets[0] - pu, pu - u_offsets[-1]), 0.0)
    near = np.flatnonzero(field_du**2 + field_dz2 <= (1.01 * cfg.lateral_cutoff) ** 2)
    du2 = ((pu[near, None] - u_offsets[None, :]) ** 2).ravel()
    pair = np.flatnonzero(du2 <= cutoff2)  # the (row, u) pairs, flat in near x nu
    pair_row, pair_u = near[pair // nu], pair % nu
    r2 = dz2[pair_row]  # a copy; IEEE addition commutes, so r2 = du2 + dz2 exactly
    r2 += du2[pair, None]
    del du2, pair
    r2 = r2.ravel()
    entry = np.flatnonzero(r2 <= cutoff2)  # flat in pairs x nv
    r2 = r2[entry]
    entry_pair, v = np.divmod(entry, nv)
    del entry
    row = pair_row[entry_pair]
    col = (pair_u[entry_pair] * nv + v).astype(np.int32)
    del pair_row, pair_u, entry_pair, v
    return row.astype(np.int32), col, beamlet_kernel(depth[row], r2, cfg)


def _csr_from_beams(beams: list, shape: tuple[int, int]) -> sp.csr_matrix:
    """The CSR matrix of equal-width column blocks, one per beam, written in place.

    beams[b] is beam b's (row, beam-local column, value) from `_lateral_entries`.
    indptr comes from each row's entry count over all beams. Columns run
    beam-major, so in row r beam b's entries follow those of every earlier beam:
    its k-th entry goes to indptr[r] + fill[r] + (k - first[r]), where fill[r]
    counts the entries of earlier beams in row r and first[r] those of beam b in
    rows before r. One running O(rows) array holds indptr[r] + fill[r]. Rows
    ascend within a beam and columns within a row, so the result is canonical,
    with the index dtype scipy gives the same matrix built from (row, column,
    value) triples: int32, or int64 past 2^31 - 1. Each beam's entries are
    released once written (beams[b] is set to None).
    """
    import scipy.sparse as sp

    n_rows, n_cols = shape
    row_nnz = np.zeros(n_rows, dtype=np.int64)
    for row, _, _ in beams:
        row_nnz += np.bincount(row, minlength=n_rows)
    nnz = int(row_nnz.sum())
    idx_dtype = np.int32 if max(nnz, n_cols) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n_rows + 1, dtype=idx_dtype)
    np.cumsum(row_nnz, out=indptr[1:])
    indices = np.empty(nnz, dtype=idx_dtype)
    data = np.empty(nnz)
    fill = indptr[:-1].astype(np.int64)
    width = n_cols // len(beams)
    for b in range(len(beams)):
        row, col, val = beams[b]
        beams[b] = None
        count = np.bincount(row, minlength=n_rows)
        slot = (fill - (np.cumsum(count) - count))[row]
        slot += np.arange(row.size)
        indices[slot] = col + b * width
        data[slot] = val
        fill += count
    return sp.csr_matrix((data, indices, indptr), shape=shape)


def build_influence_matrix(case: PatientCase, cfg: BeamConfig) -> InfluenceMatrix:
    """Ray-march depths and Gaussian lateral falloff for every (voxel, beamlet).

    A voxel's depth along beam direction d is ``ray_step_mm`` times the number
    of samples ``center - s*d`` (s = ray_step_mm, 2*ray_step_mm, ...) whose cell
    ``floor(pos / spacing)`` is a body voxel.

    Precondition: every beam is coplanar, d = (cos phi, sin phi, 0). A sample
    then keeps its voxel's z cell, and all body voxels of one (x, y) column
    visit the same (x, y) cells at the same steps. So the march runs over the
    body's (x, y) columns, not its voxels. It samples every column at
    _MARCH_CHUNK steps at once and keeps the samples whose cell lies in the
    body mask's bounding box, as (column, cell) visits. A column's depth count
    at height z is then the number of its visits to cells whose z is body: one
    sparse product, per beam, of the (columns x box cells) visit matrix with
    the body's per-cell z lines (box cells x box z-extent). The march stops at
    the first chunk without an in-box sample: each axis of the sampled cell
    moves monotonically with s, so a ray never re-enters the (convex) box, and
    no body cell lies outside it.

    Lateral entries are formed only within ``lateral_cutoff``, by
    `_lateral_entries`, and each beam keeps them as an int32 row, an int32
    beam-local column and a float64 value: 16 bytes per entry. `_csr_from_beams`
    then writes the CSR index and data arrays in place (12 bytes per entry),
    releasing each beam's entries once written. The build's memory is therefore
    about 28 bytes per entry of the result, about 2.3x the matrix, plus
    O(body voxels) per-voxel arrays and one beam's lateral temporaries, which are
    O(body voxels x lateral beamlets per beam). By tracemalloc, its peak is
    21.1 MB for the 5.0 MB matrix of 64x64x32 siteA patient 1 with 7 beams, and
    55.3 MB for the 23 MB matrix of desk siteB patient 1 with 72 beams.
    """
    import scipy.sparse as sp

    structures = case.structures
    dims = structures.dims
    spacing = np.asarray(structures.spacing, dtype=np.float64)
    body = structures.body
    body_arr = body.bool_array()
    body_idx = body.linear_indices()

    nx = dims[0]
    gx, gy, gz = np.unravel_index(body_idx, dims, order="F")
    cells = np.stack([gx, gy, gz], axis=1)
    centers = (cells.astype(np.float64) + 0.5) * spacing
    box_lo, box_hi = cells.min(axis=0), cells.max(axis=0)

    # the body's (x, y) columns (centres as an (axis, column) array) and the
    # column of each body voxel; the body mask's z line at each (x, y) cell of
    # the box, cell index x + box width * y from the box corner; and each body
    # voxel's entry in the flattened (column, z) depth count
    col_keys, col_of = np.unique(gx + nx * gy, return_inverse=True)
    col_xy = (np.stack([col_keys % nx, col_keys // nx]) + 0.5) * spacing[:2, None]
    box = body_arr[box_lo[0]:box_hi[0] + 1, box_lo[1]:box_hi[1] + 1, box_lo[2]:box_hi[2] + 1]
    box_w, nz_box = box.shape[0], box.shape[2]
    z_lines = box.transpose(1, 0, 2).reshape(-1, nz_box).astype(np.int32)
    count_at = col_of * nz_box + (gz - box_lo[2])
    del cells, gx, gy, gz, col_of

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
    field_dz2 = np.maximum(np.maximum(z_offsets[0] - pz, pz - z_offsets[-1]), 0.0) ** 2

    # one chunk's (axis, step, column) sample cells, their in-box flags and scratch
    pos = np.empty((2, _MARCH_CHUNK, col_keys.size))
    in_box = np.empty((_MARCH_CHUNK, col_keys.size), dtype=bool)
    edge = np.empty_like(in_box)
    col_ids = np.tile(np.arange(col_keys.size, dtype=np.int32), (_MARCH_CHUNK, 1))
    beams = []
    for b in range(cfg.n_beams):
        phi = 2.0 * np.pi * b / cfg.n_beams
        d = np.array([np.cos(phi), np.sin(phi), 0.0])
        u = np.array([-np.sin(phi), np.cos(phi), 0.0])

        pu_ptv = (ptv_pts - iso) @ u
        u_lo, u_hi = pu_ptv.min() - cfg.field_margin_mm, pu_ptv.max() + cfg.field_margin_mm
        u_offsets = np.linspace(u_lo, u_hi, nu)

        # material path length upstream of each voxel along -d, counted per column
        # (the empty arrays stand for a beam whose first samples all leave the box)
        visit_cols, visit_cells = [np.empty(0, np.int32)], [np.empty(0, np.int32)]
        for first in range(0, steps.size, _MARCH_CHUNK):
            s = steps[first:first + _MARCH_CHUNK]
            p, inside, t = pos[:, :s.size], in_box[:s.size], edge[:s.size]
            np.subtract(col_xy[:, None, :], np.multiply.outer(d[:2], s)[:, :, None], out=p)
            p /= spacing[:2, None, None]
            np.floor(p, out=p)
            x, y = p
            np.greater_equal(x, box_lo[0], out=inside)
            inside &= np.less_equal(x, box_hi[0], out=t)
            inside &= np.greater_equal(y, box_lo[1], out=t)
            inside &= np.less_equal(y, box_hi[1], out=t)
            if not inside.any():
                break
            # integer-valued floats, so the box cell index is exact
            x -= box_lo[0]
            y -= box_lo[1]
            y *= box_w
            x += y
            visit_cols.append(col_ids[:s.size][inside])
            visit_cells.append(x[inside].astype(np.int32))
        col = np.concatenate(visit_cols)
        visits = sp.coo_matrix((np.ones(col.size, dtype=np.int32),
                                (col, np.concatenate(visit_cells))),
                               shape=(col_keys.size, z_lines.shape[0]))
        count = visits @ z_lines
        depth = cfg.ray_step_mm * count.ravel()[count_at].astype(np.float64)

        beams.append(_lateral_entries((centers - iso) @ u, u_offsets, dz2, field_dz2,
                                      depth, cfg))

    matrix = _csr_from_beams(beams, (body_idx.size, cfg.n_beams * nu * nv))
    matrix.eliminate_zeros()  # entries that underflow to 0 inside the cutoff

    infl = InfluenceMatrix(
        matrix=matrix,
        voxel_indices=body_idx,
        dims=dims,
        spacing=tuple(structures.spacing),
    )
    reach = np.diff(matrix.indptr) > 0
    for ptv in structures.ptvs:
        rows = infl.rows_for(ptv)
        missed = int(np.count_nonzero(~reach[rows]))
        if missed:
            raise PlannerGeometryError(
                f"{missed} voxels of {ptv.name!r} receive no beamlet influence"
            )
    return infl


@dataclass(frozen=True)
class PlanWeights:
    """Tradeoff weight per objective structure (every PTV and OAR)."""

    weights: dict[str, float]

    def __post_init__(self):
        if not all(math.isfinite(w) and w > 0 for w in self.weights.values()):
            raise ValidationError("all tradeoff weights must be positive and finite")

    def __getitem__(self, name: str) -> float:
        return self.weights[name]


def sample_weights(structures: StructureSet, seed: int) -> PlanWeights:
    """PTV weights pinned at 1; OAR weights log-uniform on WEIGHT_BOUNDS."""
    lo, hi = WEIGHT_BOUNDS
    rng = np.random.default_rng(seed)
    weights: dict[str, float] = {}
    for ptv in structures.ptvs:
        weights[ptv.name] = 1.0
    for oar in structures.oars:
        weights[oar.name] = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    return PlanWeights(weights)


# Power steps of `estimate_operator_norm`.
POWER_STEPS = 50
# `solve_stacked` reports a plan converged when its KKT residual is at most this
# share of ||2c||, the gradient norm at x = 0.
KKT_RTOL = 1e-9
# Iterations of `solve_stacked` between two finiteness checks of its iterates.
_BLOCK = 64


def estimate_operator_norm(G) -> float:
    """||M|| = sqrt(largest eigenvalue of G = M^T M), by POWER_STEPS power steps on G
    from the all-ones vector.

    G is entrywise nonnegative, so by Perron-Frobenius it has a nonnegative
    eigenvector for its largest eigenvalue, and the all-ones start overlaps it.
    Each step is one dsymv on the symmetric G, through scipy's BLAS (see
    `_gram`).
    """
    from scipy.linalg.blas import dsymv

    v = np.ones(G.shape[1]) / np.sqrt(G.shape[1])
    lam = 0.0
    for _ in range(POWER_STEPS):
        w = dsymv(1.0, G.T, v)
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 0.0
        v = w / lam
    return float(np.sqrt(lam))


@dataclass(frozen=True)
class PlanDiagnostics(Record):
    iterations: int
    converged: bool
    final_objective: float
    objective_at_zero: float
    operator_norm: float
    # ||x - max(x - grad f(x), 0)||, zero exactly at the optimum
    kkt_residual: float


@dataclass(frozen=True, eq=False)
class Plan:
    patient_id: str
    index: int
    weights: PlanWeights
    fluence: np.ndarray
    dose: VoxelGrid
    diagnostics: PlanDiagnostics

    def __post_init__(self):
        if not np.all(np.isfinite(self.fluence) & (self.fluence >= 0)):
            raise ValidationError("fluence must be finite and nonnegative")


def _residual_sq(M, b, x) -> float:
    r = M @ x - b
    return float(r @ r)


def _gram(M, b):
    """G = M^T M (dense, 8 n^2 bytes for n beamlets: 0.9 MB at 336) and c = M^T b.

    Forming G densifies M once, 8 n bytes per row of M. G is one BLAS dsyrk,
    which fills the upper triangle of a zeroed matrix; adding its transpose
    mirrors it exactly (each off-diagonal entry is added to 0), so G is exactly
    symmetric, as `solve_stacked` requires. The dense products of a plan (here, in
    `estimate_operator_norm` and in `solve_stacked`) all go through
    scipy.linalg.blas, not numpy's matmul: numpy and scipy each bundle their own
    OpenBLAS, and with more than one BLAS thread the idle workers of one spin
    while the other's run, which made the solve 1.7-3.2x slower on a 2-core host.
    G and c were bit-identical to numpy's ``dense.T @ dense`` and
    ``dense.T @ b`` on every desk and 64x64x32 plan checked."""
    from scipy.linalg.blas import dgemv, dsyrk

    dense = M.toarray()
    n = dense.shape[1]
    # dense.T is the Fortran-ordered view of dense, so neither call copies it
    upper = dsyrk(1.0, dense.T, c=np.zeros((n, n), order="F"), overwrite_c=1)
    G = np.add(upper, upper.T, order="C")
    np.fill_diagonal(G, upper.diagonal())
    return G, dgemv(1.0, dense.T, b)


def _cp_step(dsymv, Gt, a, ssa, w_shift, x, xbar, w, t):
    """One iteration of `solve_stacked`, with w = s M^T y: w and xbar are updated in
    place and the new x is written into t. Returns (new x, old x, w), the old x's
    buffer to be the next call's t.

    w <- a w + ssa G xbar - w_shift, x_new = max(x - w, 0), xbar = x_new + (x_new - x),
    with a = 1 / (1 + s/2), ssa = s^2 a and w_shift = ssa c. The first two terms
    are one dsymv on Gt, the Fortran-ordered view of G; its result is used, not
    assumed to be in w."""
    w = dsymv(ssa, Gt, xbar, beta=a, y=w, overwrite_y=1)
    w -= w_shift
    np.subtract(x, w, out=t)
    np.maximum(t, 0.0, out=t)
    np.subtract(t, x, out=xbar)
    xbar += t
    return t, x, w


def _finite(x, w) -> bool:
    return bool(np.all(np.isfinite(x)) and np.all(np.isfinite(w)))


def solve_stacked(M, b, G, c, operator_norm: float, max_iters: int):
    """Chambolle-Pock (theta = 1) on min_{x>=0} ||M x - b||^2, run in beamlet space
    for exactly `max_iters` iterations. G must be exactly symmetric, as `_gram`
    returns it: the iteration reads only one of its triangles.

    With f(v) = ||v - b||^2 the dual prox is
    prox_{s f*}(v) = (v - s b) / (1 + s/2); the primal prox is projection onto
    x >= 0. Both steps are s = 0.95 / ||M||, so s^2 ||M||^2 < 1.

    The dual y (one entry per row of M) enters the primal step only as s M^T y, so
    the loop carries w = s M^T y (one entry per beamlet) instead. Applying s M^T
    to the dual step gives w <- a w + s^2 a (G xbar - c), a = 1 / (1 + s/2), with
    G = M^T M and c = M^T b from `_gram`, and the primal step is
    x <- max(x - w, 0): the iterates are those of the row-space iteration in exact
    arithmetic. a w + s^2 a G xbar is one BLAS dsymv (alpha s^2 a, beta a) on G.T,
    the Fortran-ordered view of the C-ordered G, which is G itself because G is
    symmetric. dsymv reads only the triangle it is told to (half of G's 8 n^2
    bytes), where a general product streams all of G, and its alpha and beta
    replace the separate scaling passes over w. The final objective is
    ||M x - b||^2 from M, not x^T G x - 2 c^T x + b^T b, which cancels near the
    optimum.

    `converged` means kkt_residual <= KKT_RTOL * ||2c||, KKT_RTOL = 1e-9. The KKT
    residual ||x - max(x - 2(G x - c), 0)|| is zero exactly at the optimum, and
    2c = -grad f(0) is the gradient at x = 0, so KKT_RTOL has no units.

    Unlike y, whose zero-residual entries decayed to subnormals that slowed every
    step, w needs no subnormal flush: no entry of w, x or xbar was subnormal in
    the 33 plans of one desk-pareto and one scaled-influence pass or in the
    20 000-iteration Pareto-monotonicity solves.

    A diverging iterate overflows to inf and raises SolverDivergenceError with the
    first iteration whose x or w is not finite. A finite last iterate whose
    diagnostics (KKT residual, objectives, ||2c||) overflow raises it too, with
    iteration `max_iters`. The iterations run in blocks of
    _BLOCK, and x and w are checked once at the end of each block: a non-finite
    entry of x or w stays non-finite in every later iteration (inf and nan
    survive +, -, *, dsymv and np.maximum), so a block that ends finite had no
    non-finite iterate. A block that ends non-finite is replayed from the x, xbar
    and w saved at its start, checking after every iteration, so the reported
    iteration is exact. Each iteration (`_cp_step`) runs in place in preallocated
    buffers.
    """
    from scipy.linalg.blas import dsymv

    s = 0.95 / max(operator_norm, 1e-12)
    a = 1.0 / (1.0 + s / 2.0)
    ssa = s * s * a
    step = dsymv, G.T, a, ssa, ssa * c
    n = M.shape[1]
    x, xbar, w, t = np.zeros(n), np.zeros(n), np.zeros(n), np.empty(n)
    # a diverging iterate overflows to inf inside the loop; `_finite` reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(1, max_iters + 1, _BLOCK):
            block = range(first, min(first + _BLOCK, max_iters + 1))
            start = x.copy(), xbar.copy(), w.copy()
            for _ in block:
                x, t, w = _cp_step(*step, x, xbar, w, t)
            if _finite(x, w):
                continue
            x[:], xbar[:], w[:] = start
            for it in block:
                x, t, w = _cp_step(*step, x, xbar, w, t)
                if not _finite(x, w):
                    raise SolverDivergenceError(it)
    # a finite x near overflow can still give non-finite diagnostics
    with np.errstate(over="ignore", invalid="ignore"):
        grad = 2.0 * (dsymv(1.0, G.T, x) - c)
        kkt = float(np.linalg.norm(x - np.maximum(x - grad, 0.0)))
        final_objective = _residual_sq(M, b, x)
        objective_at_zero = float(b @ b)
        grad_at_zero = float(np.linalg.norm(2.0 * c))
    if not all(np.isfinite((kkt, final_objective, objective_at_zero, grad_at_zero))):
        raise SolverDivergenceError(max_iters, "diagnostics")
    return x, PlanDiagnostics(
        iterations=max_iters,
        converged=kkt <= KKT_RTOL * grad_at_zero,
        final_objective=final_objective,
        objective_at_zero=objective_at_zero,
        operator_norm=operator_norm,
        kkt_residual=kkt,
    )


def _objective_blocks(infl: InfluenceMatrix, structures: StructureSet,
                      weights: PlanWeights):
    """M and b with objective = ||M x - b||^2: structure s's influence rows and
    target, scaled by sqrt(w_s / N_s)."""
    rows_list, scale_list, b_list = [], [], []
    for s in (*structures.ptvs, *structures.oars):
        if s.name not in weights.weights:
            raise ValidationError(f"no tradeoff weight for structure {s.name!r}")
        rows = infl.rows_for(s)
        if rows.size == 0:
            continue
        scale = np.sqrt(weights[s.name] / rows.size)
        p = s.prescription if s.kind == "PTV" else 0.0
        rows_list.append(rows)
        scale_list.append(np.full(rows.size, scale))
        b_list.append(np.full(rows.size, scale * p))
    M = infl.matrix[np.concatenate(rows_list)]  # a copy: scaling it leaves infl intact
    M.data *= np.repeat(np.concatenate(scale_list), np.diff(M.indptr))
    return M, np.concatenate(b_list)


def objective(infl: InfluenceMatrix, structures: StructureSet,
              weights: PlanWeights, fluence: np.ndarray) -> float:
    """sum_s (w_s / N_s) * ||A_s x - p_s||^2 with p = prescription (PTV) or 0 (OAR)."""
    fluence = np.asarray(fluence, dtype=np.float64)
    if fluence.shape != (infl.n_beamlets,):
        raise ValidationError(
            f"fluence length {fluence.shape} does not match {infl.n_beamlets} beamlets"
        )
    M, b = _objective_blocks(infl, structures, weights)
    return _residual_sq(M, b, fluence)


def scatter_dose(infl: InfluenceMatrix, fluence: np.ndarray) -> VoxelGrid:
    """Map body-row doses back onto the full grid (zero outside the body)."""
    dose_rows = infl.matrix @ np.asarray(fluence, dtype=np.float64)
    flat = np.zeros(int(np.prod(infl.dims)), dtype=np.float64)
    flat[infl.voxel_indices] = dose_rows
    return VoxelGrid(infl.dims, infl.spacing, flat.reshape(infl.dims, order="F").astype(np.float32))


def solve_fluence(
    infl: InfluenceMatrix,
    structures: StructureSet,
    weights: PlanWeights,
    max_iters: int = 2000,
    patient_id: str = "",
    index: int = 0,
) -> Plan:
    """One plan: build M and b for `weights` and G = M^T M, c = M^T b from them,
    estimate ||M|| on G, run the CP solve."""
    M, b = _objective_blocks(infl, structures, weights)
    G, c = _gram(M, b)
    x, diagnostics = solve_stacked(M, b, G, c, estimate_operator_norm(G), max_iters)
    return Plan(
        patient_id=patient_id,
        index=index,
        weights=weights,
        fluence=x,
        dose=scatter_dose(infl, x),
        diagnostics=diagnostics,
    )


def generate_plans(
    case: PatientCase,
    cfg: BeamConfig,
    plan_count: int,
    seed: int,
    max_iters: int = 2000,
) -> list[Plan]:
    """Pseudo-random Pareto samples: one weight draw and one solve per plan."""
    if plan_count < 1:
        raise ValidationError("plan_count must be >= 1")
    infl = build_influence_matrix(case, cfg)
    plans = []
    for i in range(plan_count):
        weights = sample_weights(case.structures, seed=derive_seed(seed, "weights", i))
        try:
            plans.append(solve_fluence(infl, case.structures, weights, max_iters,
                                       patient_id=case.id, index=i))
        except PlannerError as exc:
            # re-raised as itself, so its class and attributes (a divergence's
            # .iteration) reach the caller, with the plan named in its message
            exc.args = (f"plan {i} for {case.id}: {exc}",)
            raise
    return plans


PLAN_JSON = "plan.json"
DOSE_FILE = "dose.dvol"
FLUENCE_FILE = "fluence.f32"
# 2: the diagnostics changed shape, and `converged` became the KKT-residual bound;
# 3: the sampler's weight bounds are no longer saved
PLAN_VERSION = 3


@dataclass(frozen=True)
class PlanManifest(Record):
    """A saved plan's PLAN_JSON file; its dose and fluence are the DOSE_FILE and
    FLUENCE_FILE next to it."""

    patient_id: str
    index: int
    weights: dict[str, float]
    diagnostics: PlanDiagnostics
    n_beamlets: int

    def __post_init__(self):
        PlanWeights(self.weights)  # so that bad weights fail to decode


def save_plan(directory, plan: Plan) -> None:
    directory = Path(directory)
    write_volume(plan.dose, directory / DOSE_FILE)
    _atomic_write_bytes(directory / FLUENCE_FILE, np.asarray(plan.fluence, dtype="<f4").tobytes())
    write_manifest(directory / PLAN_JSON, PlanManifest(
        plan.patient_id, plan.index, plan.weights.weights, plan.diagnostics,
        int(plan.fluence.size)), PLAN_VERSION)


def load_plan(directory) -> Plan:
    directory = Path(directory)
    meta = read_manifest(directory / PLAN_JSON, PlanManifest, PLAN_VERSION)
    raw = _read_bytes(directory / FLUENCE_FILE)
    if len(raw) != 4 * meta.n_beamlets:
        raise FluenceFileError(f"{directory / FLUENCE_FILE}: {len(raw)} bytes, "
                               f"expected {meta.n_beamlets} <f4 values")
    with np.errstate(invalid="ignore"):  # casting a signalling NaN, which Plan rejects
        fluence = np.frombuffer(raw, dtype="<f4").astype(np.float64)
    return Plan(
        patient_id=meta.patient_id,
        index=meta.index,
        weights=PlanWeights(meta.weights),
        fluence=fluence,
        dose=read_volume(directory / DOSE_FILE),
        diagnostics=meta.diagnostics,
    )
