"""Ground-truth plan factory.

A simplified ray/attenuation model builds a sparse dose-influence matrix A for
equispaced coplanar beams. Each beam's work scales with the rows near its
field, not with the body: depths come from a ray march over only the (x, y)
columns that hold such a row, each sampled in one pass up to two steps past its
exit from the body box, whose in-box samples become one sparse visit-count
product per beam; lateral entries are
formed only for the (voxel, lateral beamlet) pairs within the cutoff, then
expanded over the axial window of the voxel's z level: the axial beamlets
whose axial distance alone is within the cutoff (2 of 6 at 64x64x32), as no
other can hold an entry. Each beam's entries are kept row by row as compact
(int32 column, value) arrays, with one (row, count) run per row, and the CSR
arrays of A are written from them in place, counting each beam's rows once: at
the build's peak an entry takes about 26 bytes, 2.2x its 12 bytes in the
finished matrix. Two beams are built at once, one on the calling thread and
one on a helper thread, as numpy releases the GIL in their array passes; the
calling thread gives each beam's entries their values, in beam order, so the
matrix is bit-identical to a one-thread build. A plan minimises
sum_s (w_s / N_s) ||A_s x - p_s||^2 over fluence x >= 0 (p_s: prescription of
a PTV, 0 for an OAR); scaling structure s's rows and target by
sqrt(w_s / N_s) makes that min ||M x - b||^2, solved by the Chambolle-Pock
primal-dual iteration. The iteration runs in
beamlet space: it carries s M^T y instead of the dual y, so each step is one
product with the Gram matrix G = M^T M instead of one product each with M and
M^T. That product is one BLAS dsymv, which reads only the upper triangle of the
symmetric G and folds the dual step's scaling into its alpha and beta; so G is
kept as that triangle alone, the F-ordered n x n array (8 n^2 bytes for n
beamlets) that dsyrk writes, its strict lower triangle 0. Every dense product
of a plan goes through scipy.linalg.blas (see `_gram`). Neither scipy module is
imported with this module: scipy.sparse (and concurrent.futures) is imported on
a process's first influence build, scipy.linalg.blas on its first plan, and
multiprocessing on its first call that starts a helper process. The two scipy
modules cost about 0.2-0.3 s and 50-70 ms to load, and multiprocessing about
6 ms, which importing the package (and `dosekit phantom`) should not pay.
At n = 336 beamlets that product is most of an iteration, so the loop keeps
Python small around it: each iteration runs inline as one positional dsymv call
and four ufunc calls writing into preallocated buffers, with no function call
or allocation of its own. The iterates are checked for finiteness once per
block of 64 iterations, and a block that ends non-finite is replayed, through
the same loop body, with a check after every iteration, so a divergence is
still reported at its exact first iteration. Sampling the structure tradeoff
weights sweeps the Pareto surface.

Where plans run. Threads cannot solve two plans at once: scipy's BLAS wrappers,
dsymv among them, hold the GIL (two threads solving two desk plans took 64 ms,
against 72 ms one after the other). So when the odd plans of a `generate_plans`
call hold at least _HELPER_MIN_ITERS = 2000 CP iterations, (plan_count // 2) *
max_iters, and os.fork exists, one helper process is forked after the
influence build. It inherits the case and matrix, solves every odd plan, all
queued at the start, while the caller solves the even ones, and sends each
plan back pickled; the plans come back in index order, bit-identical to a
one-process loop's. A fork costs about 10-20 ms per call on a 2-core host
(2 ms to fork, about 5 ms of copy-on-write faults in each process, 3-4 ms to
reap). Against one process the helper measured -33 to -37 % of the call's time
at 8 plans x 2000 iterations and -13 to -22 % at 2 x 2000, but +15 to +36 % at
4 x 200 and 0 to +14 % at 8 x 200, so a smaller call runs every plan on the
caller. The helper forms its own G for each of its plans, so a call's memory
peak spans two processes. It is forked, not spawned: a spawned helper would
import numpy and scipy again (about 0.3 s, more than a desk case's plans) and
take the matrix as a pickle. No thread of dosekit's runs at the fork, as the
build's helper thread is joined and the pool starts its own thread after
forking, so a caller that runs threads of its own shares the fork's risks.
"""

from __future__ import annotations

import copyreg
import math
import os
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DosekitError, ValidationError
from .phantom import PatientCase
from .seeds import derive_seed
from .volume import (PTV, SPACING_MM, FileFormatError, Record, StructureMask, StructureSet,
                     VoxelGrid, _atomic_write_bytes, _count, _counts, _read_bytes, _uncommit,
                     read_manifest, read_volume, write_manifest, write_volume)

if typing.TYPE_CHECKING:
    import scipy.sparse as sp

# `sample_weights` draws OAR weights log-uniform on [lo, hi].
WEIGHT_BOUNDS = (0.01, 1.0)


class PlannerError(DosekitError):
    pass


class PlannerGeometryError(PlannerError):
    """Target voxels that no beamlet reaches."""


class SolverDivergenceError(PlannerError):
    def __init__(self, iteration: int, what: str = "iterate"):
        self.iteration = iteration
        super().__init__(f"non-finite {what} at iteration {iteration}")

    def __reduce__(self):
        # a copy (the pickle that brings a plan's failure from the helper process)
        # keeps args and .iteration as they stand; rebuilt through __init__, it would
        # take its message, a plan's prefix included, as its iteration
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


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
        object.__setattr__(self, "n_beams", _count(self.n_beams, "n_beams"))
        object.__setattr__(self, "beamlet_grid", _counts(self.beamlet_grid, "beamlet_grid", 2))
        # NaN fails v > 0; an infinite cutoff would make every (voxel, beamlet) an entry
        if not all(math.isfinite(v) and v > 0 for v in (
                self.attenuation_mu, self.lateral_sigma,
                self.lateral_cutoff, self.field_margin_mm, self.ray_step_mm)):
            raise ValidationError("beam parameters must be finite and strictly positive")


def beamlet_kernel(depth_mm, lateral_sq_mm2, cfg: BeamConfig) -> np.ndarray:
    """exp(-mu*depth) * exp(-r^2 / (2 sigma^2)) elementwise; the builder applies the cutoff."""
    return np.exp(-cfg.attenuation_mu * depth_mm) * np.exp(
        -lateral_sq_mm2 / (2.0 * cfg.lateral_sigma**2)
    )


@dataclass(frozen=True, eq=False)
class InfluenceMatrix:
    """Sparse beamlet-to-voxel dose map over the body voxels.

    Row i corresponds to the body voxel with raster index voxel_indices[i];
    columns are beamlets ordered beam-major, lateral index next, axial last.
    """

    matrix: sp.csr_matrix
    voxel_indices: np.ndarray
    dims: tuple[int, int, int]

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
        if pos.max() >= self.voxel_indices.size or np.any(self.voxel_indices[pos] != wanted):
            raise ValidationError(f"structure {mask.name!r} has voxels outside the body rows")
        return pos.astype(np.int64)


def _axial_windows(level_dz2, cfg: BeamConfig):
    """The axial window of each (z level k, lateral beamlet u), in row k * nu + u
    of (window_col, window_dz2), both ((z levels * nu) x W).

    level_dz2[k, v] is the squared axial distance from z level k to axial
    beamlet v. Level k's window lists, ascending, the v with level_dz2[k, v] <=
    cutoff^2: window_col holds their beam-local columns u * nv + v and
    window_dz2 their level_dz2. W is the largest such count, and a shorter
    window is padded with unreached v and dz2 = inf. No other v can hold an
    entry: under round-to-nearest fl(du2 + dz2) >= dz2 for du2 >= 0, so r^2 >
    cutoff^2 wherever dz2 is, and inf + du2 is never within the cutoff.
    """
    nu, nv = cfg.beamlet_grid
    reach = level_dz2 <= cfg.lateral_cutoff**2
    width = int(reach.sum(axis=1).max(initial=0))
    # a stable sort of ~reach puts each level's reached v first, in ascending order
    v = np.argsort(~reach, axis=1, kind="stable")[:, :width]
    dz2 = np.where(np.take_along_axis(reach, v, axis=1),
                   np.take_along_axis(level_dz2, v, axis=1), np.inf)
    col = v[:, None, :] + nv * np.arange(nu)[None, :, None]
    return col.reshape(len(v) * nu, width).astype(np.int32), np.repeat(dz2, nu, axis=0)


def _lateral_entries(near, pu, depth, level, window_col, window_dz2, u_offsets,
                     cfg: BeamConfig):
    """One beam's entries, row by row, as (row, count, column, depth, r2).

    row holds the rows with an entry, ascending (as intp, which numpy indexes
    with fastest), and count (int32) the length of each one's run of entries;
    column (int32, beam-local u * nv + v), depth and r2 (float64: the entry's
    depth and squared distance to its beamlet, whose `beamlet_kernel` is its
    value) hold the entries, the runs in row order and the columns ascending
    within a run. It calls no public function, so it may run on the build's
    helper thread. near holds the rows (intp), ascending, within the cutoff of
    the rectangle spanned by the beamlet centres, which include every row with
    an entry; pu, depth and level hold each near row's lateral coordinate along
    the beam, depth and z level, and window_col and window_dz2 the axial
    windows (`_axial_windows`). Only the (row, u) pairs whose lateral distance
    alone is within the cutoff are expanded, because r^2 = du^2 + dz^2 >= du^2,
    and each only over the W slots of its level's window, not over all nv axial
    beamlets: at 64x64x32 siteA patient 1, W is 2 of nv = 6, and the (pairs x
    W) r^2 table a third of the (pairs x nv) one. Each temporary is released
    once the next is formed, so only the entries' own arrays outlive the call,
    and at most two beams' temporaries are alive at once
    (`build_influence_matrix`).
    """
    nu = u_offsets.size
    width = window_col.shape[1]
    cutoff2 = cfg.lateral_cutoff**2
    # du^2 as (nu x near), so that numpy's inner loop runs over the near rows;
    # (u - pu)^2 is (pu - u)^2 bit for bit
    du2 = np.subtract.outer(u_offsets, pu)
    np.square(du2, out=du2)
    pair = np.flatnonzero((du2 <= cutoff2).T)  # the (row, u) pairs, flat in near x nu
    pair_near = pair // nu
    pair_u = pair - pair_near * nu
    del pair
    du2 = du2.ravel().take(pair_u * pu.size + pair_near)
    # each pair's window slots, flat in pairs x width: their beam-local column and
    # r^2 (IEEE addition commutes, so r2 = du2 + dz2 exactly)
    key = level.take(pair_near)
    key *= nu
    key += pair_u
    del pair_u
    col = window_col.take(key, axis=0)
    r2 = window_dz2.take(key, axis=0)
    r2 += du2[:, None]
    del du2, key
    r2 = r2.ravel()
    entry = np.flatnonzero(r2 <= cutoff2)
    r2 = r2.take(entry)
    col = col.ravel().take(entry)
    entry //= width
    entry_near = pair_near.take(entry)
    del entry, pair_near
    # each near row's entries are one run: its first entry, row and length
    starts = np.empty(entry_near.size, dtype=bool)
    starts[:1] = True
    np.not_equal(entry_near[1:], entry_near[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    del starts
    row = near.take(entry_near.take(first))
    count = np.diff(first, append=entry_near.size).astype(np.int32)
    entry_depth = depth.take(entry_near)
    del entry_near, first
    return row, count, col, entry_depth, r2


def _csr_from_beams(beams: list, shape: tuple[int, int]) -> sp.csr_matrix:
    """The CSR matrix of equal-width column blocks, one per beam, written in place.

    beams[b] is beam b's (row, count, beam-local column, value): its
    `_lateral_entries` with each entry's `beamlet_kernel` as its value, one run
    of entries per row. The rows of a beam are counted once, by
    `_lateral_entries`: indptr comes from the runs' counts over all beams.
    Columns run beam-major, so in row r beam b's entries follow those of every
    earlier beam: the k-th entry of row r's run goes to indptr[r] + fill[r] +
    k, where fill[r] counts the entries of earlier beams in row r. One running
    O(rows) array holds indptr[r] + fill[r]. Columns ascend within a run, so
    the result is canonical, with the index dtype scipy gives the same matrix
    built from (row, column, value) triples: int32, or int64 past 2^31 - 1.
    Each beam's entries are released once written (beams[b] is set to None).
    """
    import scipy.sparse as sp

    n_rows, n_cols = shape
    row_nnz = np.zeros(n_rows, dtype=np.int64)
    for row, count, _, _ in beams:
        row_nnz[row] += count
    nnz = int(row_nnz.sum())
    idx_dtype = np.int32 if max(nnz, n_cols) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n_rows + 1, dtype=idx_dtype)
    np.cumsum(row_nnz, out=indptr[1:])
    del row_nnz
    indices = np.empty(nnz, dtype=idx_dtype)
    data = np.empty(nnz)
    fill = indptr[:-1].astype(np.int64)
    width = n_cols // len(beams)
    for b in range(len(beams)):
        row, count, col, val = beams[b]
        beams[b] = None
        # row r's run holds the beam's entries first[r], first[r] + 1, ..., and
        # its k-th entry goes to fill[r] + k
        first = np.cumsum(count)
        first -= count
        slot = np.repeat(fill.take(row) - first, count)
        slot += np.arange(col.size)
        col += b * width
        indices[slot] = col
        data[slot] = val
        fill[row] += count
    return sp.csr_matrix((data, indices, indptr), shape=shape)


def build_influence_matrix(case: PatientCase, cfg: BeamConfig) -> InfluenceMatrix:
    """Ray-march depths and Gaussian lateral falloff for every (voxel, beamlet).

    A voxel's depth along beam direction d is ``ray_step_mm`` times the number
    of samples ``center - s*d`` (s = ray_step_mm, 2*ray_step_mm, ...) whose cell
    ``floor(pos / spacing)`` is a body voxel.

    Precondition: every beam is coplanar, d = (cos phi, sin phi, 0). A sample
    then keeps its voxel's z cell, and all body voxels of one (x, y) column
    visit the same (x, y) cells at the same steps. Each beam first finds its
    near rows: those within the cutoff of the rectangle spanned by its beamlet
    centres (a lower bound on every entry's r^2). No other row has an entry, so
    depths are counted for the near rows only, and the march runs over the
    (x, y) columns that hold a near row, not over voxels or the whole body. Each
    beam samples all those columns in one pass, each up to two steps past its
    exit from the body mask's bounding box, worked out from the geometry, and
    keeps the samples whose cell lies in the box, as (column, cell) visits. A
    column's depth count at height z is then the number of its visits to cells
    whose z is body: one sparse product, per beam, of the (columns x box cells)
    visit matrix with the body's per-cell z lines (box cells x box z-extent).

    The lateral coordinate along u has no z part, so it and its distance to the
    field are worked out per (x, y) column and taken per near row.
    Lateral entries are formed only within ``lateral_cutoff``, by
    `_lateral_entries`, over each row's axial window: the axial beamlets within
    the cutoff of its z level, from one table built per build
    (`_axial_windows`). Each beam keeps its entries as an int32 beam-local
    column and a float64 value, 12 bytes per entry, and each row's entries as
    one run, an int64 row and an int32 count. `_csr_from_beams` then writes the
    CSR index and data arrays in place (12 bytes per entry), releasing each
    beam's entries once written. The build's memory is therefore about 24
    bytes per entry of the result plus 12 per run (one run per row and beam),
    about 2.2x the matrix, plus O(body voxels) index arrays and at most two
    beams' lateral temporaries, which are O(near rows x lateral beamlets per
    beam). By tracemalloc, over 12 builds, its peak is 13.0-13.4 MB
    (12.42-12.75 MiB) for the 5.0 MB matrix of 64x64x32 siteA patient 1 with 7
    beams, and 50.2-50.3 MB for the 23 MB matrix of desk siteB patient 1 with
    72 beams.

    Beams run two at a time: beam 2k on the calling thread and beam 2k + 1 on
    one helper thread, a ThreadPoolExecutor of one worker that is joined before
    the build returns or raises; numpy releases the GIL in a beam's array
    passes, so the two overlap. A beam's near rows, column march and
    `_lateral_entries` call no public function. The calling thread turns each
    beam's depths and r^2 into values with `beamlet_kernel` as soon as it has
    them, in beam order, so every public call of a build runs on the calling
    thread (a tracer that rebinds them may keep one span stack), and the
    entries, assembled in beam order, are bit-identical to a one-thread
    build's. One helper, not more: a third beam in flight raised the 64x64x32
    peak to 13.30-14.65 MiB.
    """
    from concurrent.futures import ThreadPoolExecutor

    import scipy.sparse as sp

    structures = case.structures
    dims = structures.dims
    spacing = np.asarray(SPACING_MM, dtype=np.float64)
    body = structures.body
    body_arr = body.bool_array()
    body_idx = body.linear_indices()
    ptv_union = np.zeros(dims, dtype=bool)
    for ptv in structures.ptvs:
        ptv_union |= ptv.bool_array()
    ptv_pts = (np.stack(np.nonzero(ptv_union), axis=1).astype(np.float64) + 0.5) * spacing

    # each body voxel's (x, y) column x + nx * y, and its cell as an (axis,
    # voxel) array, whose reductions run along the voxels
    nx, ny, _ = dims
    col_of = body_idx % (nx * ny)
    cells = np.stack([col_of % nx, col_of // nx, body_idx // (nx * ny)])
    box_lo, box_hi = cells.min(axis=1), cells.max(axis=1)
    iso = ptv_pts.mean(axis=0)

    # the body's (x, y) columns and the column and box z level of each body
    # voxel; the body mask's z line at each (x, y) cell of the box, cell index
    # x + box width * y from the box corner. The columns' centres, as an (axis,
    # column) array for the march, and relative to the isocentre as C-order
    # (column, axis) rows with z = 0: then each beam's lateral coordinates
    # `col_rel @ u` round as a per-voxel (voxel, axis) product would
    has_col = np.zeros(nx * ny, dtype=bool)
    has_col[col_of] = True
    col_keys = np.flatnonzero(has_col)
    col_of = (np.cumsum(has_col) - 1).take(col_of)
    del has_col
    col_xy = (np.stack([col_keys % nx, col_keys // nx]) + 0.5) * spacing[:2, None]
    col_rel = np.zeros((col_keys.size, 3))
    col_rel[:, :2] = col_xy.T - iso[:2]
    box = body_arr[box_lo[0]:box_hi[0] + 1, box_lo[1]:box_hi[1] + 1, box_lo[2]:box_hi[2] + 1]
    box_w, nz_box = box.shape[0], box.shape[2]
    z_lines = box.transpose(1, 0, 2).reshape(-1, nz_box).astype(np.int32)
    level = cells[2] - box_lo[2]
    del cells

    diag = float(np.linalg.norm(np.asarray(dims) * spacing))
    steps = np.arange(1, int(np.ceil(diag / cfg.ray_step_mm)) + 1, dtype=np.float64)
    steps *= cfg.ray_step_mm

    # squared axial distances per box z level to each axial beamlet centre, and
    # per body voxel to the nearest one
    nu, nv = cfg.beamlet_grid
    z_rel = ptv_pts[:, 2] - iso[2]
    z_lo, z_hi = z_rel.min() - cfg.field_margin_mm, z_rel.max() + cfg.field_margin_mm
    z_offsets = np.linspace(z_lo, z_hi, nv)
    pz = (np.arange(box_lo[2], box_hi[2] + 1, dtype=np.float64) + 0.5) * spacing[2] - iso[2]
    level_dz2 = (pz[:, None] - z_offsets[None, :]) ** 2
    window_col, window_dz2 = _axial_windows(level_dz2, cfg)
    nearest_dz2 = level_dz2.min(axis=1).take(level)

    def beam_entries(b):
        # beam b's `_lateral_entries`; it calls no public dosekit function, so it
        # may run on the helper thread
        phi = 2.0 * np.pi * b / cfg.n_beams
        d = np.array([np.cos(phi), np.sin(phi), 0.0])
        u = np.array([-np.sin(phi), np.cos(phi), 0.0])

        pu_ptv = (ptv_pts - iso) @ u
        u_lo, u_hi = pu_ptv.min() - cfg.field_margin_mm, pu_ptv.max() + cfg.field_margin_mm
        u_offsets = np.linspace(u_lo, u_hi, nu)

        # the rows near the field, within the cutoff of the beamlet rectangle; no
        # row with an entry is dropped, as field_du2 and nearest_dz2 are <= every
        # du2 and dz2 bit for bit, and rounded addition is monotone
        pu = col_rel @ u
        field_du2 = np.maximum(np.maximum(u_offsets[0] - pu, pu - u_offsets[-1]), 0.0) ** 2
        near = np.flatnonzero(field_du2.take(col_of) + nearest_dz2 <= cfg.lateral_cutoff**2)
        del field_du2

        # the columns that hold a near row, and each near row's index among them
        near_col = col_of.take(near)
        pu = pu.take(near_col)
        marched = np.zeros(col_keys.size, dtype=bool)
        marched[near_col] = True
        near_col = (np.cumsum(marched) - 1).take(near_col)
        xy = col_xy[:, marched]
        n_marched = xy.shape[1]

        # material path length upstream of each near row along -d, counted per
        # marched column over its steps 1..k. Each axis of a sample's floored
        # position, rounding included, moves monotonically with s, so a ray
        # never re-enters the convex box once it has left it, and no body cell
        # lies outside it. reach is the distance along -d to the box edge the
        # ray heads for, the nearer of x and y (inf on an axis with d = 0), and
        # k = floor(reach / ray_step_mm + 2), at most steps.size. Two steps are
        # enough: an axis sets k below steps.size only when its exit lies within
        # steps.size steps, so only when |d_axis| >= (half a voxel) / (about the
        # grid diagonal), about 0.005 at 64x64x32. Every step past k then lies at
        # least ray_step_mm * |d_axis| (0.013 mm) outside the box on that axis,
        # far beyond the ~1e-13 mm rounding of a floored position.
        edge = np.where(d[:2] > 0, box_lo[:2], box_hi[:2] + 1) * spacing[:2]
        with np.errstate(divide="ignore"):
            reach = (np.abs(xy - edge[:, None]) / np.abs(d[:2, None])).min(axis=0)
        k = np.minimum(reach / cfg.ray_step_mm + 2, steps.size).astype(np.intp)
        col = np.repeat(np.arange(n_marched, dtype=np.int32), k)
        s = steps.take(np.arange(col.size) - np.repeat(np.cumsum(k) - k, k))
        # the samples' cells, floored as (centre - s * d) / spacing; those in the
        # body mask's bounding box become (column, box cell) visits
        p = xy.take(col, axis=1)
        p -= np.multiply.outer(d[:2], s)
        p /= spacing[:2, None]
        np.floor(p, out=p)
        x, y = p
        inside = (x >= box_lo[0]) & (x <= box_hi[0]) & (y >= box_lo[1]) & (y <= box_hi[1])
        # integer-valued floats, so the box cell index is exact
        cell = ((y[inside] - box_lo[1]) * box_w + (x[inside] - box_lo[0])).astype(np.int32)
        visits = sp.coo_matrix((np.ones(cell.size, dtype=np.int32), (col[inside], cell)),
                               shape=(n_marched, z_lines.shape[0]))
        del col, s, p, x, y, inside, cell
        count = (visits @ z_lines).ravel()
        del visits
        near_lvl = level.take(near)
        depth = cfg.ray_step_mm * count.take(near_col * nz_box + near_lvl).astype(np.float64)
        del count, near_col

        return _lateral_entries(near, pu, depth, near_lvl, window_col, window_dz2,
                                u_offsets, cfg)

    def with_values(row, count, col, depth, r2):
        return row, count, col, beamlet_kernel(depth, r2, cfg)

    # beam 2k runs here while 2k + 1 runs on the helper; both get their values
    # here, in beam order, so that every public call stays on this thread
    beams = []
    with ThreadPoolExecutor(1) as helper:
        for b in range(0, cfg.n_beams, 2):
            odd = helper.submit(beam_entries, b + 1) if b + 1 < cfg.n_beams else None
            beams.append(with_values(*beam_entries(b)))
            if odd is not None:
                beams.append(with_values(*odd.result()))

    del col_of, level, nearest_dz2, col_rel, col_xy, z_lines, box, body_arr, ptv_union
    matrix = _csr_from_beams(beams, (body_idx.size, cfg.n_beams * nu * nv))
    matrix.eliminate_zeros()  # entries that underflow to 0 inside the cutoff

    infl = InfluenceMatrix(
        matrix=matrix,
        voxel_indices=body_idx,
        dims=dims,
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
    """||M|| = sqrt(largest eigenvalue of M^T M), by POWER_STEPS power steps from the
    all-ones vector, on G, the upper triangle of M^T M that `_gram` returns.

    M^T M is entrywise nonnegative, so by Perron-Frobenius it has a nonnegative
    eigenvector for its largest eigenvalue, and the all-ones start overlaps it.
    Each step is one dsymv (lower=0) on G, through scipy's BLAS (see `_gram`).
    """
    from scipy.linalg.blas import dsymv

    v = np.ones(G.shape[1]) / np.sqrt(G.shape[1])
    lam = 0.0
    for _ in range(POWER_STEPS):
        w = dsymv(1.0, G, v)
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
    """One solved plan; ``fluence`` is its own read-only float64 copy of the array
    given, as a VoxelGrid's data is, so no later write can make it unloadable."""

    patient_id: str
    index: int
    weights: PlanWeights
    fluence: np.ndarray
    dose: VoxelGrid
    diagnostics: PlanDiagnostics

    def __post_init__(self):
        self.__setstate__({**self.__dict__, "fluence": np.array(self.fluence, dtype=np.float64)})

    def __setstate__(self, state):
        # copies (pickle, copy.deepcopy) bring a new fluence, checked and frozen here
        fluence = state["fluence"]
        if not np.all(np.isfinite(fluence) & (fluence >= 0)):
            raise ValidationError("fluence must be finite and nonnegative")
        fluence.flags.writeable = False
        self.__dict__.update(state)


def _residual_sq(M, b, x) -> float:
    r = M @ x - b
    return float(r @ r)


def _gram(M, b):
    """G, the upper triangle of M^T M (8 n^2 bytes for n beamlets: 0.9 MB at 336),
    and c = M^T b.

    Forming G densifies M once, 8 n bytes per row of M. G is one BLAS dsyrk, which
    writes the upper triangle of a zeroed F-ordered array and leaves its strict
    lower triangle 0. Every reader of G (dsymv, lower=0) reads that triangle alone,
    so no mirrored copy is made, which would take a second 8 n^2 bytes: at n = 3456
    (72 beams) this function's tracemalloc peak is 115.9 MB. The dense products
    of a plan (here, in `estimate_operator_norm` and in `solve_stacked`) all go
    through scipy.linalg.blas, not numpy's matmul: numpy and scipy each bundle
    their own OpenBLAS, and with more than one BLAS thread the idle workers of one
    spin while the other's run, which made the solve 1.7-3.2x slower on a 2-core
    host. The upper triangle of G and c were bit-identical to numpy's
    ``dense.T @ dense`` and ``dense.T @ b`` on every desk and 64x64x32 plan checked.

    G starts on a 64-byte cache line: dsyrk writes it in place into a slice of a
    buffer 8 doubles longer. numpy aligns an array to 16 bytes only, and a plain
    allocation put G 16, 32 or 48 bytes past a line in 6 of 12 desk plans
    checked. At n = 336 one dsymv on G took 8.6-9.4 us with G at 0 mod 32 bytes
    and 11.1-13.9 us at 16 mod 32 (one BLAS thread, 2-core x86-64 host)."""
    from scipy.linalg.blas import dgemv, dsyrk

    dense = M.toarray()
    n = dense.shape[1]
    buffer = np.zeros(n * n + 8)
    start = -buffer.ctypes.data % 64 // 8
    c = buffer[start:start + n * n].reshape((n, n), order="F")
    # dense.T is the Fortran-ordered view of dense, so neither call copies it
    G = dsyrk(1.0, dense.T, c=c, overwrite_c=1)
    return G, dgemv(1.0, dense.T, b)


def _finite(x, w) -> bool:
    return bool(np.all(np.isfinite(x)) and np.all(np.isfinite(w)))


def solve_stacked(M, b, G, c, operator_norm: float, max_iters: int):
    """Chambolle-Pock (theta = 1) on min_{x>=0} ||M x - b||^2, run in beamlet space
    for exactly `max_iters` iterations. G and c are as `_gram` returns them: G holds
    M^T M as its upper triangle alone, the one triangle that the iteration reads.

    With f(v) = ||v - b||^2 the dual prox is
    prox_{s f*}(v) = (v - s b) / (1 + s/2); the primal prox is projection onto
    x >= 0. Both steps are s = 0.95 / ||M||, so s^2 ||M||^2 < 1.

    The dual y (one entry per row of M) enters the primal step only as s M^T y, so
    the loop carries w = s M^T y (one entry per beamlet) instead. Applying s M^T
    to the dual step gives w <- a w + s^2 a (G xbar - c), a = 1 / (1 + s/2), with
    G = M^T M and c = M^T b from `_gram`, and the primal step is
    x <- max(x - w, 0): the iterates are those of the row-space iteration in exact
    arithmetic. a w + s^2 a G xbar is one BLAS dsymv (alpha s^2 a, beta a,
    lower=0) on G. dsymv reads only the upper triangle (half of G's 8 n^2 bytes),
    where a general product would stream a full n x n G, and its alpha and beta
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
    iteration is exact. Both run one loop body, `iterate`, whose flag turns the
    per-iteration check on.

    Each iteration is w <- dsymv(ssa, G, xbar, beta=a, y=w) - ssa c, then
    t <- max(x - w, 0) and xbar <- t + (t - x), after which t is the new x and
    the old x's buffer is the next iteration's t. Every step writes in place into
    the five preallocated length-n buffers (x, xbar, w, t and a zero vector for
    the projection). dsymv is called positionally: keyword arguments cost it about
    1.2 us more per call, against about 13 us of arithmetic at n = 336.
    """
    from scipy.linalg.blas import dsymv

    s = 0.95 / max(operator_norm, 1e-12)
    a = 1.0 / (1.0 + s / 2.0)
    ssa = s * s * a
    w_shift = ssa * c
    n = M.shape[1]
    x, xbar, w, t, zero = np.zeros(n), np.zeros(n), np.zeros(n), np.empty(n), np.zeros(n)

    def iterate(block, check):
        # dsymv(alpha, a, x, beta, y, offx, incx, offy, incy, lower, overwrite_y);
        # its result is used, not assumed to be in w
        nonlocal x, xbar, w, t
        for it in block:
            w = dsymv(ssa, G, xbar, a, w, 0, 1, 0, 1, 0, 1)
            w -= w_shift
            np.subtract(x, w, out=t)
            np.maximum(t, zero, out=t)
            np.subtract(t, x, out=xbar)
            xbar += t
            x, t = t, x
            if check and not _finite(x, w):
                raise SolverDivergenceError(it)

    # a diverging iterate overflows to inf inside the loop; `_finite` reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(1, max_iters + 1, _BLOCK):
            block = range(first, min(first + _BLOCK, max_iters + 1))
            start = x.copy(), xbar.copy(), w.copy()
            iterate(block, False)
            if _finite(x, w):
                continue
            x[:], xbar[:], w[:] = start
            iterate(block, True)
    # a finite x near overflow can still give non-finite diagnostics
    with np.errstate(over="ignore", invalid="ignore"):
        grad = 2.0 * (dsymv(1.0, G, x) - c)
        kkt = float(np.linalg.norm(x - np.maximum(x - grad, 0.0)))
        final_objective = _residual_sq(M, b, x)
        objective_at_zero = float(b @ b)
        grad_at_zero = float(np.linalg.norm(2.0 * c))
    if not all(np.isfinite((kkt, final_objective, objective_at_zero, grad_at_zero))):
        raise SolverDivergenceError(max_iters, "diagnostics")
    return x, PlanDiagnostics(
        iterations=int(max_iters),  # a Python int, so that the plan saves as JSON
        converged=kkt <= KKT_RTOL * grad_at_zero,
        final_objective=final_objective,
        objective_at_zero=objective_at_zero,
        operator_norm=operator_norm,
        kkt_residual=kkt,
    )


def objective_rows(infl: InfluenceMatrix, structures: StructureSet,
                   weights: PlanWeights):
    """(M, b) with ||M x - b||^2 = sum_s (w_s / N_s) ||A_s x - p_s||^2, the plan objective:
    s runs over every PTV and OAR, A_s is its N_s influence rows and p_s its prescription
    (PTV) or 0 (OAR), so M stacks each A_s and b each p_s, scaled by sqrt(w_s / N_s)."""
    rows_list, scale_list, b_list = [], [], []
    for s in (*structures.ptvs, *structures.oars):
        if s.name not in weights.weights:
            raise ValidationError(f"no tradeoff weight for structure {s.name!r}")
        rows = infl.rows_for(s)
        scale = np.sqrt(weights[s.name] / rows.size)
        p = s.prescription if s.kind == PTV else 0.0
        rows_list.append(rows)
        scale_list.append(np.full(rows.size, scale))
        b_list.append(np.full(rows.size, scale * p))
    M = infl.matrix[np.concatenate(rows_list)]  # a copy: scaling it leaves infl intact
    M.data *= np.repeat(np.concatenate(scale_list), np.diff(M.indptr))
    return M, np.concatenate(b_list)


def objective(infl: InfluenceMatrix, structures: StructureSet,
              weights: PlanWeights, fluence: np.ndarray) -> float:
    """The plan objective (see `objective_rows`) at `fluence`."""
    fluence = np.asarray(fluence, dtype=np.float64)
    if fluence.shape != (infl.n_beamlets,):
        raise ValidationError(
            f"fluence length {fluence.shape} does not match {infl.n_beamlets} beamlets"
        )
    M, b = objective_rows(infl, structures, weights)
    return _residual_sq(M, b, fluence)


def scatter_dose(infl: InfluenceMatrix, fluence: np.ndarray) -> VoxelGrid:
    """Map body-row doses back onto the full grid (zero outside the body)."""
    dose_rows = infl.matrix @ np.asarray(fluence, dtype=np.float64)
    flat = np.zeros(int(np.prod(infl.dims)), dtype=np.float64)
    flat[infl.voxel_indices] = dose_rows
    return VoxelGrid(flat.reshape(infl.dims, order="F"))


def solve_fluence(
    infl: InfluenceMatrix,
    structures: StructureSet,
    weights: PlanWeights,
    max_iters: int = 2000,
    patient_id: str = "",
    index: int = 0,
) -> Plan:
    """One plan: build M and b for `weights` and G (the upper triangle of M^T M) and
    c = M^T b from them, estimate ||M|| on G, run the CP solve."""
    _count(max_iters, "max_iters")
    M, b = objective_rows(infl, structures, weights)
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
    """Pseudo-random Pareto samples: one weight draw and one solve per plan. Plan i
    is plans[i] and comes out as a one-process loop would make it; the odd plans of
    a large enough call are solved on a helper process (see the module docstring).
    The plans are produced in index order, each once it and every earlier plan are
    solved, which is the order in which `dosekit plan` writes them."""
    return list(_solved_plans(case, cfg, plan_count, seed, max_iters))


# `_solved_plans` solves the odd plans on a helper process when the helper's share
# of the CP iterations, (plan_count // 2) * max_iters, is at least this
_HELPER_MIN_ITERS = 2000
# the helper process's (case, infl, seed, max_iters), set by `_start_helper`
_helper_args = None


def _start_helper(*args):
    global _helper_args
    _helper_args = args


def _helper_plan(i):
    return _plan(*_helper_args, i)


def _plan(case: PatientCase, infl: InfluenceMatrix, seed: int, max_iters: int, i: int) -> Plan:
    weights = sample_weights(case.structures, seed=derive_seed(seed, "weights", i))
    try:
        return solve_fluence(infl, case.structures, weights, max_iters,
                             patient_id=case.id, index=i)
    except PlannerError as exc:
        # re-raised as itself, so its class and attributes (a divergence's
        # .iteration) reach the caller, with the plan named in its message
        exc.args = (f"plan {i} for {case.id}: {exc}",)
        raise


def _solved_plans(case: PatientCase, cfg: BeamConfig, plan_count: int, seed: int,
                  max_iters: int = 2000):
    """`generate_plans`' plans in index order, each yielded as soon as it and every
    earlier plan are solved; the counts are checked on the first next(), before the
    influence matrix is built. The helper process, if one is started, is joined
    before the generator returns, raises or is closed, and its queued plans are
    cancelled."""
    _count(plan_count, "plan_count")
    _count(max_iters, "max_iters")
    infl = build_influence_matrix(case, cfg)
    args = (case, infl, seed, max_iters)
    if (plan_count // 2) * max_iters < _HELPER_MIN_ITERS or not hasattr(os, "fork"):
        for i in range(plan_count):
            yield _plan(*args, i)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    import scipy.linalg.blas  # noqa: F401  loaded before the fork, so once for both

    # a fork inherits case and infl, so only each plan's index and result are pickled
    helper = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_start_helper, initargs=args)
    try:
        odd = {i: helper.submit(_helper_plan, i) for i in range(1, plan_count, 2)}
        for i in range(plan_count):
            yield odd[i].result() if i % 2 else _plan(*args, i)
    finally:
        helper.shutdown(cancel_futures=True)


PLAN_JSON = "plan.json"
DOSE_FILE = "dose.dvol"
FLUENCE_FILE = "fluence.f32"


@dataclass(frozen=True)
class PlanManifest(Record):
    """A saved plan's PLAN_JSON file; its dose and fluence are the DOSE_FILE and
    FLUENCE_FILE next to it."""

    # 2: the diagnostics changed shape, and `converged` became the KKT-residual bound;
    # 3: the sampler's weight bounds are no longer saved
    SCHEMA_VERSION = 3

    patient_id: str
    index: int
    weights: dict[str, float]
    diagnostics: PlanDiagnostics
    n_beamlets: int

    def __post_init__(self):
        PlanWeights(self.weights)  # so that bad weights fail to decode
        _count(self.n_beamlets, "n_beamlets")
        _count(self.index, "index", least=0)


def save_plan(directory, plan: Plan) -> None:
    """Write DOSE_FILE and FLUENCE_FILE, then PLAN_JSON, in `directory`. PLAN_JSON
    commits the plan: an old one is removed first and the new one written last, so
    a save that fails part way leaves no plan to load."""
    directory = Path(directory)
    _uncommit(directory / PLAN_JSON)
    write_volume(plan.dose, directory / DOSE_FILE)
    _atomic_write_bytes(directory / FLUENCE_FILE, np.asarray(plan.fluence, dtype="<f4").tobytes())
    write_manifest(directory / PLAN_JSON, PlanManifest(
        plan.patient_id, plan.index, plan.weights.weights, plan.diagnostics,
        int(plan.fluence.size)))


def load_plan(directory) -> Plan:
    """Inverse of save_plan. A fault raises MissingFileError or FileFormatError
    naming the file at fault."""
    directory = Path(directory)
    meta = read_manifest(directory / PLAN_JSON, PlanManifest)
    path = directory / FLUENCE_FILE
    raw = _read_bytes(path)
    if len(raw) != 4 * meta.n_beamlets:
        raise FileFormatError(f"{path}: {len(raw)} bytes, expected {meta.n_beamlets} <f4 values")
    with np.errstate(invalid="ignore"):  # casting a signalling NaN, which Plan refuses
        fluence = np.frombuffer(raw, dtype="<f4").astype(np.float64)
    weights = PlanWeights(meta.weights)
    dose = read_volume(directory / DOSE_FILE)
    try:
        return Plan(meta.patient_id, meta.index, weights, fluence, dose, meta.diagnostics)
    except ValidationError as exc:  # the fluence, the one field not checked as it was read
        raise FileFormatError(f"{path}: {exc}") from exc
