"""Ground-truth plan factory.

A simplified ray/attenuation model builds a sparse dose-influence matrix A for
equispaced coplanar beams. A plan minimises sum_s (w_s / N_s) ||A_s x - p_s||^2
over fluence x >= 0 (p_s: prescription of a PTV, 0 for an OAR); scaling
structure s's rows and target by sqrt(w_s / N_s) makes that min ||M x - b||^2,
solved by the Chambolle-Pock primal-dual iteration. The iteration runs in
beamlet space: it carries M^T y instead of the dual y, so each step is one
product with the dense Gram matrix G = M^T M (8 n^2 bytes for n beamlets)
instead of one product each with M and M^T. Sampling the structure tradeoff
weights sweeps the Pareto surface.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import DosekitError, ValidationError
from .phantom import PatientCase
from .seeds import derive_seed
from .volume import (ManifestError, StructureMask, StructureSet, VoxelGrid, _atomic_write_bytes,
                     read_manifest, read_volume, write_volume)

DEFAULT_WEIGHT_BOUNDS = (0.01, 1.0)


class PlannerError(DosekitError):
    pass


class PlannerGeometryError(PlannerError):
    """Beam arrangement leaves target voxels with zero influence."""


class FluenceFileError(PlannerError):
    """A saved fluence file that is not the plan's beamlet count of <f4 values."""


class SolverDivergenceError(PlannerError):
    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"non-finite iterate at iteration {iteration}")


@dataclass(frozen=True)
class BeamConfig:
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
        if any(v <= 0 for v in (*self.beamlet_grid, self.attenuation_mu,
                                self.lateral_sigma, self.lateral_cutoff,
                                self.field_margin_mm, self.ray_step_mm)):
            raise ValidationError("beam parameters must be strictly positive")

    def to_json_dict(self) -> dict:
        return {
            "n_beams": self.n_beams,
            "beamlet_grid": list(self.beamlet_grid),
            "attenuation_mu": self.attenuation_mu,
            "lateral_sigma": self.lateral_sigma,
            "lateral_cutoff": self.lateral_cutoff,
            "field_margin_mm": self.field_margin_mm,
            "ray_step_mm": self.ray_step_mm,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "BeamConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValidationError(f"unknown beam config keys: {sorted(unknown)}")
        kwargs = dict(d)
        if "beamlet_grid" in kwargs:
            kwargs["beamlet_grid"] = tuple(kwargs["beamlet_grid"])
        return cls(**kwargs)


def beamlet_kernel(depth_mm, lateral_sq_mm2, cfg: BeamConfig) -> np.ndarray:
    """exp(-mu*depth) * exp(-r^2 / (2 sigma^2)) elementwise, zero where r^2 > cutoff^2."""
    value = np.exp(-cfg.attenuation_mu * depth_mm) * np.exp(
        -lateral_sq_mm2 / (2.0 * cfg.lateral_sigma**2)
    )
    return np.where(lateral_sq_mm2 <= cfg.lateral_cutoff**2, value, 0.0)


def beamlet_weight(depth_mm: float, lateral_mm: float, cfg: BeamConfig) -> float:
    """Scalar `beamlet_kernel` at lateral distance `lateral_mm`."""
    return float(beamlet_kernel(depth_mm, lateral_mm**2, cfg))


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
        if self.matrix.nnz and self.matrix.data.min() < 0:
            raise ValidationError("influence entries must be nonnegative")

    @property
    def values(self) -> np.ndarray:
        return self.matrix.data

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


def build_influence_matrix(case: PatientCase, cfg: BeamConfig) -> InfluenceMatrix:
    """Ray-march depths and Gaussian lateral falloff for every (voxel, beamlet).

    A voxel's depth along beam direction d is ``ray_step_mm`` times the number
    of samples ``center - s*d`` (s = ray_step_mm, 2*ray_step_mm, ...) whose cell
    ``floor(pos / spacing)`` is a body voxel. All body voxels march together,
    one step at a time, and a voxel leaves the march once its sample leaves the
    body mask's bounding box: each axis of the sampled cell moves monotonically
    with s, so a ray never re-enters the (convex) box, and no body cell lies
    outside it. Lateral entries are formed only within ``lateral_cutoff`` and
    collected as (row, column, value) triples. Working memory is therefore
    O(body voxels x beamlets per beam), plus the triples of the result.
    """
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
    cells = np.stack([gx, gy, gz], axis=1)
    centers = (cells.astype(np.float64) + 0.5) * spacing
    box_lo, box_hi = cells.min(axis=0), cells.max(axis=0)

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

    rows, cols, vals = [], [], []
    for b in range(cfg.n_beams):
        phi = 2.0 * np.pi * b / cfg.n_beams
        d = np.array([np.cos(phi), np.sin(phi), 0.0])
        u = np.array([-np.sin(phi), np.cos(phi), 0.0])

        pu_ptv = (ptv_pts - iso) @ u
        u_lo, u_hi = pu_ptv.min() - cfg.field_margin_mm, pu_ptv.max() + cfg.field_margin_mm
        u_offsets = np.linspace(u_lo, u_hi, nu)

        # material path length upstream of each voxel along -d
        count = np.zeros(body_idx.size, dtype=np.int64)
        active = np.arange(body_idx.size)
        for s in steps:
            cell = np.floor((centers[active] - s * d) / spacing).astype(np.int64)
            in_box = np.all((cell >= box_lo) & (cell <= box_hi), axis=1)
            if not in_box.all():
                active, cell = active[in_box], cell[in_box]
                if not active.size:
                    break
            count[active] += body_arr[cell[:, 0], cell[:, 1], cell[:, 2]]
        depth = cfg.ray_step_mm * count.astype(np.float64)

        pu = (centers - iso) @ u
        r2 = ((pu[:, None] - u_offsets[None, :]) ** 2)[:, :, None] + dz2[:, None, :]
        r2 = r2.reshape(body_idx.size, nu * nv)
        row, col = np.nonzero(r2 <= cfg.lateral_cutoff**2)
        rows.append(row)
        cols.append(col + b * nu * nv)
        vals.append(beamlet_kernel(depth[row], r2[row, col], cfg))

    matrix = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(body_idx.size, cfg.n_beams * nu * nv),
    )
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
    bounds: tuple[float, float] = DEFAULT_WEIGHT_BOUNDS

    def __post_init__(self):
        if any(w <= 0 for w in self.weights.values()):
            raise ValidationError("all tradeoff weights must be positive")

    def __getitem__(self, name: str) -> float:
        return self.weights[name]


def sample_weights(
    structures: StructureSet,
    bounds: tuple[float, float] = DEFAULT_WEIGHT_BOUNDS,
    seed: int = 0,
) -> PlanWeights:
    """PTV weights pinned at 1; OAR weights log-uniform within bounds."""
    lo, hi = bounds
    if lo <= 0 or hi <= 0 or lo > hi:
        raise ValidationError(f"weight bounds must be positive with lo <= hi, got {bounds}")
    rng = np.random.default_rng(seed)
    weights: dict[str, float] = {}
    for ptv in structures.ptvs:
        weights[ptv.name] = 1.0
    for oar in structures.oars:
        if lo == hi:
            weights[oar.name] = float(lo)
        else:
            weights[oar.name] = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    return PlanWeights(weights=weights, bounds=(float(lo), float(hi)))


@dataclass(frozen=True)
class CpParams:
    """Chambolle-Pock settings; both step sizes are 0.95 / operator_norm."""

    operator_norm: float
    max_iters: int = 2000
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValidationError("tolerance must be positive")


def estimate_operator_norm(matrix, seed: int, iters: int = 50) -> float:
    """Power iteration on A^T A with a seed-fixed start vector."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(matrix.shape[1])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = matrix.T @ (matrix @ v)
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 0.0
        v = w / lam
    return float(np.sqrt(lam))


@dataclass(frozen=True)
class PlanDiagnostics:
    iterations: int
    converged: bool
    final_objective: float
    objective_at_zero: float
    objective_at_mid: float
    operator_norm: float
    # ||x - max(x - grad f(x), 0)||, zero exactly at the optimum; report-only
    kkt_residual: float

    def to_json_dict(self) -> dict:
        return dict(vars(self))


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


def solve_stacked(M, b, params: CpParams):
    """Chambolle-Pock (theta = 1) on min_{x>=0} ||M x - b||^2, run in beamlet space.

    With f(v) = ||v - b||^2 the dual prox is
    prox_{s f*}(v) = (v - s b) / (1 + s/2); the primal prox is projection onto
    x >= 0. Both steps are s = 0.95 / ||M||, so s^2 ||M||^2 < 1.

    The dual y (one entry per row of M) enters the primal step only as M^T y, so
    the loop carries z = M^T y (one entry per beamlet) instead. Applying M^T to
    the dual step gives z <- (z + s (G xbar - c)) / (1 + s/2), with G = M^T M and
    c = M^T b formed once per solve: the iterates, the stop rule and the
    diagnostics are those of the row-space iteration in exact arithmetic, and an
    iteration costs one dense n x n product instead of two sparse products with
    M. G takes 8 n^2 bytes for n beamlets (0.9 MB at 336); forming it densifies
    M once, 8 n bytes per row of M. The objectives are ||M x - b||^2 from M, not
    x^T G x - 2 c^T x + b^T b, which cancels near the optimum.

    Unlike y, whose zero-residual entries decayed to subnormals that slowed every
    step, z needs no subnormal flush: no entry of z, x or xbar was subnormal in
    any benchmark plan or in the 20 000-iteration Pareto-monotonicity solves.
    """
    s = 0.95 / max(params.operator_norm, 1e-12)
    dense = M.toarray()
    G = dense.T @ dense
    c = dense.T @ b
    del dense
    x = np.zeros(M.shape[1])
    xbar = x.copy()
    z = np.zeros(M.shape[1])
    obj0 = _residual_sq(M, b, x)
    obj_mid = obj0
    mid_iter = max(params.max_iters // 2, 1)
    iterations = 0
    converged = False
    for it in range(1, params.max_iters + 1):
        iterations = it
        with np.errstate(over="ignore", invalid="ignore"):
            z = (z + s * (G @ xbar - c)) / (1.0 + s / 2.0)
            x_old = x
            x = x - s * z
            np.maximum(x, 0.0, out=x)
            dx = x - x_old
            xbar = x + dx
            # a diverging iterate overflows these norms before it turns non-finite
            step = float(np.sqrt(dx @ dx))
            scale = max(float(np.sqrt(x @ x)), 1e-30)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
            raise SolverDivergenceError(it)
        if it == mid_iter:
            obj_mid = _residual_sq(M, b, x)
        if step / scale < params.tolerance:
            converged = True
            break
    obj_final = _residual_sq(M, b, x)
    if iterations < mid_iter:
        obj_mid = obj_final
    grad = 2.0 * (G @ x - c)
    return x, PlanDiagnostics(
        iterations=iterations,
        converged=converged,
        final_objective=obj_final,
        objective_at_zero=obj0,
        objective_at_mid=obj_mid,
        operator_norm=params.operator_norm,
        kkt_residual=float(np.linalg.norm(x - np.maximum(x - grad, 0.0))),
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
    tolerance: float = 1e-6,
    seed: int = 0,
    patient_id: str = "",
    index: int = 0,
) -> Plan:
    """One plan: build M and b for `weights`, estimate ||M||, run the CP solve."""
    M, b = _objective_blocks(infl, structures, weights)
    norm = estimate_operator_norm(M, derive_seed(seed, "operator-norm"))
    x, diagnostics = solve_stacked(M, b, CpParams(norm, max_iters, tolerance))
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
    weight_bounds: tuple[float, float] = DEFAULT_WEIGHT_BOUNDS,
    max_iters: int = 2000,
    tolerance: float = 1e-6,
) -> list[Plan]:
    """Pseudo-random Pareto samples: one weight draw and one solve per plan."""
    if plan_count < 1:
        raise ValidationError("plan_count must be >= 1")
    infl = build_influence_matrix(case, cfg)
    plans = []
    for i in range(plan_count):
        weights = sample_weights(case.structures, weight_bounds, derive_seed(seed, "weights", i))
        try:
            plans.append(solve_fluence(infl, case.structures, weights, max_iters, tolerance,
                                       seed=seed, patient_id=case.id, index=i))
        except PlannerError as exc:
            raise PlannerError(f"plan {i} for {case.id}: {exc}") from exc
    return plans


PLAN_JSON = "plan.json"
DOSE_FILE = "dose.dvol"
FLUENCE_FILE = "fluence.f32"
PLAN_SCHEMA = {"patient_id": str, "index": int, "weights": dict, "weight_bounds": list,
               "diagnostics": dict, "n_beamlets": int}


def save_plan(directory, plan: Plan) -> None:
    directory = Path(directory)
    write_volume(plan.dose, directory / DOSE_FILE)
    _atomic_write_bytes(directory / FLUENCE_FILE, np.asarray(plan.fluence, dtype="<f4").tobytes())
    meta = {
        "patient_id": plan.patient_id,
        "index": plan.index,
        "weights": plan.weights.weights,
        "weight_bounds": list(plan.weights.bounds),
        "diagnostics": plan.diagnostics.to_json_dict(),
        "n_beamlets": int(plan.fluence.size),
    }
    text = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    _atomic_write_bytes(directory / PLAN_JSON, text.encode("utf-8"))


def load_plan(directory) -> Plan:
    directory = Path(directory)
    meta = read_manifest(directory / PLAN_JSON, PLAN_SCHEMA)
    raw = (directory / FLUENCE_FILE).read_bytes()
    if len(raw) != 4 * meta["n_beamlets"]:
        raise FluenceFileError(f"{directory / FLUENCE_FILE}: {len(raw)} bytes, "
                               f"expected {meta['n_beamlets']} <f4 values")
    try:
        weights = PlanWeights({k: float(v) for k, v in meta["weights"].items()},
                              tuple(meta["weight_bounds"]))
        diagnostics = PlanDiagnostics(**meta["diagnostics"])
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"{directory / PLAN_JSON}: {exc}") from exc
    return Plan(
        patient_id=meta["patient_id"],
        index=meta["index"],
        weights=weights,
        fluence=np.frombuffer(raw, dtype="<f4").astype(np.float64),
        dose=read_volume(directory / DOSE_FILE),
        diagnostics=diagnostics,
    )
