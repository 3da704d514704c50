"""Deterministic synthetic patients: ellipsoid bodies, PTVs, and organs.

Two built-in sites stand in for clinical cohorts: siteA has a single
prescription level and a fixed organ count, siteB has two prescription levels
and a widely varying organ count. Shape palettes are invented (no cohort
geometry exists to copy); ellipsoids keep membership tests closed-form and
generation exactly reproducible from (site, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DosekitError, ValidationError
from .seeds import rng_for
from .volume import (
    BODY,
    MANIFEST_NAME,
    MANIFEST_VERSION,
    OAR,
    PTV,
    KernelSpec,
    Record,
    StructureEntry,
    StructureMask,
    StructureSet,
    VoxelGrid,
    _spacing,
    load_structure_set,
    read_manifest,
    save_structure_set,
    write_manifest,
)

DEFAULT_NORMALIZATION = 70.0
MIN_BODY_COVERAGE = 0.25


class PhantomGenerationError(DosekitError):
    """Geometry sampling exhausted its retry budget."""


@dataclass(frozen=True)
class ShapePalette(Record):
    """Millimeter ranges for the ellipsoid sampler."""

    body_radius_mm: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]
    body_center_jitter_mm: float
    ptv_radius_mm: tuple[float, float]
    ptv_center_jitter_mm: float
    ptv_level_growth: float
    oar_radius_mm: tuple[float, float]
    max_attempts: int = 200


SITE_VERSION = 1


@dataclass(frozen=True)
class SiteSpec(Record):
    """Everything needed to synthesize patients for one treatment 'site'."""

    site_id: str
    kernel: KernelSpec
    ptv_levels: tuple[float, ...]
    oar_count_range: tuple[int, int]
    shape_palette: ShapePalette
    normalization_constant: float = DEFAULT_NORMALIZATION
    spacing_mm: tuple[float, float, float] = (5.0, 5.0, 5.0)

    def __post_init__(self):
        levels = tuple(float(v) for v in self.ptv_levels)
        if not levels or any(not 0.0 < v <= 1.0 for v in levels):
            raise ValidationError("ptv_levels must be nonempty with values in (0, 1]")
        # checked before naming: ptv_name of a NaN or infinite constant raises
        if not 0.0 < self.normalization_constant < math.inf:
            raise ValidationError(f"normalization_constant must be positive and finite, "
                                  f"got {self.normalization_constant}")
        names = [ptv_name(v, self.normalization_constant) for v in levels]
        if len(set(names)) != len(names):
            raise ValidationError(f"ptv_levels collide after naming: {names}")
        lo, hi = self.oar_count_range
        if not (0 <= lo <= hi):
            raise ValidationError(f"bad oar_count_range {self.oar_count_range}")
        object.__setattr__(self, "ptv_levels", levels)
        object.__setattr__(self, "oar_count_range", (int(lo), int(hi)))
        object.__setattr__(self, "spacing_mm", _spacing(self.spacing_mm, "spacing_mm"))

    def save(self, path) -> None:
        write_manifest(path, self, SITE_VERSION)

    @classmethod
    def load(cls, path) -> "SiteSpec":
        return read_manifest(path, cls, SITE_VERSION)


@dataclass(frozen=True, eq=False)
class PatientCase:
    id: str
    structures: StructureSet
    site_id: str
    seed: int

    @property
    def spacing(self) -> tuple[float, float, float]:
        return self.structures.spacing

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.structures.dims


def ptv_name(level: float, normalization: float) -> str:
    return f"ptv{round(level * normalization):d}"


def builtin_site(name: str) -> SiteSpec:
    """Desk-scale presets; paper-scale kernels remain valid via custom specs."""
    if name == "siteA":
        return SiteSpec(
            site_id="siteA",
            kernel=KernelSpec((32, 32, 16)),
            ptv_levels=(1.0,),
            oar_count_range=(4, 4),
            shape_palette=ShapePalette(
                body_radius_mm=((60.0, 65.0), (60.0, 65.0), (36.0, 38.0)),
                body_center_jitter_mm=2.0,
                ptv_radius_mm=(16.0, 22.0),
                ptv_center_jitter_mm=8.0,
                ptv_level_growth=1.45,
                oar_radius_mm=(9.0, 16.0),
            ),
        )
    if name == "siteB":
        return SiteSpec(
            site_id="siteB",
            kernel=KernelSpec((32, 32, 16)),
            ptv_levels=(1.0, 54.0 / 70.0),
            oar_count_range=(5, 21),
            shape_palette=ShapePalette(
                body_radius_mm=((60.0, 64.0), (60.0, 64.0), (36.0, 38.0)),
                body_center_jitter_mm=2.0,
                ptv_radius_mm=(12.0, 16.0),
                ptv_center_jitter_mm=10.0,
                ptv_level_growth=1.45,
                oar_radius_mm=(7.0, 11.0),
            ),
        )
    raise ValidationError(f"unknown site preset {name!r}")


def _voxel_centers(dims, spacing):
    return [
        (np.arange(dims[a], dtype=np.float64) + 0.5) * spacing[a]
        for a in range(3)
    ]


def _ellipsoid(dims, spacing, center_mm, radii_mm) -> np.ndarray:
    xs, ys, zs = _voxel_centers(dims, spacing)
    fx = ((xs - center_mm[0]) / radii_mm[0]) ** 2
    fy = ((ys - center_mm[1]) / radii_mm[1]) ** 2
    fz = ((zs - center_mm[2]) / radii_mm[2]) ** 2
    return fx[:, None, None] + fy[None, :, None] + fz[None, None, :] <= 1.0


def _uniform(rng, lo, hi) -> float:
    if lo == hi:
        return float(lo)
    return float(rng.uniform(lo, hi))


def _place(attempts: int, what: str, draw):
    """The first non-None result of up to `attempts` calls of `draw`."""
    for _ in range(attempts):
        placed = draw()
        if placed is not None:
            return placed
    raise PhantomGenerationError(f"could not place {what} after {attempts} attempts")


def generate_patient(spec: SiteSpec, patient_seed: int) -> PatientCase:
    """Synthesize one case; bit-identical for identical (spec, seed)."""
    rng = rng_for("phantom", spec.site_id, patient_seed)
    dims = spec.kernel.dims
    spacing = spec.spacing_mm
    pal = spec.shape_palette
    grid_center = tuple(dims[a] * spacing[a] / 2.0 for a in range(3))

    def jittered(anchor, jitter):
        return tuple(anchor[a] + _uniform(rng, -jitter, jitter) for a in range(3))

    def draw_body():
        center = jittered(grid_center, pal.body_center_jitter_mm)
        radii = tuple(_uniform(rng, *pal.body_radius_mm[a]) for a in range(3))
        candidate = _ellipsoid(dims, spacing, center, radii)
        return (center, candidate) if candidate.sum() >= MIN_BODY_COVERAGE * np.prod(dims) else None

    def grid(arr):
        return VoxelGrid(dims, spacing, arr.astype(np.float32))

    body_center, body_arr = _place(
        pal.max_attempts, f"a body covering {MIN_BODY_COVERAGE:.0%} of the kernel", draw_body
    )
    body = StructureMask("body", BODY, grid(body_arr))

    # Highest prescription first (the boost); lower levels grow around its center.
    ptvs: list[StructureMask] = []
    anchor, jitter = body_center, pal.ptv_center_jitter_mm
    for rank, level in enumerate(sorted(spec.ptv_levels, reverse=True)):

        def draw_ptv():
            center = jittered(anchor, jitter)
            scale = pal.ptv_level_growth**rank
            radii = tuple(_uniform(rng, *pal.ptv_radius_mm) * scale for _ in range(3))
            candidate = _ellipsoid(dims, spacing, center, radii)
            inside = candidate.any() and not np.any(candidate & ~body_arr)
            return (center, candidate) if inside else None

        center, candidate = _place(pal.max_attempts, f"PTV level {level} inside the body", draw_ptv)
        ptvs.append(StructureMask(ptv_name(level, spec.normalization_constant), PTV,
                                  grid(candidate), prescription=float(level)))
        if rank == 0:
            boost_center = anchor = center
            jitter = 4.0

    lo, hi = spec.oar_count_range
    n_oars = int(rng.integers(lo, hi + 1))
    body_idx = np.nonzero(body_arr)
    bbox_lo = [float(body_idx[a].min()) for a in range(3)]
    bbox_hi = [float(body_idx[a].max()) for a in range(3)]
    occupied = np.zeros(dims, dtype=bool)

    def draw_oar():
        center = tuple(
            _uniform(rng, (bbox_lo[a] + 0.5) * spacing[a], (bbox_hi[a] + 0.5) * spacing[a])
            for a in range(3)
        )
        radii = tuple(_uniform(rng, *pal.oar_radius_mm) for _ in range(3))
        candidate = _ellipsoid(dims, spacing, center, radii)
        if (not candidate.any() or np.any(candidate & ~body_arr) or np.any(candidate & occupied)
                # an organ centered on the boost PTV's center is disallowed
                or all(abs(center[a] - boost_center[a]) < spacing[a] for a in range(3))):
            return None
        return candidate

    oars: list[StructureMask] = []
    for i in range(n_oars):
        candidate = _place(pal.max_attempts, f"organ {i + 1}/{n_oars}", draw_oar)
        impact = "high" if rng.random() < 0.5 else "low"
        oars.append(StructureMask(f"oar{i + 1:02d}", OAR, grid(candidate), impact=impact))
        occupied |= candidate

    structures = StructureSet(tuple([body, *ptvs, *oars]))
    return PatientCase(
        id=f"{spec.site_id}-p{patient_seed:04d}",
        structures=structures,
        site_id=spec.site_id,
        seed=int(patient_seed),
    )


@dataclass(frozen=True)
class PatientManifest(Record):
    """A saved case's MANIFEST_NAME file: its identity and its structures, whose
    masks lie next to it under MASK_DIR. The grid is not repeated here: each
    mask's .dvol header holds it."""

    id: str
    site_id: str
    seed: int
    structures: tuple[StructureEntry, ...]


def save_patient(directory, case: PatientCase) -> None:
    entries = save_structure_set(directory, case.structures)
    manifest = PatientManifest(case.id, case.site_id, case.seed, entries)
    write_manifest(Path(directory) / MANIFEST_NAME, manifest, MANIFEST_VERSION)


def load_patient(directory) -> PatientCase:
    """Inverse of save_patient. A malformed manifest raises ManifestError; a
    missing manifest or mask raises MissingFileError."""
    manifest = read_manifest(Path(directory) / MANIFEST_NAME, PatientManifest, MANIFEST_VERSION)
    structures = load_structure_set(directory, manifest.structures)
    return PatientCase(manifest.id, structures, manifest.site_id, manifest.seed)
