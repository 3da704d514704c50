"""Deterministic synthetic patients: ellipsoid bodies, PTVs, and organs.

Two built-in sites stand in for clinical cohorts: siteA has a single
prescription level and a fixed organ count, siteB has two prescription levels
and a widely varying organ count. Shape palettes are invented (no cohort
geometry exists to copy); ellipsoids keep membership tests closed-form and
generation exactly reproducible from (site, seed). Each draw is tested on the
index box that can hold its ellipsoid, not on the whole grid (`_ellipsoid`), and
only an accepted draw becomes a full-grid mask: a rejected draw costs the volume
of its box, not of the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DosekitError, ValidationError
from .seeds import derive_seed
from .volume import (
    BODY,
    DEFAULT_SPACING_MM,
    MANIFEST_NAME,
    MASK_DIR,
    OAR,
    PTV,
    FileFormatError,
    KernelSpec,
    Record,
    StructureEntry,
    StructureMask,
    StructureSet,
    VoxelGrid,
    _counts,
    _uncommit,
    read_manifest,
    read_volume,
    write_manifest,
    write_volume,
)

# Shared by every site: the dose that prescription 1.0 names (ptv_name), the radius
# growth per lower PTV level, and the draws a structure may take before giving up.
NORMALIZATION = 70.0
PTV_LEVEL_GROWTH = 1.45
MAX_ATTEMPTS = 200
MIN_BODY_COVERAGE = 0.25


class PhantomGenerationError(DosekitError):
    """Geometry sampling exhausted its retry budget."""


@dataclass(frozen=True)
class ShapePalette(Record):
    """Millimeter ranges for the ellipsoid sampler: each radius range (lo, hi) is
    finite with 0 < lo <= hi, and each jitter finite and >= 0."""

    body_radius_mm: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]
    body_center_jitter_mm: float
    ptv_radius_mm: tuple[float, float]
    ptv_center_jitter_mm: float
    oar_radius_mm: tuple[float, float]

    def __post_init__(self):
        for lo, hi in (*self.body_radius_mm, self.ptv_radius_mm, self.oar_radius_mm):
            if not 0.0 < lo <= hi < math.inf:
                raise ValidationError(f"radius range ({lo}, {hi}) must be finite with "
                                      f"0 < lo <= hi")
        for jitter in (self.body_center_jitter_mm, self.ptv_center_jitter_mm):
            if not 0.0 <= jitter < math.inf:
                raise ValidationError(f"jitter {jitter} must be finite and >= 0")


@dataclass(frozen=True)
class SiteSpec(Record):
    """What sets one treatment site's patients apart; the grid spacing
    (DEFAULT_SPACING_MM) and the constants above are the same for every site."""

    # 2: normalization, spacing, PTV level growth and attempts are module constants
    SCHEMA_VERSION = 2

    site_id: str
    kernel: KernelSpec
    ptv_levels: tuple[float, ...]
    oar_count_range: tuple[int, int]
    shape_palette: ShapePalette

    def __post_init__(self):
        levels = tuple(float(v) for v in self.ptv_levels)
        if not levels or any(not 0.0 < v <= 1.0 for v in levels):
            raise ValidationError("ptv_levels must be nonempty with values in (0, 1]")
        names = [ptv_name(v) for v in levels]
        if len(set(names)) != len(names):
            raise ValidationError(f"ptv_levels collide after naming: {names}")
        lo, hi = _counts(self.oar_count_range, "oar_count_range", 2, least=0)
        if lo > hi:
            raise ValidationError(f"oar_count_range must be two integer counts with lo <= hi, "
                                  f"got {(lo, hi)}")
        object.__setattr__(self, "ptv_levels", levels)
        object.__setattr__(self, "oar_count_range", (lo, hi))


@dataclass(frozen=True, eq=False)
class PatientCase:
    structures: StructureSet
    site_id: str
    seed: int

    @property
    def id(self) -> str:
        return f"{self.site_id}-p{self.seed:04d}"


def ptv_name(level: float) -> str:
    return f"ptv{round(level * NORMALIZATION):d}"


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
                oar_radius_mm=(7.0, 11.0),
            ),
        )
    raise ValidationError(f"unknown site preset {name!r}")


def _ellipsoid(dims, spacing, center_mm, radii_mm):
    """The voxels whose centres lie in the ellipsoid, as (box, mask): box is one
    slice per axis, and mask the ellipsoid test on the voxels of that box. No
    voxel outside the box passes the test.

    The box is, per axis, the run of voxel centres whose own term of
    ``fx + fy + fz <= 1`` is at most 1 (empty if none is): a voxel outside it
    has a term above 1, and adding the other two terms, which are >= 0, cannot
    round the sum back down to 1. The terms are the same IEEE values the test
    takes on the whole grid, so the mask equals that test's values on the box.
    """
    box, terms = [], []
    for a in range(3):
        centres = (np.arange(dims[a], dtype=np.float64) + 0.5) * spacing[a]
        term = ((centres - center_mm[a]) / radii_mm[a]) ** 2
        within = np.flatnonzero(term <= 1.0)
        lo, hi = (int(within[0]), int(within[-1]) + 1) if within.size else (0, 0)
        box.append(slice(lo, hi))
        terms.append(term[lo:hi])
    fx, fy, fz = terms
    return tuple(box), fx[:, None, None] + fy[None, :, None] + fz[None, None, :] <= 1.0


def _full_grid(dims, box, mask) -> np.ndarray:
    """The boolean grid of shape `dims` that holds `mask` on `box` and False elsewhere."""
    grid = np.zeros(dims, dtype=bool)
    grid[box] = mask
    return grid


def _uniform(rng, lo, hi) -> float:
    if lo == hi:
        return float(lo)
    return float(rng.uniform(lo, hi))


def _place(what: str, draw):
    """The first non-None result of up to MAX_ATTEMPTS calls of `draw`."""
    for _ in range(MAX_ATTEMPTS):
        placed = draw()
        if placed is not None:
            return placed
    raise PhantomGenerationError(f"could not place {what} after {MAX_ATTEMPTS} attempts")


def generate_patient(spec: SiteSpec, patient_seed: int) -> PatientCase:
    """Synthesize one case; bit-identical for identical (spec, seed)."""
    rng = np.random.default_rng(derive_seed("phantom", spec.site_id, patient_seed))
    dims = spec.kernel.dims
    spacing = DEFAULT_SPACING_MM
    pal = spec.shape_palette
    grid_center = tuple(dims[a] * spacing[a] / 2.0 for a in range(3))

    def jittered(anchor, jitter):
        return tuple(anchor[a] + _uniform(rng, -jitter, jitter) for a in range(3))

    def draw_body():
        center = jittered(grid_center, pal.body_center_jitter_mm)
        radii = tuple(_uniform(rng, *pal.body_radius_mm[a]) for a in range(3))
        box, mask = _ellipsoid(dims, spacing, center, radii)
        return (center, box, mask) if mask.sum() >= MIN_BODY_COVERAGE * np.prod(dims) else None

    body_center, body_box, body_mask = _place(
        f"a body covering {MIN_BODY_COVERAGE:.0%} of the kernel", draw_body
    )
    body_arr = _full_grid(dims, body_box, body_mask)
    body = StructureMask("body", BODY, VoxelGrid(body_arr, spacing))

    # Highest prescription first (the boost); lower levels grow around its center.
    ptvs: list[StructureMask] = []
    anchor, jitter = body_center, pal.ptv_center_jitter_mm
    for rank, level in enumerate(sorted(spec.ptv_levels, reverse=True)):

        def draw_ptv():
            center = jittered(anchor, jitter)
            scale = PTV_LEVEL_GROWTH**rank
            radii = tuple(_uniform(rng, *pal.ptv_radius_mm) * scale for _ in range(3))
            box, mask = _ellipsoid(dims, spacing, center, radii)
            inside = mask.any() and not np.any(mask & ~body_arr[box])
            return (center, box, mask) if inside else None

        center, box, mask = _place(f"PTV level {level} inside the body", draw_ptv)
        ptvs.append(StructureMask(ptv_name(level), PTV,
                                  VoxelGrid(_full_grid(dims, box, mask), spacing),
                                  prescription=float(level)))
        if rank == 0:
            boost_center = anchor = center
            jitter = 4.0

    lo, hi = spec.oar_count_range
    n_oars = int(rng.integers(lo, hi + 1))
    body_idx = np.nonzero(body_mask)
    bbox_lo = [float(body_idx[a].min() + body_box[a].start) for a in range(3)]
    bbox_hi = [float(body_idx[a].max() + body_box[a].start) for a in range(3)]
    occupied = np.zeros(dims, dtype=bool)

    def draw_oar():
        center = tuple(
            _uniform(rng, (bbox_lo[a] + 0.5) * spacing[a], (bbox_hi[a] + 0.5) * spacing[a])
            for a in range(3)
        )
        radii = tuple(_uniform(rng, *pal.oar_radius_mm) for _ in range(3))
        box, mask = _ellipsoid(dims, spacing, center, radii)
        if (not mask.any() or np.any(mask & ~body_arr[box]) or np.any(mask & occupied[box])
                # an organ centered on the boost PTV's center is disallowed
                or all(abs(center[a] - boost_center[a]) < spacing[a] for a in range(3))):
            return None
        return box, mask

    oars: list[StructureMask] = []
    for i in range(n_oars):
        box, mask = _place(f"organ {i + 1}/{n_oars}", draw_oar)
        impact = "high" if rng.random() < 0.5 else "low"
        oars.append(StructureMask(f"oar{i + 1:02d}", OAR,
                                  VoxelGrid(_full_grid(dims, box, mask), spacing), impact=impact))
        occupied[box] |= mask

    structures = StructureSet(tuple([body, *ptvs, *oars]))
    return PatientCase(structures, spec.site_id, int(patient_seed))


@dataclass(frozen=True)
class PatientManifest(Record):
    """A saved case's MANIFEST_NAME file: its identity and its structures, whose
    masks lie next to it under MASK_DIR. Nothing derived is repeated here: the
    case id follows from (site_id, seed), each mask's path from its name, and the
    grid from each mask's .dvol header."""

    # 2: the grid (dims and spacing) is gone; the masks hold it
    # 3: the entries' mask_path and the case id are gone; both are derived
    SCHEMA_VERSION = 3

    site_id: str
    seed: int
    structures: tuple[StructureEntry, ...]


def save_patient(directory, case: PatientCase) -> None:
    """Write each mask to ``MASK_DIR/<name>.dvol``, then MANIFEST_NAME, in `directory`.
    MANIFEST_NAME commits the case: an old one is removed first and the new one
    written last, so a save that fails part way leaves no case to load."""
    directory = Path(directory)
    _uncommit(directory / MANIFEST_NAME)
    for stale in (directory / MASK_DIR).glob("*.dvol"):  # masks the new manifest may not name
        stale.unlink()
    for s in case.structures.structures:
        write_volume(s.mask, directory / MASK_DIR / f"{s.name}.dvol")
    entries = tuple(StructureEntry(s.name, s.kind, s.prescription, s.impact)
                    for s in case.structures.structures)
    write_manifest(directory / MANIFEST_NAME, PatientManifest(case.site_id, case.seed, entries))


def load_patient(directory) -> PatientCase:
    """Inverse of save_patient. A fault raises MissingFileError or FileFormatError
    naming the file at fault: MANIFEST_NAME's entries are checked before any mask is
    read, and masks that StructureSet refuses are MANIFEST_NAME's fault."""
    directory = Path(directory)
    manifest = read_manifest(directory / MANIFEST_NAME, PatientManifest)
    masks = []
    for e in manifest.structures:
        path = directory / MASK_DIR / f"{e.name}.dvol"
        grid = read_volume(path)
        if masks and (grid.dims, grid.spacing) != (masks[0].mask.dims, masks[0].mask.spacing):
            raise FileFormatError(f"{path}: grid {grid.dims} at {grid.spacing} mm differs "
                                  f"from {masks[0].name!r}'s, the case grid")
        try:  # the entry's fields passed as it was decoded: only the grid can fail
            masks.append(StructureMask(e.name, e.kind, grid, e.prescription, e.impact))
        except ValidationError as exc:
            raise FileFormatError(f"{path}: {exc}") from exc
    try:
        structures = StructureSet(tuple(masks))
    except ValidationError as exc:
        raise FileFormatError(f"{directory / MANIFEST_NAME}: bad structure set ({exc})") from exc
    return PatientCase(structures, manifest.site_id, manifest.seed)
