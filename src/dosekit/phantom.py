"""Deterministic synthetic patients: ellipsoid bodies, PTVs, and organs.

Two built-in sites stand in for clinical cohorts: siteA has a single
prescription level and a fixed organ count, siteB has two prescription levels
and a widely varying organ count. Shape palettes are invented (no cohort
geometry exists to copy); ellipsoids keep membership tests closed-form and
generation exactly reproducible from (site, seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DosekitError, ValidationError
from .seeds import rng_for
from .volume import (
    BODY,
    OAR,
    PTV,
    KernelSpec,
    ManifestError,
    StructureMask,
    StructureSet,
    VoxelGrid,
    _atomic_write_bytes,
    load_structure_set,
    read_manifest,
    save_structure_set,
)

DEFAULT_NORMALIZATION = 70.0
MIN_BODY_COVERAGE = 0.25


class PhantomGenerationError(DosekitError):
    """Geometry sampling exhausted its retry budget."""


@dataclass(frozen=True)
class ShapePalette:
    """Millimeter ranges for the ellipsoid sampler."""

    body_radius_mm: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]
    body_center_jitter_mm: float
    ptv_radius_mm: tuple[float, float]
    ptv_center_jitter_mm: float
    ptv_level_growth: float
    oar_radius_mm: tuple[float, float]
    max_attempts: int = 200

    def to_json_dict(self) -> dict:
        return {
            "body_radius_mm": [list(r) for r in self.body_radius_mm],
            "body_center_jitter_mm": self.body_center_jitter_mm,
            "ptv_radius_mm": list(self.ptv_radius_mm),
            "ptv_center_jitter_mm": self.ptv_center_jitter_mm,
            "ptv_level_growth": self.ptv_level_growth,
            "oar_radius_mm": list(self.oar_radius_mm),
            "max_attempts": self.max_attempts,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ShapePalette":
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValidationError(f"unknown shape_palette keys: {sorted(unknown)}")
        return cls(
            body_radius_mm=tuple(tuple(r) for r in d["body_radius_mm"]),
            body_center_jitter_mm=float(d["body_center_jitter_mm"]),
            ptv_radius_mm=tuple(d["ptv_radius_mm"]),
            ptv_center_jitter_mm=float(d["ptv_center_jitter_mm"]),
            ptv_level_growth=float(d["ptv_level_growth"]),
            oar_radius_mm=tuple(d["oar_radius_mm"]),
            max_attempts=int(d.get("max_attempts", 200)),
        )


SITE_SCHEMA = {"site_id": str, "kernel": list, "ptv_levels": list, "oar_count_range": list,
               "shape_palette": dict}
PATIENT_SCHEMA = {"id": str, "site_id": str, "seed": int}


@dataclass(frozen=True)
class SiteSpec:
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
        names = [ptv_name(v, self.normalization_constant) for v in levels]
        if len(set(names)) != len(names):
            raise ValidationError(f"ptv_levels collide after naming: {names}")
        lo, hi = self.oar_count_range
        if not (0 <= lo <= hi):
            raise ValidationError(f"bad oar_count_range {self.oar_count_range}")
        if self.normalization_constant <= 0:
            raise ValidationError("normalization_constant must be positive")
        object.__setattr__(self, "ptv_levels", levels)
        object.__setattr__(self, "oar_count_range", (int(lo), int(hi)))
        object.__setattr__(self, "spacing_mm", tuple(float(s) for s in self.spacing_mm))

    def to_json_dict(self) -> dict:
        return {
            "site_id": self.site_id,
            "kernel": list(self.kernel.dims),
            "ptv_levels": list(self.ptv_levels),
            "oar_count_range": list(self.oar_count_range),
            "shape_palette": self.shape_palette.to_json_dict(),
            "normalization_constant": self.normalization_constant,
            "spacing_mm": list(self.spacing_mm),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SiteSpec":
        known = {
            "site_id", "kernel", "ptv_levels", "oar_count_range",
            "shape_palette", "normalization_constant", "spacing_mm",
        }
        unknown = set(d) - known
        if unknown:
            raise ValidationError(f"unknown site spec keys: {sorted(unknown)}")
        return cls(
            site_id=d["site_id"],
            kernel=KernelSpec(tuple(d["kernel"])),
            ptv_levels=tuple(d["ptv_levels"]),
            oar_count_range=tuple(d["oar_count_range"]),
            shape_palette=ShapePalette.from_json_dict(d["shape_palette"]),
            normalization_constant=float(d.get("normalization_constant", DEFAULT_NORMALIZATION)),
            spacing_mm=tuple(d.get("spacing_mm", (5.0, 5.0, 5.0))),
        )

    def save(self, path) -> None:
        text = json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"
        _atomic_write_bytes(Path(path), text.encode("utf-8"))

    @classmethod
    def load(cls, path) -> "SiteSpec":
        d = read_manifest(path, SITE_SCHEMA)
        try:
            return cls.from_json_dict(d)
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"{path}: bad site spec ({exc!r})") from exc


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


def generate_patient(spec: SiteSpec, patient_seed: int) -> PatientCase:
    """Synthesize one case; bit-identical for identical (spec, seed)."""
    rng = rng_for("phantom", spec.site_id, patient_seed)
    dims = spec.kernel.dims
    spacing = spec.spacing_mm
    pal = spec.shape_palette
    grid_center = tuple(dims[a] * spacing[a] / 2.0 for a in range(3))

    body_arr = None
    for _ in range(pal.max_attempts):
        center = tuple(
            grid_center[a] + _uniform(rng, -pal.body_center_jitter_mm, pal.body_center_jitter_mm)
            for a in range(3)
        )
        radii = tuple(_uniform(rng, *pal.body_radius_mm[a]) for a in range(3))
        candidate = _ellipsoid(dims, spacing, center, radii)
        if candidate.sum() >= MIN_BODY_COVERAGE * np.prod(dims):
            body_arr = candidate
            body_center = center
            break
    if body_arr is None:
        raise PhantomGenerationError(
            f"could not place a body covering {MIN_BODY_COVERAGE:.0%} of the kernel"
        )
    body = StructureMask(
        name="body", kind=BODY, mask=VoxelGrid(dims, spacing, body_arr.astype(np.float32))
    )

    # Highest prescription first (the boost); lower levels grow around it.
    levels = sorted(spec.ptv_levels, reverse=True)
    ptvs: list[StructureMask] = []
    boost_center = None
    for rank, level in enumerate(levels):
        placed = False
        for _ in range(pal.max_attempts):
            if boost_center is None:
                center = tuple(
                    body_center[a]
                    + _uniform(rng, -pal.ptv_center_jitter_mm, pal.ptv_center_jitter_mm)
                    for a in range(3)
                )
            else:
                center = tuple(
                    boost_center[a] + _uniform(rng, -4.0, 4.0) for a in range(3)
                )
            scale = pal.ptv_level_growth**rank
            radii = tuple(_uniform(rng, *pal.ptv_radius_mm) * scale for _ in range(3))
            candidate = _ellipsoid(dims, spacing, center, radii)
            if candidate.any() and not np.any(candidate & ~body_arr):
                ptvs.append(
                    StructureMask(
                        name=ptv_name(level, spec.normalization_constant),
                        kind=PTV,
                        mask=VoxelGrid(dims, spacing, candidate.astype(np.float32)),
                        prescription=float(level),
                    )
                )
                if boost_center is None:
                    boost_center = center
                placed = True
                break
        if not placed:
            raise PhantomGenerationError(
                f"could not place PTV level {level} inside the body "
                f"after {pal.max_attempts} attempts"
            )

    lo, hi = spec.oar_count_range
    n_oars = int(rng.integers(lo, hi + 1))
    body_idx = np.nonzero(body_arr)
    bbox_lo = [float(body_idx[a].min()) for a in range(3)]
    bbox_hi = [float(body_idx[a].max()) for a in range(3)]
    ptv_centers = [boost_center] if boost_center else []
    occupied = np.zeros(dims, dtype=bool)
    oars: list[StructureMask] = []
    for i in range(n_oars):
        placed = False
        for _ in range(pal.max_attempts):
            center = tuple(
                _uniform(rng, (bbox_lo[a] + 0.5) * spacing[a], (bbox_hi[a] + 0.5) * spacing[a])
                for a in range(3)
            )
            radii = tuple(_uniform(rng, *pal.oar_radius_mm) for _ in range(3))
            candidate = _ellipsoid(dims, spacing, center, radii)
            if not candidate.any():
                continue
            if np.any(candidate & ~body_arr):
                continue
            if np.any(candidate & occupied):
                continue
            if any(
                all(abs(center[a] - pc[a]) < spacing[a] for a in range(3))
                for pc in ptv_centers
            ):
                continue  # organ centered on a PTV center is disallowed
            impact = "high" if rng.random() < 0.5 else "low"
            oars.append(
                StructureMask(
                    name=f"oar{i + 1:02d}",
                    kind=OAR,
                    mask=VoxelGrid(dims, spacing, candidate.astype(np.float32)),
                    impact=impact,
                )
            )
            occupied |= candidate
            placed = True
            break
        if not placed:
            raise PhantomGenerationError(
                f"could not place organ {i + 1}/{n_oars} after {pal.max_attempts} attempts"
            )

    structures = StructureSet(tuple([body, *ptvs, *oars]))
    return PatientCase(
        id=f"{spec.site_id}-p{patient_seed:04d}",
        structures=structures,
        site_id=spec.site_id,
        seed=int(patient_seed),
    )


def save_patient(directory, case: PatientCase) -> None:
    save_structure_set(
        directory,
        case.structures,
        extra={"id": case.id, "site_id": case.site_id, "seed": case.seed},
    )


def load_patient(directory) -> PatientCase:
    structures, extra = load_structure_set(directory, PATIENT_SCHEMA)
    return PatientCase(
        id=extra["id"], structures=structures, site_id=extra["site_id"], seed=extra["seed"]
    )
