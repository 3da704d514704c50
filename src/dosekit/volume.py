"""Voxel grids, structure sets, kernel cropping, and the .dvol binary format.

Conventions used everywhere in this package:

* Raster order is z-major with x fastest: ``index = x + nx*(y + ny*z)``.
* Grid data is float32 in memory and ``<f4`` on disk, so file round trips are
  bit-exact.
* All types are immutable after construction; operations are pure functions.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DosekitError, ValidationError

DVOL_MAGIC = b"DVOL"
DVOL_VERSION = 1
DEFAULT_SPACING_MM = (5.0, 5.0, 5.0)

PTV = "PTV"
OAR = "OAR"
BODY = "BODY"
STRUCTURE_KINDS = frozenset({PTV, OAR, BODY})
IMPACT_TAGS = frozenset({"high", "low"})

_HEADER = struct.Struct("<4sH3I3f")


class VolumeFormatError(DosekitError):
    """Malformed .dvol file."""


class BadMagicError(VolumeFormatError):
    pass


class VersionMismatchError(VolumeFormatError):
    pass


class TruncatedVolumeError(VolumeFormatError):
    pass


class PayloadSizeError(VolumeFormatError):
    pass


class ManifestError(DosekitError):
    """Malformed or incomplete JSON manifest."""


class KernelTooSmallError(ValidationError):
    """Body bounding box exceeds the crop kernel along `axis`."""

    def __init__(self, axis: str, needed: int, available: int):
        self.axis = axis
        super().__init__(
            f"body bounding box needs {needed} voxels on axis {axis}, "
            f"kernel provides {available}"
        )


def linear_index(coord: tuple[int, int, int], dims: tuple[int, int, int]) -> int:
    """Map an (x, y, z) coordinate to its z-major raster index."""
    x, y, z = coord
    nx, ny, nz = dims
    if not (0 <= x < nx and 0 <= y < ny and 0 <= z < nz):
        raise ValidationError(f"coordinate {coord} out of range for dims {dims}")
    return x + nx * (y + ny * z)


def coord_from_index(index: int, dims: tuple[int, int, int]) -> tuple[int, int, int]:
    """Inverse of linear_index."""
    nx, ny, nz = dims
    if not 0 <= index < nx * ny * nz:
        raise ValidationError(f"index {index} out of range for dims {dims}")
    x = index % nx
    y = (index // nx) % ny
    z = index // (nx * ny)
    return (x, y, z)


@dataclass(frozen=True, eq=False)
class VoxelGrid:
    """Dense 3D scalar field with voxel spacing in millimeters.

    ``data`` is a read-only float32 array of shape ``dims`` indexed
    ``data[x, y, z]``.
    """

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    data: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        spacing = tuple(float(s) for s in self.spacing)
        if len(dims) != 3 or any(d <= 0 for d in dims):
            raise ValidationError(f"dims must be three positive counts, got {self.dims}")
        if len(spacing) != 3 or any(s <= 0 for s in spacing):
            raise ValidationError(f"spacing must be strictly positive, got {self.spacing}")
        data = np.asarray(self.data, dtype=np.float32)
        if data.shape != dims:
            raise ValidationError(f"data shape {data.shape} does not match dims {dims}")
        if not np.all(np.isfinite(data)):
            raise ValidationError("grid values must be finite")
        data = np.ascontiguousarray(data)
        data.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "data", data)

    @classmethod
    def zeros(cls, dims, spacing=DEFAULT_SPACING_MM) -> "VoxelGrid":
        return cls(tuple(dims), tuple(spacing), np.zeros(tuple(dims), dtype=np.float32))

    @classmethod
    def from_array(cls, array: np.ndarray, spacing=DEFAULT_SPACING_MM) -> "VoxelGrid":
        array = np.asarray(array)
        return cls(array.shape, tuple(spacing), array.astype(np.float32, copy=False))

    @property
    def voxel_count(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    def flat(self) -> np.ndarray:
        """Values in raster (z-major, x fastest) order."""
        return self.data.ravel(order="F")

    def identical(self, other: "VoxelGrid") -> bool:
        """Bit-exact equality of geometry and values."""
        return (
            self.dims == other.dims
            and self.spacing == other.spacing
            and np.array_equal(self.data, other.data)
        )


@dataclass(frozen=True, eq=False)
class StructureMask:
    """Named binary mask tagged PTV/OAR/BODY.

    PTVs carry a positive normalized prescription; OARs carry a clinical
    impact tag; BODY carries neither.
    """

    name: str
    kind: str
    mask: VoxelGrid
    prescription: float | None = None
    impact: str | None = None

    def __post_init__(self):
        if not self.name:
            raise ValidationError("structure name must be nonempty")
        if self.kind not in STRUCTURE_KINDS:
            raise ValidationError(f"unknown structure kind {self.kind!r}")
        values = np.unique(self.mask.data)
        if not np.all(np.isin(values, (0.0, 1.0))):
            raise ValidationError(f"mask {self.name!r} has values outside {{0,1}}")
        if self.kind == PTV:
            if self.prescription is None or self.prescription <= 0:
                raise ValidationError(f"PTV {self.name!r} needs a positive prescription")
        elif self.prescription is not None:
            raise ValidationError(f"{self.kind} {self.name!r} must not carry a prescription")
        if self.kind == OAR:
            if self.impact not in IMPACT_TAGS:
                raise ValidationError(f"OAR {self.name!r} needs an impact tag in {sorted(IMPACT_TAGS)}")
        elif self.impact is not None:
            raise ValidationError(f"{self.kind} {self.name!r} must not carry an impact tag")

    @property
    def voxel_count(self) -> int:
        return int(np.count_nonzero(self.mask.data))

    def linear_indices(self) -> np.ndarray:
        """Raster indices of mask voxels, ascending."""
        nx, ny, _ = self.mask.dims
        ix, iy, iz = np.nonzero(self.mask.data)
        return np.sort(ix + nx * (iy + ny * iz)).astype(np.int64)

    def bool_array(self) -> np.ndarray:
        return self.mask.data > 0.5


@dataclass(frozen=True, eq=False)
class StructureSet:
    """Ordered structures of one case: exactly one BODY, >=1 PTV, any OAR count."""

    structures: tuple[StructureMask, ...]

    def __post_init__(self):
        structures = tuple(self.structures)
        object.__setattr__(self, "structures", structures)
        names = [s.name for s in structures]
        if len(set(names)) != len(names):
            raise ValidationError("structure names must be unique")
        bodies = [s for s in structures if s.kind == BODY]
        if len(bodies) != 1:
            raise ValidationError(f"need exactly one BODY, got {len(bodies)}")
        if not any(s.kind == PTV for s in structures):
            raise ValidationError("need at least one PTV")
        ref = structures[0].mask
        for s in structures:
            if s.mask.dims != ref.dims or s.mask.spacing != ref.spacing:
                raise ValidationError(f"structure {s.name!r} geometry differs from the case grid")
        body = bodies[0].bool_array()
        for s in structures:
            if s.kind != BODY and np.any(s.bool_array() & ~body):
                raise ValidationError(f"structure {s.name!r} has voxels outside the body")

    @property
    def body(self) -> StructureMask:
        return next(s for s in self.structures if s.kind == BODY)

    @property
    def ptvs(self) -> tuple[StructureMask, ...]:
        return tuple(s for s in self.structures if s.kind == PTV)

    @property
    def oars(self) -> tuple[StructureMask, ...]:
        return tuple(s for s in self.structures if s.kind == OAR)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.structures[0].mask.dims

    @property
    def spacing(self) -> tuple[float, float, float]:
        return self.structures[0].mask.spacing

    @property
    def highest_prescription(self) -> float:
        return max(s.prescription for s in self.ptvs)


@dataclass(frozen=True)
class KernelSpec:
    """Fixed crop size fed to the model."""

    dims: tuple[int, int, int]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d <= 0 for d in dims):
            raise ValidationError(f"kernel dims must be three positive counts, got {self.dims}")
        object.__setattr__(self, "dims", dims)

    def check_pooling(self, pools: int) -> None:
        """Each axis must survive `pools` halvings."""
        divisor = 2**pools
        for axis, d in zip("xyz", self.dims):
            if d % divisor != 0:
                raise ValidationError(
                    f"kernel axis {axis}={d} not divisible by 2^{pools}"
                )


@dataclass(frozen=True)
class CropOffset:
    """Placement of a kernel window inside a source grid.

    Kernel voxel (i,j,k) corresponds to source voxel (i,j,k) + origin; origins
    may be negative (zero padding outside the source).
    """

    origin: tuple[int, int, int]
    source_dims: tuple[int, int, int]
    kernel_dims: tuple[int, int, int]


def mask_bounding_box(mask: StructureMask) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Inclusive (lo, hi) voxel bounds of the mask."""
    nz = np.nonzero(mask.mask.data)
    if nz[0].size == 0:
        raise ValidationError(f"structure {mask.name!r} is empty")
    lo = tuple(int(axis.min()) for axis in nz)
    hi = tuple(int(axis.max()) for axis in nz)
    return lo, hi


def kernel_offset_for(body: StructureMask, kernel: KernelSpec) -> CropOffset:
    """Center the body bounding box inside the kernel; ties go to the lower index."""
    lo, hi = mask_bounding_box(body)
    origin = []
    for axis, name in enumerate("xyz"):
        extent = hi[axis] - lo[axis] + 1
        k = kernel.dims[axis]
        if extent > k:
            raise KernelTooSmallError(name, extent, k)
        start_in_kernel = (k - extent) // 2
        origin.append(lo[axis] - start_in_kernel)
    return CropOffset(tuple(origin), body.mask.dims, kernel.dims)


def crop_with_offset(grid: VoxelGrid, offset: CropOffset) -> VoxelGrid:
    """Extract the kernel window; voxels outside the source grid become zero."""
    if grid.dims != offset.source_dims:
        raise ValidationError(
            f"grid dims {grid.dims} do not match crop source dims {offset.source_dims}"
        )
    out = np.zeros(offset.kernel_dims, dtype=np.float32)
    src_lo, src_hi, dst_lo, dst_hi = [], [], [], []
    for axis in range(3):
        o = offset.origin[axis]
        k = offset.kernel_dims[axis]
        n = offset.source_dims[axis]
        s0, s1 = max(0, o), min(n, o + k)
        if s0 >= s1:
            return VoxelGrid(offset.kernel_dims, grid.spacing, out)
        src_lo.append(s0)
        src_hi.append(s1)
        dst_lo.append(s0 - o)
        dst_hi.append(s1 - o)
    out[dst_lo[0]:dst_hi[0], dst_lo[1]:dst_hi[1], dst_lo[2]:dst_hi[2]] = grid.data[
        src_lo[0]:src_hi[0], src_lo[1]:src_hi[1], src_lo[2]:src_hi[2]
    ]
    return VoxelGrid(offset.kernel_dims, grid.spacing, out)


def crop_to_kernel(
    grid: VoxelGrid, body: StructureMask, kernel: KernelSpec
) -> tuple[VoxelGrid, CropOffset]:
    """Crop `grid` to the kernel window that centers the body bounding box."""
    offset = kernel_offset_for(body, kernel)
    return crop_with_offset(grid, offset), offset


def uncrop(kernel_grid: VoxelGrid, offset: CropOffset) -> VoxelGrid:
    """Scatter a kernel-shaped grid back onto the source geometry (zeros elsewhere)."""
    if kernel_grid.dims != offset.kernel_dims:
        raise ValidationError(
            f"grid dims {kernel_grid.dims} do not match kernel dims {offset.kernel_dims}"
        )
    out = np.zeros(offset.source_dims, dtype=np.float32)
    src_lo = [max(0, offset.origin[a]) for a in range(3)]
    src_hi = [min(offset.source_dims[a], offset.origin[a] + offset.kernel_dims[a]) for a in range(3)]
    if all(src_lo[a] < src_hi[a] for a in range(3)):
        dst = tuple(slice(src_lo[a], src_hi[a]) for a in range(3))
        src = tuple(
            slice(src_lo[a] - offset.origin[a], src_hi[a] - offset.origin[a]) for a in range(3)
        )
        out[dst] = kernel_grid.data[src]
    return VoxelGrid(offset.source_dims, kernel_grid.spacing, out)


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_volume(grid: VoxelGrid, path) -> None:
    """Serialize to .dvol: DVOL | u16 version | 3*u32 dims | 3*f32 spacing | <f4 payload."""
    path = Path(path)
    header = _HEADER.pack(DVOL_MAGIC, DVOL_VERSION, *grid.dims, *grid.spacing)
    payload = grid.flat().astype("<f4").tobytes()
    _atomic_write_bytes(path, header + payload)


def read_volume(path) -> VoxelGrid:
    """Inverse of write_volume; read(write(g)) is bit-exact."""
    raw = Path(path).read_bytes()
    if len(raw) < 4 or raw[:4] != DVOL_MAGIC:
        raise BadMagicError(f"{path}: not a DVOL file")
    if len(raw) < _HEADER.size:
        raise TruncatedVolumeError(f"{path}: truncated header")
    _, version, nx, ny, nz, sx, sy, sz = _HEADER.unpack_from(raw)
    if version != DVOL_VERSION:
        raise VersionMismatchError(f"{path}: format version {version}, expected {DVOL_VERSION}")
    expected = nx * ny * nz * 4
    actual = len(raw) - _HEADER.size
    if actual < expected:
        raise TruncatedVolumeError(f"{path}: payload has {actual} bytes, expected {expected}")
    if actual > expected:
        raise PayloadSizeError(f"{path}: payload has {actual} bytes, expected {expected}")
    flat = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)
    data = flat.reshape((nx, ny, nz), order="F")
    return VoxelGrid((nx, ny, nz), (sx, sy, sz), data)


MANIFEST_NAME = "structures.json"
MASK_DIR = "masks"


def save_structure_set(directory, structures: StructureSet, extra: dict | None = None) -> None:
    """Write masks as .dvol files plus one JSON manifest per patient directory."""
    directory = Path(directory)
    entries = []
    for s in structures.structures:
        rel = f"{MASK_DIR}/{s.name}.dvol"
        write_volume(s.mask, directory / rel)
        entries.append(
            {
                "name": s.name,
                "kind": s.kind,
                "prescription": s.prescription,
                "impact": s.impact,
                "mask_path": rel,
            }
        )
    manifest = dict(extra or {})
    manifest.update(
        {
            "dims": list(structures.dims),
            "spacing": list(structures.spacing),
            "structures": entries,
        }
    )
    _atomic_write_bytes(
        directory / MANIFEST_NAME,
        json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8") + b"\n",
    )


def read_manifest(path, schema: dict[str, type]) -> dict:
    """Parse a JSON object in which each key of `schema` holds a value of that key's type."""
    try:
        manifest = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ManifestError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise ManifestError(f"{path}: expected a JSON object")
    bad = [k for k, kind in schema.items() if not isinstance(manifest.get(k), kind)]
    if bad:
        raise ManifestError(f"{path}: missing or mistyped keys {bad}")
    return manifest


def load_structure_set(directory, extra_schema: dict[str, type] | None = None
                       ) -> tuple[StructureSet, dict]:
    """Read a patient directory back; returns (structures, manifest extras).

    The manifest must also hold each key of `extra_schema` with a value of that type.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ValidationError(f"{directory}: no {MANIFEST_NAME}")
    manifest = read_manifest(manifest_path, {"structures": list, **(extra_schema or {})})
    masks = []
    for entry in manifest["structures"]:
        try:
            mask_path, name, kind = entry["mask_path"], entry["name"], entry["kind"]
            prescription, impact = entry.get("prescription"), entry.get("impact")
        except (TypeError, KeyError) as exc:
            raise ManifestError(f"{manifest_path}: bad structure entry {entry!r}") from exc
        masks.append(
            StructureMask(
                name=name,
                kind=kind,
                mask=read_volume(directory / mask_path),
                prescription=prescription,
                impact=impact,
            )
        )
    structures = StructureSet(tuple(masks))
    extra = {k: v for k, v in manifest.items() if k not in ("dims", "spacing", "structures")}
    return structures, extra
