"""Voxel grids, structure sets, kernel cropping, the .dvol binary format, and the
one JSON codec of dosekit.

Conventions used everywhere in this package:

* Raster order is z-major with x fastest: ``index = x + nx*(y + ny*z)``, the
  order of ``VoxelGrid.flat``.
* Grid data is float32 in memory and ``<f4`` on disk, so file round trips are
  bit-exact.
* All types are immutable after construction; operations are pure functions.
* Every JSON file is one frozen-dataclass `Record`, written by `write_manifest`
  and read back by `read_manifest`, which checks its ``schema_version`` and
  decodes it from the record's field type hints.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
import tempfile
import typing
from dataclasses import dataclass, fields
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


class MissingFileError(DosekitError):
    """A path that names no file: it does not exist, or it or one of its parents
    is not what the path needs (a directory where a file is read, a file where a
    directory is walked)."""


def _read_bytes(path: Path) -> bytes:
    """The bytes of the file at `path`; MissingFileError, naming it, if there is none."""
    try:
        return path.read_bytes()
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        raise MissingFileError(f"{path}: no such file") from exc


class Record:
    """Mixin giving a frozen dataclass a JSON form: one key per field.

    ``to_json_dict`` writes a nested Record as its own dict and a tuple as a
    list. ``from_json_dict`` inverts it, led by the field type hints: a field
    typed as a Record, or as ``tuple[R, ...]`` of them, is rebuilt from JSON
    objects, a tuple field from a list of its length (any length for
    ``tuple[X, ...]``), and every scalar is checked against its hint: ``int``
    takes an integer but not a bool, ``float`` an integer or a float, ``bool``
    a bool, ``str`` a string, ``dict[str, X]`` an object of X values, and
    ``X | None`` also null. A missing key takes the field's default through the
    constructor. Every fault of the input raises ValidationError naming the
    record: a value that is not a JSON object, an unknown key, a value that does
    not match its field's hint (naming the field too), and a missing key without
    a default or a value that the constructor rejects.
    """

    def to_json_dict(self) -> dict:
        return _encode(self)

    @classmethod
    def from_json_dict(cls, d: dict):
        name = cls.__name__
        if not isinstance(d, dict):
            raise ValidationError(f"{name} must be a JSON object, got {d!r}")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValidationError(f"unknown {name} keys: {sorted(unknown)}")
        hints = _type_hints(cls)
        values = {k: _decode(hints[k], v, name, k) for k, v in d.items()}
        try:
            return cls(**values)
        except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: float(10**400)
            raise ValidationError(f"bad {name} ({exc})") from exc


@functools.cache
def _type_hints(cls) -> dict:
    """`typing.get_type_hints(cls)`, evaluated once per class: a Record's string
    annotations cost about 0.1 ms to evaluate, fifty times its construction."""
    return typing.get_type_hints(cls)


def _encode(value):
    if isinstance(value, Record):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


# The JSON values each scalar type hint of a Record field accepts.
_SCALAR_TYPES = {int: int, float: (int, float), bool: bool, str: str}


def _matches(kind, value) -> bool:
    """isinstance(value, kind), except that a bool (JSON true or false) matches only bool."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _mistyped(record: str, field: str, expected: str, value) -> ValidationError:
    return ValidationError(f"bad {record} field {field!r}: expected {expected}, got {value!r}")


def _decode(hint, value, record: str, field: str):
    """`value` as the field `field` of Record `record`, typed `hint`."""
    if hint in _SCALAR_TYPES:
        if not _matches(_SCALAR_TYPES[hint], value):
            raise _mistyped(record, field, hint.__name__, value)
        return value
    if isinstance(hint, type) and issubclass(hint, Record):
        return hint.from_json_dict(value)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is dict:  # dict[str, X]: JSON object keys are strings
        if not isinstance(value, dict):
            raise _mistyped(record, field, "an object", value)
        return {k: _decode(args[1], v, record, f"{field}[{k!r}]") for k, v in value.items()}
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise _mistyped(record, field, "a list", value)
        items = args[:1] * len(value) if args[-1:] == (Ellipsis,) else args
        if len(value) != len(items):
            raise _mistyped(record, field, f"a list of {len(items)}", value)
        return tuple(_decode(h, v, record, f"{field}[{i}]")
                     for i, (h, v) in enumerate(zip(items, value)))
    if type(None) in args:  # X | None
        if value is None:
            return None
        (hint,) = (a for a in args if a is not type(None))
        return _decode(hint, value, record, field)
    raise TypeError(f"{record} field {field!r}: no JSON form for type hint {hint!r}")


class KernelTooSmallError(ValidationError):
    """Body bounding box exceeds the crop kernel along `axis`."""

    def __init__(self, axis: str, needed: int, available: int):
        self.axis = axis
        super().__init__(
            f"body bounding box needs {needed} voxels on axis {axis}, "
            f"kernel provides {available}"
        )


def _counts(dims, what: str) -> tuple[int, ...]:
    """`dims` as a tuple of three positive Python ints. Any other length, a count
    that is not an integer (Python's or numpy's; a bool is none) or one below 1
    raises ValidationError."""
    dims = tuple(dims)
    if len(dims) != 3 or not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool)
                                 and d > 0 for d in dims):
        raise ValidationError(f"{what} must be three positive integer counts, got {dims}")
    return tuple(int(d) for d in dims)


def _spacing(spacing, what: str) -> tuple[float, ...]:
    """`spacing` as a tuple of three finite, strictly positive floats; anything
    else raises ValidationError."""
    spacing = tuple(float(s) for s in spacing)
    if len(spacing) != 3 or not all(0.0 < s < math.inf for s in spacing):
        raise ValidationError(f"{what} must be finite and strictly positive, got {spacing}")
    return spacing


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
        dims = _counts(self.dims, "dims")
        spacing = _spacing(self.spacing, "spacing")
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
            if self.prescription is None or not 0 < self.prescription < math.inf:
                raise ValidationError(f"PTV {self.name!r} needs a positive finite prescription")
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
        return np.flatnonzero(self.mask.flat())

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
class KernelSpec(Record):
    """Fixed crop size fed to the model."""

    dims: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "dims", _counts(self.dims, "kernel dims"))

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


def _overlap(offset: CropOffset):
    """(source slices, kernel slices) of the kernel window's overlap with the source
    grid, one slice per axis; None when the two do not overlap."""
    src, ker = [], []
    for o, k, n in zip(offset.origin, offset.kernel_dims, offset.source_dims):
        s0, s1 = max(0, o), min(n, o + k)
        if s0 >= s1:
            return None
        src.append(slice(s0, s1))
        ker.append(slice(s0 - o, s1 - o))
    return tuple(src), tuple(ker)


def crop_with_offset(grid: VoxelGrid, offset: CropOffset) -> VoxelGrid:
    """Extract the kernel window; voxels outside the source grid become zero."""
    if grid.dims != offset.source_dims:
        raise ValidationError(
            f"grid dims {grid.dims} do not match crop source dims {offset.source_dims}"
        )
    out = np.zeros(offset.kernel_dims, dtype=np.float32)
    overlap = _overlap(offset)
    if overlap is not None:
        src, ker = overlap
        out[ker] = grid.data[src]
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
    overlap = _overlap(offset)
    if overlap is not None:
        src, ker = overlap
        out[src] = kernel_grid.data[ker]
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
    raw = _read_bytes(Path(path))
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
# 2: the grid (dims and spacing) is gone; the masks hold it
MANIFEST_VERSION = 2
MASK_DIR = "masks"


@dataclass(frozen=True)
class StructureEntry(Record):
    """One structure of a saved case's manifest: the fields of its StructureMask
    and the path of its mask file, relative to the case directory."""

    name: str
    kind: str
    mask_path: str
    prescription: float | None = None
    impact: str | None = None

    @classmethod
    def from_json_dict(cls, d: dict):
        try:
            return super().from_json_dict(d)
        except ValidationError as exc:
            raise ValidationError(f"bad structure entry {d!r} ({exc})") from exc


def write_manifest(path, record: Record, version: int) -> None:
    """Write `record` stamped with ``"schema_version": version`` as JSON (sorted
    keys, indent 2, trailing newline) atomically; `read_manifest` reads it back."""
    text = json.dumps({**record.to_json_dict(), "schema_version": version},
                      indent=2, sort_keys=True) + "\n"
    _atomic_write_bytes(Path(path), text.encode("utf-8"))


def read_manifest(path, cls: type[Record], version: int) -> Record:
    """The `cls` record that `write_manifest` wrote to `path` with `version`.
    Malformed JSON, a missing or other version, and JSON that `cls.from_json_dict`
    rejects raise ManifestError; a missing file raises MissingFileError."""
    try:
        manifest = json.loads(_read_bytes(Path(path)).decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed JSON, bytes that are not UTF-8, or an integer too
        # long to convert; RecursionError: arrays or objects nested too deep
        raise ManifestError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise ManifestError(f"{path}: expected a JSON object")
    found = manifest.pop("schema_version", None)
    if type(found) is not int or found != version:  # JSON true and 1.0 equal 1 in Python
        raise ManifestError(f"{path}: schema_version {found}, expected {version}")
    try:
        return cls.from_json_dict(manifest)
    except ValidationError as exc:
        raise ManifestError(f"{path}: {exc}") from exc


def save_structure_set(directory, structures: StructureSet) -> tuple[StructureEntry, ...]:
    """Write each mask to ``MASK_DIR/<name>.dvol`` under `directory`; returns the
    manifest entries that name them."""
    directory = Path(directory)
    entries = []
    for s in structures.structures:
        path = f"{MASK_DIR}/{s.name}.dvol"
        write_volume(s.mask, directory / path)
        entries.append(StructureEntry(s.name, s.kind, path, s.prescription, s.impact))
    return tuple(entries)


def _mask_file(directory: Path, entry: StructureEntry) -> Path:
    """The file of `entry`'s mask, which must lie inside the case `directory`.

    The check is lexical: the path, with its ``..`` parts folded, must be
    relative and must not start with ``..``. It reads no directory, so symbolic
    links are not followed: resolving the 16 paths of a siteB case took about
    1 ms of its 4 ms `load_patient` on a 2-core host.
    """
    folded = os.path.normpath(entry.mask_path)
    if "\0" in folded or os.path.isabs(folded) or folded.split(os.sep)[0] == os.pardir:
        raise ManifestError(f"{directory / MANIFEST_NAME}: mask path {entry.mask_path!r} of "
                            f"{entry.name!r} is not a relative path inside the case directory")
    return directory / entry.mask_path


def load_structure_set(directory, entries: tuple[StructureEntry, ...]) -> StructureSet:
    """Inverse of save_structure_set. Entries that StructureMask or StructureSet
    reject, and a mask path that is absolute or leads out of `directory`, raise
    ManifestError; a missing mask file raises MissingFileError."""
    directory = Path(directory)
    masks = [(e, read_volume(_mask_file(directory, e))) for e in entries]
    try:
        return StructureSet(tuple(StructureMask(e.name, e.kind, mask, e.prescription, e.impact)
                                  for e, mask in masks))
    except ValidationError as exc:
        raise ManifestError(f"{directory / MANIFEST_NAME}: bad structure entry or set ({exc})"
                            ) from exc
