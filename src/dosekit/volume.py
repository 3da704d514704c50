"""Voxel grids, structure sets (`phantom.save_patient` writes them), kernel
cropping, the .dvol binary format, and the one JSON codec of dosekit.

Conventions used everywhere in this package:

* Raster order is z-major with x fastest: ``index = x + nx*(y + ny*z)``, the
  order of ``VoxelGrid.flat``.
* Grid data is float32 in memory and ``<f4`` on disk, so file round trips are
  bit-exact.
* All types are immutable after construction; operations are pure functions.
* Every JSON file is one frozen-dataclass `Record`, written by `write_manifest`
  stamped with its class's ``SCHEMA_VERSION`` and read back by `read_manifest`,
  which checks that version and decodes it from the record's field type hints.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
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


class FileFormatError(DosekitError):
    """A saved file that its reader refuses: ``"<path>: <fault>"``."""


class MissingFileError(DosekitError):
    """A path that names no file to read or write: it does not exist, or it or one
    of its parents is not what the path needs (a directory where a file is read
    or written, a file where a directory is walked or made)."""


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
    a default or a value that the constructor rejects. A nested Record's fault is
    wrapped as ``bad <Outer> field '<field>' (<fault>)``, a tuple's with its index.

    A Record saved as a file of its own sets the class attribute
    ``SCHEMA_VERSION``, which `write_manifest` stamps and `read_manifest` checks.
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
        try:
            return hint.from_json_dict(value)
        except ValidationError as exc:
            raise ValidationError(f"bad {record} field {field!r} ({exc})") from exc
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
    """Body bounding box exceeds the crop kernel along an axis."""


def _count(value, what: str, least: int = 1) -> int:
    """`value` as a Python int if it is a count: an integer (Python's or numpy's; a
    bool is none) of at least `least`, which is 1 (a positive count) or 0. Anything
    else raises ValidationError naming `what`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValidationError(f"{what} must be {'a positive' if least else 'an'} integer count, "
                              f"got {value!r}")
    return int(value)


def _counts(values, what: str, length: int = 3, least: int = 1) -> tuple[int, ...]:
    """`values` as a tuple of `length` (2 or 3) counts of at least `least` (see
    `_count`); any other length or value raises ValidationError naming `what`."""
    values = tuple(values)
    try:
        if len(values) == length:
            return tuple(_count(v, what, least) for v in values)
    except ValidationError:
        pass
    raise ValidationError(f"{what} must be {'two' if length == 2 else 'three'} "
                          f"{'positive ' if least else ''}integer counts, got {values}")


@dataclass(frozen=True, eq=False)
class VoxelGrid:
    """Dense 3D scalar field with voxel spacing in millimeters.

    ``data`` is the array given, as a read-only float32 array indexed
    ``data[x, y, z]``; its shape, three positive axes, is the grid's ``dims``.
    """

    data: np.ndarray
    spacing: tuple[float, float, float] = DEFAULT_SPACING_MM

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float32)
        _counts(data.shape, "dims")
        spacing = tuple(float(s) for s in self.spacing)
        if len(spacing) != 3 or not all(0.0 < s < math.inf for s in spacing):
            raise ValidationError(f"spacing must be finite and strictly positive, got {spacing}")
        if not np.all(np.isfinite(data)):
            raise ValidationError("grid values must be finite")
        data = np.ascontiguousarray(data)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "spacing", spacing)

    def __reduce__(self):
        # copies (pickle, copy.deepcopy) are rebuilt through the constructor, so they
        # are validated again and their data is read-only: a copied array, and one
        # unpickled below protocol 5, is writeable
        return VoxelGrid, (self.data, self.spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def flat(self) -> np.ndarray:
        """Values in raster (z-major, x fastest) order."""
        return self.data.ravel(order="F")

    def identical(self, other: "VoxelGrid") -> bool:
        """Bit-exact equality of geometry and values (the dims are the data's shape)."""
        return self.spacing == other.spacing and np.array_equal(self.data, other.data)


def _check_fields(name: str, kind: str, prescription, impact) -> None:
    """Raise ValidationError unless `name` is a plain file stem (nonempty, not ``.``
    or ``..``, without ``/``, ``\\`` or NUL: ``MASK_DIR/<name>.dvol`` stays inside
    its case), `kind` is known, a PTV and nothing else has a positive finite
    `prescription`, and an OAR and nothing else has an `impact` tag."""
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ValidationError(f"structure name {name!r} is not a plain file name")
    if kind not in STRUCTURE_KINDS:
        raise ValidationError(f"unknown structure kind {kind!r}")
    if kind == PTV:
        if prescription is None or not 0 < prescription < math.inf:
            raise ValidationError(f"PTV {name!r} needs a positive finite prescription")
    elif prescription is not None:
        raise ValidationError(f"{kind} {name!r} must not carry a prescription")
    if kind == OAR:
        if impact not in IMPACT_TAGS:
            raise ValidationError(f"OAR {name!r} needs an impact tag in {sorted(IMPACT_TAGS)}")
    elif impact is not None:
        raise ValidationError(f"{kind} {name!r} must not carry an impact tag")


@dataclass(frozen=True, eq=False)
class StructureMask:
    """Named binary mask tagged PTV/OAR/BODY, of at least one voxel and only the
    values 0 and 1.

    The name is a plain file stem. PTVs carry a positive normalized prescription;
    OARs carry a clinical impact tag; BODY carries neither (`_check_fields`).
    """

    name: str
    kind: str
    mask: VoxelGrid
    prescription: float | None = None
    impact: str | None = None

    def __post_init__(self):
        _check_fields(self.name, self.kind, self.prescription, self.impact)
        data = self.mask.data
        if not np.all((data == 0.0) | (data == 1.0)):  # one pass; -0.0 == 0.0
            raise ValidationError(f"mask {self.name!r} has values outside {{0,1}}")
        if not data.any():
            raise ValidationError(f"mask {self.name!r} is empty")

    def linear_indices(self) -> np.ndarray:
        """Raster indices of mask voxels, ascending: a read-only array, computed on
        the first call (the mask's data is read-only, so it cannot go stale)."""
        return self._linear_indices

    @functools.cached_property
    def _linear_indices(self) -> np.ndarray:
        # raster order of a bool copy, not of the float32 grid: a quarter of the
        # strided copy, and the same indices (-0.0 != 0 is False, as for flat())
        indices = np.flatnonzero((self.mask.data != 0).ravel(order="F"))
        indices.flags.writeable = False
        return indices

    def __getstate__(self):
        # below pickle protocol 5 an unpickled array is writeable, so a copy recomputes
        # its indices instead
        return {k: v for k, v in self.__dict__.items() if k != "_linear_indices"}

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
    """Fixed crop size fed to the model; as `SiteSpec.kernel`, the phantom grid too."""

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
            raise KernelTooSmallError(f"body bounding box needs {extent} voxels on axis "
                                      f"{name}, kernel provides {k}")
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
    src, ker = [], []
    for o, k, n in zip(offset.origin, offset.kernel_dims, offset.source_dims):
        s0, s1 = max(0, o), min(n, o + k)
        if s0 >= s1:  # no overlap; a negative slice stop would select voxels
            return VoxelGrid(out, grid.spacing)
        src.append(slice(s0, s1))
        ker.append(slice(s0 - o, s1 - o))
    out[tuple(ker)] = grid.data[tuple(src)]
    return VoxelGrid(out, grid.spacing)


def crop_to_kernel(
    grid: VoxelGrid, body: StructureMask, kernel: KernelSpec
) -> tuple[VoxelGrid, CropOffset]:
    """Crop `grid` to the kernel window that centers the body bounding box."""
    offset = kernel_offset_for(body, kernel)
    return crop_with_offset(grid, offset), offset


def uncrop(kernel_grid: VoxelGrid, offset: CropOffset) -> VoxelGrid:
    """Scatter a kernel-shaped grid back onto the source geometry (zeros elsewhere):
    the crop by the inverse offset, with source and kernel dims swapped."""
    inverse = CropOffset(tuple(-o for o in offset.origin), offset.kernel_dims, offset.source_dims)
    return crop_with_offset(kernel_grid, inverse)


def _make_parents(path: Path) -> None:
    """Make the directories above `path`; a file among them raises MissingFileError
    naming `path`."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except (NotADirectoryError, FileExistsError) as exc:  # FileExistsError: mkdir of a file
        raise MissingFileError(f"{path}: a parent is not a directory") from exc


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write `payload` to `path` through a temporary file beside it, which a failed
    write removes. The file gets the mode that the umask gives a new file, as
    ``open(path, "wb")`` would. A file among `path`'s parents (`_make_parents`), or
    a directory at `path`, raises MissingFileError naming `path`."""
    _make_parents(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "xb")  # opened before the try: a name in use is not ours to remove
    try:
        with fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, IsADirectoryError):
            raise MissingFileError(f"{path}: is a directory") from exc
        raise


def write_volume(grid: VoxelGrid, path) -> None:
    """Serialize to .dvol: DVOL | u16 version | 3*u32 dims | 3*f32 spacing | <f4 payload."""
    path = Path(path)
    header = _HEADER.pack(DVOL_MAGIC, DVOL_VERSION, *grid.dims, *grid.spacing)
    payload = grid.flat().astype("<f4").tobytes()
    _atomic_write_bytes(path, header + payload)


def read_volume(path) -> VoxelGrid:
    """Inverse of write_volume; read(write(g)) is bit-exact. A fault raises
    MissingFileError or FileFormatError naming `path`."""
    raw = _read_bytes(Path(path))
    if raw[:4] != DVOL_MAGIC:
        raise FileFormatError(f"{path}: not a DVOL file")
    if len(raw) < _HEADER.size:
        raise FileFormatError(f"{path}: truncated header")
    _, version, nx, ny, nz, sx, sy, sz = _HEADER.unpack_from(raw)
    if version != DVOL_VERSION:
        raise FileFormatError(f"{path}: format version {version}, expected {DVOL_VERSION}")
    expected = nx * ny * nz * 4
    actual = len(raw) - _HEADER.size
    if actual != expected:
        raise FileFormatError(f"{path}: payload has {actual} bytes, expected {expected}")
    flat = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)
    data = flat.reshape((nx, ny, nz), order="F")
    try:
        return VoxelGrid(data, (sx, sy, sz))
    except ValidationError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


MANIFEST_NAME = "structures.json"
MASK_DIR = "masks"


@dataclass(frozen=True)
class StructureEntry(Record):
    """One structure of a saved case's manifest: the fields of its StructureMask
    but the grid. Its mask lies at ``MASK_DIR/<name>.dvol`` in the case directory."""

    name: str
    kind: str
    prescription: float | None = None
    impact: str | None = None

    def __post_init__(self):
        # as the manifest is decoded: load_patient reads no mask of a bad entry
        _check_fields(self.name, self.kind, self.prescription, self.impact)


def _uncommit(manifest: Path) -> None:
    """Remove the manifest that commits a saved directory, before the directory's
    other files are rewritten and the manifest is written last, so a save that fails
    part way leaves nothing to load. A directory at `manifest`, or a file among its
    parents, raises MissingFileError naming it."""
    _make_parents(manifest)
    try:
        manifest.unlink(missing_ok=True)
    except IsADirectoryError as exc:
        raise MissingFileError(f"{manifest}: is a directory") from exc


def write_manifest(path, record: Record) -> None:
    """Write `record` stamped with ``"schema_version"``, its class's SCHEMA_VERSION,
    as strict JSON (sorted keys, indent 2, trailing newline) atomically; `read_manifest`
    reads it back. A NaN or infinity raises ValidationError naming `path`."""
    try:
        text = json.dumps({**record.to_json_dict(), "schema_version": type(record).SCHEMA_VERSION},
                          indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    _atomic_write_bytes(Path(path), text.encode("utf-8"))


def _finite(text: str) -> float:
    """A JSON number as a float; NaN, Infinity and a number that overflows (1e400)
    are not strict JSON."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not strict JSON")
    return value


def read_manifest(path, cls: type[Record]) -> Record:
    """The `cls` record that `write_manifest` wrote to `path`. A fault raises
    MissingFileError or FileFormatError naming `path`: JSON that is malformed or not
    strict (`_finite`), a schema_version other than ``cls.SCHEMA_VERSION``, or a
    record that `cls.from_json_dict` refuses."""
    try:
        manifest = json.loads(_read_bytes(Path(path)).decode("utf-8"),
                              parse_constant=_finite, parse_float=_finite)
    except (ValueError, RecursionError) as exc:
        # ValueError: JSON that is malformed or not strict, bytes that are not UTF-8,
        # or an integer too long to convert; RecursionError: nesting too deep
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise FileFormatError(f"{path}: expected a JSON object")
    found = manifest.pop("schema_version", None)
    if type(found) is not int or found != cls.SCHEMA_VERSION:  # JSON true and 1.0 equal 1
        raise FileFormatError(f"{path}: schema_version {found}, expected {cls.SCHEMA_VERSION}")
    try:
        return cls.from_json_dict(manifest)
    except ValidationError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
