import copy
import dataclasses
import hashlib
import json
import os
import pickle
import re
import stat
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dosekit import phantom
from dosekit.errors import ValidationError
from dosekit.evaluation import MetricsReport, MetricValue
from dosekit.phantom import (PatientCase, PatientManifest, SiteSpec, builtin_site,
                             generate_patient, load_patient, save_patient)
from dosekit.planner import (DOSE_FILE, PLAN_JSON, BeamConfig, Plan, PlanDiagnostics, PlanWeights,
                             save_plan)
from dosekit.volume import (
    MANIFEST_NAME,
    MASK_DIR,
    SPACING_MM,
    KernelSpec,
    FileFormatError,
    MissingFileError,
    Record,
    StructureEntry,
    StructureMask,
    StructureSet,
    VoxelGrid,
    read_manifest,
    read_volume,
    write_manifest,
    write_volume,
)


# JSON values of every kind, nested at most a few levels
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)


def site_on(dims):
    """A site whose grid is `dims`, for cases built by hand."""
    return dataclasses.replace(builtin_site("siteA"), site_id="site", kernel=KernelSpec(dims))


def make_mask(shape, coords, kind="BODY", name=None, **kw):
    arr = np.zeros(shape, dtype=np.float32)
    for c in coords:
        arr[c] = 1.0
    name = name or kind.lower()
    return StructureMask(name=name, kind=kind, mask=VoxelGrid(arr), **kw)


def stamped(text, version):
    """`text` with ``"schema_version": version`` added when it is a JSON object."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        return text
    return json.dumps({**value, "schema_version": version}) if isinstance(value, dict) else text


def without_version(path, version=None):
    """Rewrite the manifest at `path` with its schema_version dropped, or set to `version`."""
    manifest = json.loads(path.read_text())
    manifest.pop("schema_version")
    if version is not None:
        manifest["schema_version"] = version
    path.write_text(json.dumps(manifest))


class TestLinearIndex:
    """The one raster convention: `StructureMask.linear_indices` and its inverse,
    ``np.unravel_index(..., order="F")``, which `build_influence_matrix` uses."""

    @staticmethod
    def index_of(coord, dims):
        (index,) = make_mask(dims, [coord]).linear_indices()
        return index

    def test_origin(self):
        assert self.index_of((0, 0, 0), (4, 4, 4)) == 0

    def test_last_voxel(self):
        assert self.index_of((3, 3, 3), (4, 4, 4)) == 63

    def test_hand_evaluated(self):
        assert self.index_of((1, 2, 3), (4, 5, 6)) == 69

    @given(st.tuples(*[st.integers(1, 5)] * 3), st.integers(0, 2**32 - 1))
    def test_bijective(self, dims, seed):
        arr = np.random.default_rng(seed).random(dims) < 0.5
        nx, ny, _ = dims
        assume(arr.any())  # a structure has at least one voxel
        x, y, z = np.nonzero(arr)
        indices = StructureMask("body", "BODY", VoxelGrid(arr)).linear_indices()
        assert indices.tolist() == sorted((x + nx * (y + ny * z)).tolist())
        assert set(zip(*np.unravel_index(indices, dims, order="F"))) == set(zip(x, y, z))

    @settings(max_examples=80, deadline=None)
    # three distinct extents, so that reading the grid in C order instead of F fails
    @given(st.lists(st.integers(1, 7), min_size=3, max_size=3, unique=True).map(tuple),
           st.integers(0, 2**32 - 1))
    @example((3, 1, 2), 0)
    def test_matches_flat_raster_order(self, dims, seed):
        # linear_indices reads a bool copy of the grid: it must give the nonzero
        # indices of flat(), the float32 grid in raster order, -0.0 voxels excluded
        rng = np.random.default_rng(seed)
        zero = np.where(rng.random(dims) < 0.5, np.float32(-0.0), np.float32(0.0))
        arr = np.where(rng.random(dims) < 0.5, np.float32(1.0), zero)
        arr.flat[0] = -0.0
        assume(arr.any())  # a structure has at least one voxel
        mask = StructureMask("body", "BODY", VoxelGrid(arr))
        assert np.signbit(mask.mask.data).any()
        assert np.array_equal(mask.linear_indices(), np.flatnonzero(mask.mask.flat()))


class TestVoxelGrid:
    def test_rejects_nan(self):
        arr = np.zeros((2, 2, 2), dtype=np.float32)
        arr[0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            VoxelGrid(arr)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 2, 2, 1), (2, 0, 2), ()],
                             ids=["two-axes", "four-axes", "empty-axis", "scalar"])
    def test_rejects_bad_dims(self, shape):
        # the dims are the data's shape: three positive axes
        with pytest.raises(ValidationError, match="^dims must be three positive integer counts"):
            VoxelGrid(np.zeros(shape))

    def test_dims_are_the_shape(self):
        grid = VoxelGrid(np.zeros((2, 3, 4)))
        assert grid.dims == grid.data.shape == (2, 3, 4)
        # every grid's voxels are SPACING_MM: the data is a grid's one field
        assert [f.name for f in dataclasses.fields(VoxelGrid)] == ["data"]

    def test_takes_numpy_integer_dims(self):
        kernel = KernelSpec((np.int64(2), np.int32(3), np.uint8(4)))
        assert kernel.dims == (2, 3, 4)
        assert all(type(d) is int for d in kernel.dims)

    def test_takes_its_own_copy(self):
        # a grid is frozen, but the caller's array, and the array a view shows, are not
        base = np.zeros((2, 2, 2), dtype=np.float32)
        grids = VoxelGrid(base), VoxelGrid(base[:])
        assert base.flags.writeable
        base[0, 0, 0] = 5.0
        assert [g.data[0, 0, 0] for g in grids] == [0.0, 0.0]

    def test_data_is_readonly(self):
        g = VoxelGrid(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            g.data[0, 0, 0] = 1.0

    def test_flat_is_raster_order(self):
        arr = np.zeros((2, 3, 4), dtype=np.float32)
        arr[1, 2, 3] = 7.0
        g = VoxelGrid(arr)
        assert g.flat()[23] == 7.0  # 1 + 2*(2 + 3*3)



# a deep copy and pickle round trips at every protocol that numpy arrays support
COPIES = [pytest.param(copy.deepcopy, id="deepcopy")] + [
    pytest.param(lambda obj, protocol=protocol: pickle.loads(pickle.dumps(obj, protocol=protocol)),
                 id=f"pickle-{protocol}")
    for protocol in (2, 3, 4, 5)
]


class TestCopies:
    """A copy of a VoxelGrid is rebuilt through its constructor: numpy's deep copy of an
    array, and an array unpickled below protocol 5, are writeable, and a copy must be as
    frozen and as valid as its original."""

    @staticmethod
    def assert_frozen_copy(copied, original):
        assert copied is not original and copied.identical(original)
        assert not copied.data.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            copied.data[0, 0, 0] = 1.0

    @pytest.mark.parametrize("copy_of", COPIES)
    def test_voxel_grid(self, copy_of):
        grid = VoxelGrid(np.arange(24, dtype=np.float32).reshape(2, 3, 4))
        self.assert_frozen_copy(copy_of(grid), grid)

    @pytest.mark.parametrize("copy_of", COPIES)
    def test_structure_mask(self, copy_of):
        mask = make_mask((4, 4, 4), [(3, 3, 3), (0, 0, 0)], kind="OAR", impact="low")
        mask.linear_indices()
        copied = copy_of(mask)
        assert (copied.name, copied.kind, copied.impact) == ("oar", "OAR", "low")
        self.assert_frozen_copy(copied.mask, mask.mask)
        assert np.array_equal(copied.linear_indices(), mask.linear_indices())
        assert not copied.linear_indices().flags.writeable

    @pytest.mark.parametrize("copy_of", COPIES)
    def test_plan_dose(self, copy_of):
        plan = Plan("siteA-p0001", 0, PlanWeights({"ptv70": 1.0}), np.array([0.5, 1.0]),
                    VoxelGrid(np.arange(24, dtype=np.float32).reshape(2, 3, 4) / 8),
                    PlanDiagnostics(iterations=1, converged=False, final_objective=0.5,
                                    objective_at_zero=1.0, operator_norm=1.0, kkt_residual=0.1))
        self.assert_frozen_copy(copy_of(plan).dose, plan.dose)

    @pytest.mark.parametrize("copy_of", COPIES)
    def test_plan_fluence(self, copy_of):
        plan = hand_built_plan()
        copied = copy_of(plan).fluence
        assert copied is not plan.fluence and np.array_equal(copied, plan.fluence)
        with pytest.raises(ValueError, match="read-only"):
            copied[0] = -1.0

    def test_unpickled_plan_is_validated(self):
        raw = pickle.dumps(hand_built_plan(), protocol=4)
        assert raw.count(np.float64(1.25).tobytes()) == 1
        with pytest.raises(ValidationError, match="fluence must be finite and nonnegative"):
            pickle.loads(raw.replace(np.float64(1.25).tobytes(), np.float64(-1.25).tobytes()))

    def test_unpickled_grid_is_validated(self):
        grid = VoxelGrid(np.full((2, 2, 2), 1234.5, dtype=np.float32))
        raw = pickle.dumps(grid, protocol=4)
        assert raw.count(np.float32(1234.5).tobytes()) == 8
        with pytest.raises(ValidationError, match="finite"):
            pickle.loads(raw.replace(np.float32(1234.5).tobytes(), np.float32(np.nan).tobytes()))


class TestVolumeRoundTrip:
    def test_zero_grid_file_size(self, tmp_path):
        g = VoxelGrid(np.zeros((2, 2, 2)))
        p = tmp_path / "g.dvol"
        write_volume(g, p)
        # 4 magic + 2 version + 12 dims + 12 spacing + 32 payload
        assert p.stat().st_size == 30 + 32
        assert read_volume(p).identical(g)

    def test_value_bit_pattern_preserved(self, tmp_path):
        arr = np.zeros((4, 1, 1), dtype=np.float32)
        arr[3, 0, 0] = 1.5
        g = VoxelGrid(arr)
        p = tmp_path / "g.dvol"
        write_volume(g, p)
        back = read_volume(p)
        assert back.data.tobytes() == g.data.tobytes()

    @settings(max_examples=40)
    @given(
        st.tuples(
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=1, max_value=4),
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_round_trip_property(self, dims, seed):
        rng = np.random.default_rng(seed)
        arr = rng.standard_normal(dims).astype(np.float32)
        g = VoxelGrid(arr)
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "g.dvol"
            write_volume(g, p)
            assert read_volume(p).identical(g)

    @staticmethod
    def corrupt_volume_loads_or_is_typed(raw: bytes) -> None:
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "g.dvol"
            p.write_bytes(raw)
            try:
                read_volume(p)
            except FileFormatError as exc:
                assert str(exc).startswith(f"{p}: ")

    @staticmethod
    def valid_volume() -> bytes:
        """A 3 x 2 x 2 grid: 30 header and 48 payload bytes."""
        arr = np.random.default_rng(0).standard_normal((3, 2, 2)).astype(np.float32)
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "g.dvol"
            write_volume(VoxelGrid(arr), p)
            return p.read_bytes()

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=77))
    def test_truncated_file_loads_or_is_typed(self, cut):
        self.corrupt_volume_loads_or_is_typed(self.valid_volume()[:cut])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=77), st.integers(min_value=0, max_value=255))
    def test_overwritten_byte_loads_or_is_typed(self, offset, value):
        raw = bytearray(self.valid_volume())
        raw[offset] = value
        self.corrupt_volume_loads_or_is_typed(bytes(raw))

    @staticmethod
    def rejected_with_path(path, raw: bytes, message: str) -> None:
        """read_volume of `raw` raises FileFormatError naming `path` and then `message`."""
        path.write_bytes(raw)
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: {message}"):
            read_volume(path)

    @pytest.mark.parametrize("corrupt, message", [
        pytest.param(lambda raw: b"XVOL" + raw[4:], "not a DVOL file", id="bad_magic"),
        pytest.param(lambda raw: raw[:3], "not a DVOL file", id="short_magic"),
        pytest.param(lambda raw: raw[:29], "truncated header", id="truncated_header"),
        pytest.param(lambda raw: raw[:4] + bytes([99]) + raw[5:], "format version 99, expected 1",
                     id="version_mismatch"),
        pytest.param(lambda raw: raw[:-4], "payload has 44 bytes, expected 48$",
                     id="payload_too_short"),
        pytest.param(lambda raw: raw + bytes(4), "payload has 52 bytes, expected 48$",
                     id="payload_too_long"),
    ])
    def test_fault_is_named(self, tmp_path, corrupt, message):
        self.rejected_with_path(tmp_path / "g.dvol", corrupt(self.valid_volume()), message)

    def test_nan_spacing_is_rejected(self, tmp_path):
        raw = bytearray(self.valid_volume())
        raw[25] = 0x7F  # the top byte of spacing y: 5.0 = 0x40a00000 becomes a NaN
        self.rejected_with_path(tmp_path / "g.dvol", bytes(raw),
                                r"spacing \(5.0, nan, 5.0\) mm, expected \(5.0, 5.0, 5.0\)$")

    @pytest.mark.parametrize("spacing", [(2.5, 5.0, 5.0), (5.0, 0.0, 5.0), (5.0, 5.0, np.nan)],
                             ids=["finer", "zero", "nan"])
    def test_other_spacing_is_refused(self, tmp_path, spacing):
        # every grid's voxels are SPACING_MM; a header that says otherwise is a bad file
        raw = bytearray(self.valid_volume())
        raw[18:30] = np.array(spacing, dtype="<f4").tobytes()
        self.rejected_with_path(tmp_path / "g.dvol", bytes(raw), re.escape(
            f"spacing {tuple(np.float32(spacing).tolist())} mm, expected {SPACING_MM}") + "$")

    def test_zero_dims_header_is_rejected(self, tmp_path):
        # nx = 0 and no payload, so the payload size matches the header
        raw = bytearray(self.valid_volume()[:30])
        raw[6:10] = bytes(4)
        self.rejected_with_path(tmp_path / "g.dvol", bytes(raw), "dims must be")

    def test_nan_payload_is_rejected(self, tmp_path):
        raw = bytearray(self.valid_volume())
        raw[30:34] = np.float32(np.nan).tobytes()  # the first value
        self.rejected_with_path(tmp_path / "g.dvol", bytes(raw), "grid values must be finite")


class TestStructures:
    def test_ptv_requires_prescription(self):
        with pytest.raises(ValidationError):
            make_mask((2, 2, 2), [(0, 0, 0)], kind="PTV")

    @pytest.mark.parametrize("prescription", [float("nan"), float("inf"), 0.0])
    def test_ptv_prescription_must_be_positive_and_finite(self, prescription):
        with pytest.raises(ValidationError, match="positive finite"):
            make_mask((2, 2, 2), [(0, 0, 0)], kind="PTV", prescription=prescription)

    def test_oar_requires_impact(self):
        with pytest.raises(ValidationError):
            make_mask((2, 2, 2), [(0, 0, 0)], kind="OAR")

    @pytest.mark.parametrize("name", ["", ".", "..", "a/b", "../../escaped", "/abs", "a\\b",
                                      "a\0b"])
    def test_name_must_be_a_plain_file_stem(self, name):
        # a saved mask lies at MASK_DIR/<name>.dvol, which must stay inside its case
        mask = make_mask((2, 2, 2), [(0, 0, 0)]).mask
        with pytest.raises(ValidationError, match="not a plain file name"):
            StructureMask(name, "BODY", mask)
        with pytest.raises(ValidationError, match="not a plain file name"):
            StructureEntry(name, "BODY")

    @pytest.mark.parametrize("name", ["body", "left lung", ".hidden", "a..b", "...", "ptv70.dvol"])
    def test_plain_file_stem_is_a_name(self, name):
        assert make_mask((2, 2, 2), [(0, 0, 0)], name=name).name == name

    def test_mask_must_be_binary(self):
        arr = np.full((2, 2, 2), 0.5, dtype=np.float32)
        with pytest.raises(ValidationError):
            StructureMask(name="b", kind="BODY", mask=VoxelGrid(arr))
        # one stray voxel in an otherwise binary mask
        for stray in (0.5, 2.0, -1.0):
            arr = np.zeros((3, 3, 3), dtype=np.float32)
            arr[0, 0, 0] = 1.0
            arr[2, 1, 0] = stray
            with pytest.raises(ValidationError, match="values outside"):
                StructureMask(name="b", kind="BODY", mask=VoxelGrid(arr))

    @pytest.mark.parametrize("kind, fields", [
        ("PTV", {"prescription": 1.0}), ("OAR", {"impact": "high"}), ("BODY", {}),
    ], ids=["PTV", "OAR", "BODY"])
    def test_empty_mask_is_refused(self, kind, fields):
        # so no stage needs a branch for a structure without voxels; -0.0 is no voxel
        with pytest.raises(ValidationError, match="^mask 's' is empty$"):
            StructureMask("s", kind, VoxelGrid(np.full((2, 2, 2), -0.0)), **fields)

    @pytest.mark.parametrize("kind, fields", [
        ("OAR", {"impact": "high", "prescription": 1.0}), ("BODY", {"prescription": 1.0}),
    ], ids=["OAR", "BODY"])
    def test_only_a_ptv_carries_a_prescription(self, kind, fields):
        with pytest.raises(ValidationError, match=f"^{kind} 's' must not carry a prescription$"):
            StructureMask("s", kind, make_mask((2, 2, 2), [(0, 0, 0)]).mask, **fields)

    @pytest.mark.parametrize("kind, fields", [
        ("PTV", {"prescription": 1.0, "impact": "low"}), ("BODY", {"impact": "low"}),
    ], ids=["PTV", "BODY"])
    def test_only_an_oar_carries_an_impact_tag(self, kind, fields):
        with pytest.raises(ValidationError, match=f"^{kind} 's' must not carry an impact tag$"):
            StructureMask("s", kind, make_mask((2, 2, 2), [(0, 0, 0)]).mask, **fields)

    @pytest.mark.parametrize("shape", [(2, 2, 3)], ids=["dims"])
    def test_set_requires_one_grid(self, shape):
        body = make_mask((2, 2, 2), [(0, 0, 0)])
        ptv = StructureMask("ptv", "PTV", VoxelGrid(np.ones(shape)), prescription=1.0)
        with pytest.raises(ValidationError,
                           match="^structure 'ptv' geometry differs from the case grid$"):
            StructureSet((body, ptv))

    def test_negative_zero_is_binary(self):
        arr = np.full((2, 2, 2), -0.0, dtype=np.float32)
        arr[1, 1, 1] = 1.0
        mask = StructureMask(name="b", kind="BODY", mask=VoxelGrid(arr))
        assert mask.linear_indices().tolist() == [7]

    def test_set_requires_containment(self):
        body = make_mask((3, 3, 3), [(0, 0, 0)])
        ptv = make_mask((3, 3, 3), [(1, 1, 1)], kind="PTV", name="ptv", prescription=1.0)
        with pytest.raises(ValidationError):
            StructureSet((body, ptv))

    def test_set_requires_unique_names(self):
        body = make_mask((3, 3, 3), [(0, 0, 0), (1, 1, 1)])
        ptv1 = make_mask((3, 3, 3), [(0, 0, 0)], kind="PTV", name="p", prescription=1.0)
        ptv2 = make_mask((3, 3, 3), [(1, 1, 1)], kind="PTV", name="p", prescription=0.5)
        with pytest.raises(ValidationError):
            StructureSet((body, ptv1, ptv2))

    def test_valid_set_accessors(self):
        body = make_mask((3, 3, 3), [(0, 0, 0), (1, 1, 1), (2, 2, 2)])
        ptv = make_mask((3, 3, 3), [(1, 1, 1)], kind="PTV", name="ptv", prescription=0.8)
        oar = make_mask((3, 3, 3), [(2, 2, 2)], kind="OAR", name="oar", impact="high")
        sset = StructureSet((body, ptv, oar))
        assert sset.body.name == "body"
        assert sset.highest_prescription == 0.8
        assert [s.name for s in sset.oars] == ["oar"]

    def test_linear_indices_sorted(self):
        m = make_mask((4, 4, 4), [(3, 3, 3), (0, 0, 0), (1, 2, 3)])
        idx = m.linear_indices()
        assert list(idx) == sorted(idx)
        assert 0 in idx and 63 in idx

    def test_linear_indices_computed_once_and_read_only(self, monkeypatch):
        m = make_mask((4, 4, 4), [(3, 3, 3), (0, 0, 0), (1, 2, 3)])
        expected = np.flatnonzero(m.mask.flat())
        calls = []
        flatnonzero = np.flatnonzero
        monkeypatch.setattr(np, "flatnonzero", lambda a: calls.append(a) or flatnonzero(a))
        first, second = m.linear_indices(), m.linear_indices()
        assert len(calls) == 1 and second is first
        assert np.array_equal(first, expected)
        with pytest.raises(ValueError, match="read-only"):
            first[0] = 5

    def test_linear_indices_of_an_unpickled_mask_are_read_only(self):
        m = make_mask((4, 4, 4), [(3, 3, 3), (0, 0, 0)])
        m.linear_indices()
        copy = pickle.loads(pickle.dumps(m, protocol=4))  # protocol 4 drops numpy's read-only flag
        assert np.array_equal(copy.linear_indices(), m.linear_indices())
        assert not copy.linear_indices().flags.writeable


class TestWriteFaults:
    @pytest.mark.parametrize("write", [
        lambda path: write_volume(VoxelGrid(np.zeros((2, 2, 2))), path),
        lambda path: write_manifest(path, MetricsReport(0.9, (_ROW,))),
    ], ids=["volume", "manifest"])
    @pytest.mark.parametrize("target", ["file/x", "file/sub/x", "directory"],
                             ids=["under-a-file", "below-a-file", "onto-a-directory"])
    def test_bad_path_is_typed(self, tmp_path, write, target):
        # FileExistsError, NotADirectoryError and IsADirectoryError as the OS raises them
        (tmp_path / "file").write_bytes(b"")
        (tmp_path / "directory").mkdir()
        path = tmp_path / target
        with pytest.raises(MissingFileError, match=f"^{re.escape(str(path))}: "):
            write(path)
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("save, manifest", [
        (lambda d: save_patient(d, generate_patient(builtin_site("siteA"), 1)), MANIFEST_NAME),
        (lambda d: save_plan(d, hand_built_plan()), PLAN_JSON),
    ], ids=["patient", "plan"])
    def test_directory_at_the_manifest_is_typed(self, tmp_path, save, manifest):
        # the old manifest is removed before any other file is written
        (tmp_path / manifest).mkdir()
        path = re.escape(str(tmp_path / manifest))
        with pytest.raises(MissingFileError, match=f"^{path}: is a directory$"):
            save(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [manifest]

    @pytest.mark.parametrize("name", ["body", "oar99"], ids=["body", "stray"])
    def test_directory_at_a_mask_path_is_typed(self, tmp_path, name):
        # a save removes the masks that its manifest may not name; a directory is none
        path = tmp_path / MASK_DIR / f"{name}.dvol"
        path.mkdir(parents=True)
        with pytest.raises(MissingFileError, match=f"^{re.escape(str(path))}: is a directory$"):
            save_patient(tmp_path, generate_patient(builtin_site("siteA"), 1))


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def hand_built_plan() -> Plan:
    """A plan built by hand, not solved: CP diagnostics depend on the BLAS thread count."""
    return Plan(
        patient_id="siteA-p0001",
        index=3,
        weights=PlanWeights({"ptv70": 1.0, "oar01": 0.25, "oar02": 0.0625}),
        fluence=np.array([0.0, 0.5, 1.25, 3.0]),
        dose=VoxelGrid(np.arange(24, dtype=np.float32).reshape(2, 3, 4) / 8),
        diagnostics=PlanDiagnostics(iterations=2000, converged=False, final_objective=0.125,
                                    objective_at_zero=1.5, operator_norm=0.75,
                                    kkt_residual=1e-4),
    )


# the PTV is entry 1 of the case `TestManifest._saved` writes
ENTRY_FAULT = "bad PatientManifest field 'structures[1]'"


class TestManifest:
    def test_saved_files_keep_their_bytes(self, tmp_path):
        # structures.json changed with PatientManifest schema 4: a case carries its whole site
        save_plan(tmp_path / "plan", hand_built_plan())
        save_patient(tmp_path / "patient", generate_patient(builtin_site("siteA"), 1))
        write_manifest(tmp_path / "siteB.json", builtin_site("siteB"))
        write_manifest(tmp_path / "report.json", MetricsReport(
            0.9, (_ROW, MetricValue("oar01", "OAR", "high", "Dmean", 0.25, 0.3, 5.0))))
        digests = {name: sha256_of(tmp_path / name) for name in [
            "plan/plan.json", "plan/dose.dvol", "plan/fluence.f32",
            f"patient/{MANIFEST_NAME}", "siteB.json", "report.json"]}
        assert digests == {
            "plan/plan.json": "84d6898998da3c3719a14d6e1312d09b540e911af507e483a0b8139aa3b29a92",
            "plan/dose.dvol": "5dc1839ef5539ce7da879d83912da77f2163701fa045e96f4233ce484c96a79c",
            "plan/fluence.f32": "bd0c463d360c6bc981eea4939a04ff825aa22b101aafe2c035ad15628669bb64",
            f"patient/{MANIFEST_NAME}":
                "6ad2b8aa6d39a0cad4455600ee0ee65bd09680c8111792b49f24845424bb3145",
            "siteB.json": "87377223358964a6a22c507b0ad3bd41ab55fd88573a08afe083ef7e8363c46d",
            "report.json": "798ce1681c2ac5ef60cbf200e0971f54f6dc4cac101b3f7a13e4864ce16c3d45",
        }

    def test_saved_files_get_the_umask_mode(self, tmp_path):
        # a temporary file from tempfile.mkstemp is 0600, and os.replace kept that
        # mode whatever the umask
        umask = os.umask(0o022)
        try:
            save_plan(tmp_path, hand_built_plan())
            (tmp_path / "reference").write_bytes(b"")
        finally:
            os.umask(umask)
        modes = {name: stat.S_IMODE((tmp_path / name).stat().st_mode)
                 for name in ["reference", DOSE_FILE, PLAN_JSON]}
        assert modes == dict.fromkeys(modes, 0o644)

    def test_write_manifest_format(self, tmp_path):
        @dataclass(frozen=True)
        class Pair(Record):
            SCHEMA_VERSION = 3

            b: tuple[int, ...]
            a: dict[str, float | None]

        record = Pair(b=(1, 2), a={"y": 1.5, "x": None})
        write_manifest(tmp_path / "m.json", record)
        text = (tmp_path / "m.json").read_text()
        assert text == ('{\n  "a": {\n    "x": null,\n    "y": 1.5\n  },\n  "b": [\n    1,\n    2\n  ],\n'
                        '  "schema_version": 3\n}\n')
        assert read_manifest(tmp_path / "m.json", Pair) == record
        assert not list(tmp_path.glob("*.tmp"))

    def test_round_trip(self, tmp_path):
        body = make_mask((3, 3, 3), [(0, 0, 0), (1, 1, 1), (2, 2, 2)])
        ptv = make_mask((3, 3, 3), [(1, 1, 1)], kind="PTV", name="ptv70", prescription=1.0)
        oar = make_mask((3, 3, 3), [(2, 2, 2)], kind="OAR", name="oar01", impact="low")
        sset = StructureSet((body, ptv, oar))
        save_patient(tmp_path, PatientCase(sset, site_on((3, 3, 3)), 0))
        names = ["body", "ptv70", "oar01"]
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert [e["name"] for e in manifest["structures"]] == names
        assert sorted(p.name for p in (tmp_path / MASK_DIR).iterdir()) == sorted(
            f"{n}.dvol" for n in names)
        loaded = load_patient(tmp_path).structures
        assert [s.name for s in loaded.structures] == names
        for a, b in zip(loaded.structures, sset.structures):
            assert a.mask.identical(b.mask)
            assert (a.kind, a.prescription, a.impact) == (b.kind, b.prescription, b.impact)

    @staticmethod
    def _saved(directory):
        body = make_mask((3, 3, 3), [(1, 1, 1)])
        ptv = make_mask((3, 3, 3), [(1, 1, 1)], kind="PTV", name="ptv", prescription=1.0)
        save_patient(directory, PatientCase(StructureSet((body, ptv)), site_on((3, 3, 3)), 0))
        return directory / MANIFEST_NAME

    @pytest.mark.parametrize("text", ['{"dims": [3, 3', "{}", '{"structures": 3}',
                                      '{"structures": [{"name": "body"}]}'])
    def test_corrupt_manifest_is_typed(self, tmp_path, text):
        # stamped, so a JSON object fails on the fault its text shows, not on the version
        path = self._saved(tmp_path)
        path.write_text(stamped(text, PatientManifest.SCHEMA_VERSION))
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: "):
            load_patient(tmp_path)

    @pytest.mark.parametrize("key, value, message", [
        ("prescription", "x", ENTRY_FAULT), ("prescription", True, ENTRY_FAULT),
        ("kind", ["PTV"], ENTRY_FAULT), ("name", 5, ENTRY_FAULT),
        # a bare NaN or Infinity is not strict JSON
        ("prescription", float("nan"), "not valid JSON (NaN is not strict JSON)"),
        ("prescription", float("inf"), "not valid JSON (Infinity is not strict JSON)"),
        ("kind", "GTV", ENTRY_FAULT),
    ], ids=["string-prescription", "bool-prescription", "list-kind", "int-name",
            "nan-prescription", "infinite-prescription", "unknown-kind"])
    def test_mistyped_structure_entry_is_typed(self, tmp_path, monkeypatch, key, value, message):
        path = self._saved(tmp_path)
        manifest = json.loads(path.read_text())
        next(e for e in manifest["structures"] if e["kind"] == "PTV")[key] = value
        path.write_text(json.dumps(manifest))
        read = []
        monkeypatch.setattr(phantom, "read_volume", lambda p: read.append(p) or read_volume(p))
        with pytest.raises(FileFormatError, match=f"^{re.escape(f'{path}: {message}')}"):
            load_patient(tmp_path)
        assert read == []  # the entry is refused as the manifest is decoded

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_write_refuses_what_strict_json_cannot_hold(self, tmp_path, value):
        path = tmp_path / "report.json"
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: Out of range float"):
            write_manifest(path, MetricsReport(value, (_ROW,)))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("version", [None, PatientManifest.SCHEMA_VERSION + 1, True,
                                         float(PatientManifest.SCHEMA_VERSION)],
                             ids=["missing", "wrong", "bool", "float"])
    def test_manifest_version_is_checked(self, tmp_path, version):
        if version is True:
            # JSON true equals 1 in Python, so only a version-1 reader shows it refused
            assert MetricsReport.SCHEMA_VERSION == 1
            path, load = tmp_path / "report.json", lambda p: read_manifest(p, MetricsReport)
            write_manifest(path, MetricsReport(0.9, (_ROW,)))
        else:
            path, load = self._saved(tmp_path), lambda p: load_patient(p.parent)
        without_version(path, version)
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: schema_version"):
            load(path)


class TestKernelSpec:
    def test_rejects_bad_dims(self):
        for dims in [(32, 32), (32, 0, 16), (32, -2, 16), (32.9, 32, 16), (32, 32, True)]:
            with pytest.raises(ValidationError):
                KernelSpec(dims)

    def test_check_pooling(self):
        kernel = KernelSpec((32, 32, 16))
        for pools in range(5):  # 16 = 2^4 survives four halvings
            kernel.check_pooling(pools)
        with pytest.raises(ValidationError, match="axis z=16 not divisible by 2\\^5"):
            kernel.check_pooling(5)
        with pytest.raises(ValidationError, match="axis x=12"):
            KernelSpec((12, 16, 16)).check_pooling(3)
        for site in ("siteA", "siteB"):  # the preset grids survive a 3-level net's two poolings
            builtin_site(site).kernel.check_pooling(2)


_ROW = MetricValue("ptv70", "PTV", None, "D95", 0.93, 0.95, 2.0)
RECORDS = [
    KernelSpec((32, 32, 16)),
    BeamConfig(n_beams=5, beamlet_grid=(4, 3)),
    builtin_site("siteB").shape_palette,
    builtin_site("siteB"),
    PlanDiagnostics(iterations=2000, converged=False, final_objective=0.25,
                    objective_at_zero=2.5, operator_norm=1.75, kkt_residual=3e-4),
    _ROW,
    MetricsReport(prescription=1.0, rows=(_ROW, MetricValue("oar01", "OAR", "high", "Dmax",
                                                            0.4, 0.5, 10.0))),
]


# (record, a valid record's fields replaced by d, the field named in the error)
MISTYPED = [
    (PlanDiagnostics, {"iterations": "many"}, "iterations"),
    (PlanDiagnostics, {"iterations": True}, "iterations"),
    (PlanDiagnostics, {"converged": "no"}, "converged"),
    (PlanDiagnostics, {"final_objective": None}, "final_objective"),
    (PlanDiagnostics, {"kkt_residual": False}, "kkt_residual"),
    (PlanDiagnostics, {"operator_norm": [1.0]}, "operator_norm"),
    (BeamConfig, {"beamlet_grid": [8, 6, 1]}, "beamlet_grid"),
    (BeamConfig, {"beamlet_grid": [8, 6.0]}, "beamlet_grid\\[1\\]"),
    (BeamConfig, {"n_beams": 7.0}, "n_beams"),
    (KernelSpec, {"dims": [32, 32, "16"]}, "dims\\[2\\]"),
    (MetricValue, {"impact": 3}, "impact"),
    (MetricValue, {"structure": None}, "structure"),
]


class TestRecord:
    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_json_round_trip(self, record):
        d = json.loads(json.dumps(record.to_json_dict()))
        assert d == record.to_json_dict()
        assert type(record).from_json_dict(d) == record

    def test_unknown_nested_key_is_named(self):
        d = builtin_site("siteA").to_json_dict()
        d["shape_palette"]["sneaky"] = 1
        with pytest.raises(ValidationError, match="sneaky"):
            SiteSpec.from_json_dict(d)

    def test_missing_key_takes_default(self):
        assert StructureEntry.from_json_dict({"name": "body", "kind": "BODY"}) == StructureEntry(
            "body", "BODY", prescription=None, impact=None)
        d = BeamConfig(n_beams=5).to_json_dict()
        del d["beamlet_grid"], d["ray_step_mm"]
        assert BeamConfig.from_json_dict(d) == BeamConfig(n_beams=5)
        assert BeamConfig.from_json_dict({}) == BeamConfig()

    @pytest.mark.parametrize("kernel", [[32, 32, 16], 32, None])
    def test_non_object_record_field_is_typed(self, kernel):
        d = builtin_site("siteA").to_json_dict()
        d["kernel"] = kernel
        with pytest.raises(ValidationError, match="KernelSpec must be a JSON object"):
            SiteSpec.from_json_dict(d)

    @pytest.mark.parametrize("record, d, message", [
        (SiteSpec, {"site_id": "x"}, "bad SiteSpec .*missing 4 required"),
        (KernelSpec, {"dims": 32}, "bad KernelSpec"),
        (PlanDiagnostics, {"iterations": 1}, "bad PlanDiagnostics .*'kkt_residual'"),
        (SiteSpec, [1, 2], "SiteSpec must be a JSON object"),
    ], ids=["missing-key", "wrong-shape", "missing-key-flat", "not-an-object"])
    def test_bad_input_is_a_validation_error(self, record, d, message):
        with pytest.raises(ValidationError, match=message):
            record.from_json_dict(d)

    @pytest.mark.parametrize("record, d, field", MISTYPED,
                             ids=[f"{r.__name__}-{json.dumps(d)}" for r, d, _ in MISTYPED])
    def test_mistyped_field_is_named(self, record, d, field):
        valid = next(r for r in RECORDS if type(r) is record).to_json_dict()
        with pytest.raises(ValidationError, match=f"bad {record.__name__} field '{field}'"):
            record.from_json_dict({**valid, **d})

    def test_float_field_takes_an_integer_and_optional_takes_null(self):
        assert BeamConfig.from_json_dict({"attenuation_mu": 1}).attenuation_mu == 1
        assert MetricValue.from_json_dict({**_ROW.to_json_dict(), "impact": None}) == _ROW

    def test_field_without_json_form_is_a_type_error(self):
        @dataclass(frozen=True)
        class Tagged(Record):
            tags: set[int]

        with pytest.raises(TypeError, match="^Tagged field 'tags': no JSON form for type hint"):
            Tagged.from_json_dict({"tags": [1]})

    def test_non_object_row_is_typed(self):
        d = RECORDS[-1].to_json_dict()
        d["rows"][0] = "ptv70"
        with pytest.raises(ValidationError, match="MetricValue must be a JSON object"):
            MetricsReport.from_json_dict(d)

    def test_nested_fault_names_its_field(self):
        site = builtin_site("siteA").to_json_dict()
        site["shape_palette"]["ptv_radius_mm"] = [9.0, 3.0]
        report = RECORDS[-1].to_json_dict()
        report["rows"][0]["percent_error"] = -1.0
        with pytest.raises(ValidationError, match=r"^bad SiteSpec field 'shape_palette' "
                                                  r"\(radius range \(9.0, 3.0\)"):
            SiteSpec.from_json_dict(site)
        with pytest.raises(ValidationError, match=r"^bad MetricsReport field 'rows\[0\]' "
                                                  r"\(percent error cannot be negative\)$"):
            MetricsReport.from_json_dict(report)
        report["rows"][0] = {**report["rows"][0], "percent_error": 1.0, "kind": 3}
        with pytest.raises(ValidationError, match=r"^bad MetricsReport field 'rows\[0\]' "
                                                  r"\(bad MetricValue field 'kind'"):
            MetricsReport.from_json_dict(report)
