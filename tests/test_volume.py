import hashlib
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dosekit.errors import DosekitError, ValidationError
from dosekit.evaluation import MetricsReport, MetricValue
from dosekit.phantom import (SITE_VERSION, PatientCase, SiteSpec, builtin_site, generate_patient,
                             load_patient, save_patient)
from dosekit.planner import BeamConfig, Plan, PlanDiagnostics, PlanWeights, save_plan
from dosekit.volume import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    BadMagicError,
    CropOffset,
    KernelSpec,
    KernelTooSmallError,
    ManifestError,
    PayloadSizeError,
    Record,
    StructureMask,
    StructureSet,
    TruncatedVolumeError,
    VersionMismatchError,
    VoxelGrid,
    crop_to_kernel,
    crop_with_offset,
    load_structure_set,
    read_manifest,
    read_volume,
    save_structure_set,
    uncrop,
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


def make_mask(shape, coords, kind="BODY", name=None, **kw):
    arr = np.zeros(shape, dtype=np.float32)
    for c in coords:
        arr[c] = 1.0
    name = name or kind.lower()
    return StructureMask(name=name, kind=kind, mask=VoxelGrid.from_array(arr), **kw)


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
        x, y, z = np.nonzero(arr)
        indices = StructureMask("body", "BODY", VoxelGrid.from_array(arr)).linear_indices()
        assert indices.tolist() == sorted((x + nx * (y + ny * z)).tolist())
        assert set(zip(*np.unravel_index(indices, dims, order="F"))) == set(zip(x, y, z))


class TestVoxelGrid:
    def test_rejects_nan(self):
        arr = np.zeros((2, 2, 2), dtype=np.float32)
        arr[0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            VoxelGrid.from_array(arr)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValidationError):
            VoxelGrid((2, 2, 2), (0.0, 5.0, 5.0), np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_spacing(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            VoxelGrid((2, 2, 2), (5.0, bad, 5.0), np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("dims", [(2.7, 2, 2), (2.0, 2, 2), (2, 2, True), (2, 2)],
                             ids=["fraction", "float", "bool", "two-axes"])
    def test_rejects_bad_dims(self, dims):
        with pytest.raises(ValidationError, match="integer counts"):
            VoxelGrid(dims, (5.0, 5.0, 5.0), np.zeros((2, 2, 2)))

    def test_takes_numpy_integer_dims(self):
        dims = (np.int64(2), np.int32(3), np.uint8(4))
        grid, kernel = VoxelGrid(dims, (5.0, 5.0, 5.0), np.zeros((2, 3, 4))), KernelSpec(dims)
        assert grid.dims == kernel.dims == (2, 3, 4)
        assert all(type(d) is int for d in grid.dims + kernel.dims)

    def test_data_is_readonly(self):
        g = VoxelGrid.zeros((2, 2, 2))
        with pytest.raises(ValueError):
            g.data[0, 0, 0] = 1.0

    def test_flat_is_raster_order(self):
        arr = np.zeros((2, 3, 4), dtype=np.float32)
        arr[1, 2, 3] = 7.0
        g = VoxelGrid.from_array(arr)
        assert g.flat()[23] == 7.0  # 1 + 2*(2 + 3*3)


class TestVolumeRoundTrip:
    def test_zero_grid_file_size(self, tmp_path):
        g = VoxelGrid.zeros((2, 2, 2))
        p = tmp_path / "g.dvol"
        write_volume(g, p)
        # 4 magic + 2 version + 12 dims + 12 spacing + 32 payload
        assert p.stat().st_size == 30 + 32
        assert read_volume(p).identical(g)

    def test_value_bit_pattern_preserved(self, tmp_path):
        arr = np.zeros((4, 1, 1), dtype=np.float32)
        arr[3, 0, 0] = 1.5
        g = VoxelGrid.from_array(arr)
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
        g = VoxelGrid.from_array(arr, spacing=(2.5, 5.0, 1.25))
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "g.dvol"
            write_volume(g, p)
            assert read_volume(p).identical(g)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "g.dvol"
        write_volume(VoxelGrid.zeros((1, 1, 1)), p)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"XVOL"
        p.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            read_volume(p)

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "g.dvol"
        write_volume(VoxelGrid.zeros((1, 1, 1)), p)
        raw = bytearray(p.read_bytes())
        raw[4] = 99
        p.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError):
            read_volume(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "g.dvol"
        write_volume(VoxelGrid.zeros((2, 2, 2)), p)
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(TruncatedVolumeError):
            read_volume(p)

    @staticmethod
    def corrupt_volume_loads_or_is_typed(raw: bytes) -> None:
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "g.dvol"
            p.write_bytes(raw)
            try:
                read_volume(p)
            except DosekitError:
                pass

    @staticmethod
    def valid_volume() -> bytes:
        """A 3 x 2 x 2 grid at spacing (2.5, 5, 1.25): 30 header and 48 payload bytes."""
        arr = np.random.default_rng(0).standard_normal((3, 2, 2)).astype(np.float32)
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "g.dvol"
            write_volume(VoxelGrid.from_array(arr, spacing=(2.5, 5.0, 1.25)), p)
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

    def test_nan_spacing_is_rejected(self, tmp_path):
        raw = bytearray(self.valid_volume())
        raw[25] = 0x7F  # the top byte of spacing y: 5.0 = 0x40a00000 becomes a NaN
        p = tmp_path / "g.dvol"
        p.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="finite"):
            read_volume(p)

    def test_payload_too_long(self, tmp_path):
        p = tmp_path / "g.dvol"
        write_volume(VoxelGrid.zeros((2, 2, 2)), p)
        p.write_bytes(p.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(PayloadSizeError):
            read_volume(p)


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

    def test_mask_must_be_binary(self):
        arr = np.full((2, 2, 2), 0.5, dtype=np.float32)
        with pytest.raises(ValidationError):
            StructureMask(name="b", kind="BODY", mask=VoxelGrid.from_array(arr))

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


class TestCrop:
    def _body(self, shape, lo, hi):
        coords = [
            (x, y, z)
            for x in range(lo[0], hi[0] + 1)
            for y in range(lo[1], hi[1] + 1)
            for z in range(lo[2], hi[2] + 1)
        ]
        return make_mask(shape, coords)

    def test_centered_bbox(self):
        body = self._body((40, 40, 20), (10, 10, 5), (19, 19, 14))
        grid = body.mask
        out, off = crop_to_kernel(grid, body, KernelSpec((32, 32, 16)))
        assert out.dims == (32, 32, 16)
        # bbox size 10 in a 32 kernel starts at (32-10)//2 = 11
        assert off.origin == (10 - 11, 10 - 11, 5 - 3)

    def test_tight_fit_identity(self):
        body = self._body((8, 8, 8), (0, 0, 0), (7, 7, 7))
        rng = np.random.default_rng(0)
        grid = VoxelGrid.from_array(rng.random((8, 8, 8), dtype=np.float32))
        out, off = crop_to_kernel(grid, body, KernelSpec((8, 8, 8)))
        assert off.origin == (0, 0, 0)
        assert out.identical(grid)

    def test_kernel_too_small_names_axis(self):
        body = self._body((64, 8, 8), (0, 0, 0), (39, 3, 3))
        with pytest.raises(KernelTooSmallError) as exc:
            crop_to_kernel(body.mask, body, KernelSpec((32, 32, 16)))
        assert exc.value.axis == "x"

    def test_tie_breaks_toward_lower_index(self):
        # extent 2 in kernel 5: start (5-2)//2 = 1, not 2
        body = self._body((6, 6, 6), (2, 2, 2), (3, 3, 3))
        _, off = crop_to_kernel(body.mask, body, KernelSpec((5, 5, 5)))
        assert off.origin == (1, 1, 1)

    def test_crop_then_uncrop_restores_body_region(self):
        rng = np.random.default_rng(1)
        body = self._body((20, 20, 12), (4, 5, 2), (15, 14, 9))
        grid = VoxelGrid.from_array(rng.random((20, 20, 12), dtype=np.float32))
        cropped, off = crop_to_kernel(grid, body, KernelSpec((16, 16, 8)))
        restored = uncrop(cropped, off)
        b = body.bool_array()
        assert np.array_equal(restored.data[b], grid.data[b])

    def test_zero_padding_outside_source(self):
        body = self._body((4, 4, 4), (0, 0, 0), (3, 3, 3))
        grid = VoxelGrid.from_array(np.ones((4, 4, 4), dtype=np.float32))
        out, off = crop_to_kernel(grid, body, KernelSpec((8, 8, 8)))
        assert out.data.sum() == 64.0
        assert out.data[0, 0, 0] == 0.0

    @settings(max_examples=200, deadline=None)
    @given(source=st.tuples(*[st.integers(1, 6)] * 3), kernel=st.tuples(*[st.integers(1, 6)] * 3),
           origin=st.tuples(*[st.integers(-8, 8)] * 3), seed=st.integers(0, 2**16))
    @example(source=(4, 4, 4), kernel=(3, 3, 3), origin=(1, 4, 0), seed=0)  # disjoint along y
    @example(source=(4, 4, 4), kernel=(3, 3, 3), origin=(-3, 0, 0), seed=0)  # disjoint along x
    def test_uncrop_of_crop_keeps_the_overlap(self, source, kernel, origin, seed):
        values = np.random.default_rng(seed).random(source, dtype=np.float32) + 1.0
        grid = VoxelGrid.from_array(values)
        offset = CropOffset(origin, source, kernel)
        restored = uncrop(crop_with_offset(grid, offset), offset)
        overlap = np.ones(source, dtype=bool)
        for axis, (o, k, n) in enumerate(zip(origin, kernel, source)):
            shape = [1, 1, 1]
            shape[axis] = n
            overlap &= ((np.arange(n) >= o) & (np.arange(n) < o + k)).reshape(shape)
        assert np.array_equal(restored.data, np.where(overlap, values, 0.0))

    def test_crop_with_offset_rejects_wrong_dims(self):
        body = self._body((4, 4, 4), (0, 0, 0), (3, 3, 3))
        _, off = crop_to_kernel(body.mask, body, KernelSpec((4, 4, 4)))
        with pytest.raises(ValidationError):
            crop_with_offset(VoxelGrid.zeros((5, 5, 5)), off)


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestManifest:
    def test_saved_files_keep_their_bytes(self, tmp_path):
        # a hand-built plan, not a solved one: CP diagnostics depend on the BLAS thread count
        plan = Plan(
            patient_id="siteA-p0001",
            index=3,
            weights=PlanWeights({"ptv70": 1.0, "oar01": 0.25, "oar02": 0.0625}),
            fluence=np.array([0.0, 0.5, 1.25, 3.0]),
            dose=VoxelGrid.from_array(np.arange(24, dtype=np.float32).reshape(2, 3, 4) / 8),
            diagnostics=PlanDiagnostics(iterations=2000, converged=False, final_objective=0.125,
                                        objective_at_zero=1.5, operator_norm=0.75,
                                        kkt_residual=1e-4),
        )
        save_plan(tmp_path / "plan", plan)
        save_patient(tmp_path / "patient", generate_patient(builtin_site("siteA"), 1))
        builtin_site("siteB").save(tmp_path / "siteB.json")
        MetricsReport(0.9, (_ROW, MetricValue("oar01", "OAR", "high", "Dmean", 0.25, 0.3, 5.0))
                      ).write_json(tmp_path / "report.json")
        digests = {name: sha256_of(tmp_path / name) for name in [
            "plan/plan.json", "plan/dose.dvol", "plan/fluence.f32",
            f"patient/{MANIFEST_NAME}", "siteB.json", "report.json"]}
        assert digests == {
            "plan/plan.json": "84d6898998da3c3719a14d6e1312d09b540e911af507e483a0b8139aa3b29a92",
            "plan/dose.dvol": "5dc1839ef5539ce7da879d83912da77f2163701fa045e96f4233ce484c96a79c",
            "plan/fluence.f32": "bd0c463d360c6bc981eea4939a04ff825aa22b101aafe2c035ad15628669bb64",
            f"patient/{MANIFEST_NAME}":
                "3056af8ff128ec530dcd2e5109cbcf02e26adb127192e4ef81a453e1c307f05b",
            "siteB.json": "779b81f43d071c3a004b4ef6300ca581c40359ee5af1afcf8eb9b78ab3f4e717",
            "report.json": "798ce1681c2ac5ef60cbf200e0971f54f6dc4cac101b3f7a13e4864ce16c3d45",
        }

    def test_write_manifest_format(self, tmp_path):
        @dataclass(frozen=True)
        class Pair(Record):
            b: tuple[int, ...]
            a: dict[str, float | None]

        record = Pair(b=(1, 2), a={"y": 1.5, "x": None})
        write_manifest(tmp_path / "m.json", record, 3)
        text = (tmp_path / "m.json").read_text()
        assert text == ('{\n  "a": {\n    "x": null,\n    "y": 1.5\n  },\n  "b": [\n    1,\n    2\n  ],\n'
                        '  "schema_version": 3\n}\n')
        assert read_manifest(tmp_path / "m.json", Pair, 3) == record
        assert not list(tmp_path.glob("*.tmp"))

    def test_round_trip(self, tmp_path):
        body = make_mask((3, 3, 3), [(0, 0, 0), (1, 1, 1), (2, 2, 2)])
        ptv = make_mask((3, 3, 3), [(1, 1, 1)], kind="PTV", name="ptv70", prescription=1.0)
        oar = make_mask((3, 3, 3), [(2, 2, 2)], kind="OAR", name="oar01", impact="low")
        sset = StructureSet((body, ptv, oar))
        entries = save_structure_set(tmp_path, sset)
        names = ["body", "ptv70", "oar01"]
        assert [e.mask_path for e in entries] == [f"masks/{n}.dvol" for n in names]
        loaded = load_structure_set(tmp_path, entries)
        assert [s.name for s in loaded.structures] == names
        for a, b in zip(loaded.structures, sset.structures):
            assert a.mask.identical(b.mask)
            assert (a.kind, a.prescription, a.impact) == (b.kind, b.prescription, b.impact)

    @staticmethod
    def _saved(directory):
        body = make_mask((3, 3, 3), [(1, 1, 1)])
        ptv = make_mask((3, 3, 3), [(1, 1, 1)], kind="PTV", name="ptv", prescription=1.0)
        save_patient(directory, PatientCase("case", StructureSet((body, ptv)), "site", 0))
        return directory / MANIFEST_NAME

    @pytest.mark.parametrize("text", ['{"dims": [3, 3', "{}", '{"structures": 3}',
                                      '{"structures": [{"name": "body"}]}'])
    def test_corrupt_manifest_is_typed(self, tmp_path, text):
        # stamped, so a JSON object fails on the fault its text shows, not on the version
        self._saved(tmp_path).write_text(stamped(text, MANIFEST_VERSION))
        with pytest.raises(ManifestError):
            load_patient(tmp_path)

    @pytest.mark.parametrize("key, value", [
        ("prescription", "x"), ("prescription", True), ("kind", ["PTV"]), ("name", 5),
        ("prescription", float("nan")), ("prescription", float("inf")),
    ], ids=["string-prescription", "bool-prescription", "list-kind", "int-name",
            "nan-prescription", "infinite-prescription"])
    def test_mistyped_structure_entry_is_typed(self, tmp_path, key, value):
        path = self._saved(tmp_path)
        manifest = json.loads(path.read_text())
        next(e for e in manifest["structures"] if e["kind"] == "PTV")[key] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match="bad structure entry"):
            load_patient(tmp_path)

    @pytest.mark.parametrize("version", [None, MANIFEST_VERSION + 1, True,
                                         float(MANIFEST_VERSION)],
                             ids=["missing", "wrong", "bool", "float"])
    def test_manifest_version_is_checked(self, tmp_path, version):
        if version is True:
            # JSON true equals 1 in Python, so only a version-1 reader shows it refused
            assert SITE_VERSION == 1
            path, load = tmp_path / "site.json", SiteSpec.load
            builtin_site("siteA").save(path)
        else:
            path, load = self._saved(tmp_path), lambda p: load_patient(p.parent)
        without_version(path, version)
        with pytest.raises(ManifestError, match="schema_version"):
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
        site = builtin_site("siteA")
        d = site.to_json_dict()
        del d["spacing_mm"], d["normalization_constant"], d["shape_palette"]["max_attempts"]
        assert SiteSpec.from_json_dict(d) == site
        assert (site.spacing_mm, site.normalization_constant) == ((5.0, 5.0, 5.0), 70.0)
        assert site.shape_palette.max_attempts == 200
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

    def test_non_object_row_is_typed(self):
        d = RECORDS[-1].to_json_dict()
        d["rows"][0] = "ptv70"
        with pytest.raises(ValidationError, match="MetricValue must be a JSON object"):
            MetricsReport.from_json_dict(d)
