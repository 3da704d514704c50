import hashlib
import json
import math
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dosekit.errors import DosekitError, ValidationError
from dosekit.phantom import (
    SITE_VERSION,
    PatientCase,
    PhantomGenerationError,
    ShapePalette,
    SiteSpec,
    builtin_site,
    generate_patient,
    load_patient,
    save_patient,
)
from dosekit.volume import (BODY, MANIFEST_NAME, PTV, KernelSpec, ManifestError, StructureMask,
                            StructureSet, VoxelGrid)

from test_volume import JSON_VALUES, stamped, without_version


class TestBuiltinSites:
    def test_siteA_single_prescription(self):
        spec = builtin_site("siteA")
        assert spec.ptv_levels == (1.0,)
        assert spec.oar_count_range == (4, 4)
        assert spec.kernel.dims == (32, 32, 16)

    def test_siteB_multi_prescription(self):
        spec = builtin_site("siteB")
        assert len(spec.ptv_levels) in (2, 3)
        assert spec.oar_count_range == (5, 21)
        assert spec.normalization_constant == 70.0

    def test_unknown_site(self):
        with pytest.raises(ValidationError):
            builtin_site("siteC")

    def test_preset_round_trip(self, tmp_path):
        spec = builtin_site("siteB")
        spec.save(tmp_path / "siteB.json")
        assert SiteSpec.load(tmp_path / "siteB.json") == spec

    @pytest.mark.parametrize("text", [
        "{",
        "[]",
        '{"kernel": [32, 32, 16]}',
        '{"site_id": "x", "kernel": 32, "ptv_levels": [1.0], "oar_count_range": [1, 2], '
        '"shape_palette": {}}',
        '{"site_id": "x", "kernel": {"dims": [32, 32, 16]}, "ptv_levels": [1.0], '
        '"oar_count_range": [1, 2], "shape_palette": {}}',
        json.dumps({**builtin_site("siteA").to_json_dict(), "sneaky": 1}),
    ], ids=["truncated", "not-an-object", "missing-keys", "mistyped-kernel", "empty-palette",
            "unknown-key"])
    def test_corrupt_preset_is_typed(self, tmp_path, text):
        path = tmp_path / "site.json"
        # stamped, so a JSON object fails on the fault its id names, not on the version
        path.write_text(stamped(text, SITE_VERSION))
        with pytest.raises(ManifestError):
            SiteSpec.load(path)

    @pytest.mark.parametrize("version", [None, SITE_VERSION + 1], ids=["missing", "wrong"])
    def test_preset_version_is_checked(self, tmp_path, version):
        path = tmp_path / "site.json"
        builtin_site("siteA").save(path)
        without_version(path, version)
        with pytest.raises(ManifestError, match="schema_version"):
            SiteSpec.load(path)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "site.json"
        builtin_site("siteA").save(path)
        before = path.read_bytes()

        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            builtin_site("siteB").save(path)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("change", [
        {"normalization_constant": math.nan},
        {"normalization_constant": math.inf},
        {"normalization_constant": 0.0},
        {"spacing_mm": [0.0, 5.0, 5.0]},
        {"spacing_mm": [5.0, math.inf, 5.0]},
        {"spacing_mm": [5.0, 5.0, math.nan]},
    ], ids=["nan-normalization", "infinite-normalization", "zero-normalization",
            "zero-spacing", "infinite-spacing", "nan-spacing"])
    def test_preset_rejects_bad_values(self, tmp_path, change):
        path = tmp_path / "site.json"
        path.write_text(stamped(json.dumps({**builtin_site("siteA").to_json_dict(), **change}),
                                SITE_VERSION))
        with pytest.raises(ManifestError, match="positive"):
            SiteSpec.load(path)

    def test_preset_rejects_unknown_keys(self, tmp_path):
        spec = builtin_site("siteA")
        d = spec.to_json_dict()
        d["sneaky"] = 1
        with pytest.raises(ValidationError, match="sneaky"):
            SiteSpec.from_json_dict(d)


class TestGeneratePatient:
    def test_golden_digest(self):
        # pins generate_patient's RNG draw order and arithmetic, not just its determinism
        h = hashlib.sha256()
        for site in ("siteA", "siteB"):
            for seed in (1, 2):
                for s in generate_patient(builtin_site(site), seed).structures.structures:
                    h.update(repr((s.name, s.kind, s.prescription, s.impact)).encode())
                    h.update(s.mask.data.tobytes())
        assert h.hexdigest() == "373a7ac207a4956b042ad12dc8f1b064afbac9c060aa99f3ba642969ff85f76b"

    def test_deterministic(self):
        spec = builtin_site("siteA")
        a = generate_patient(spec, 7)
        b = generate_patient(spec, 7)
        assert a.id == b.id
        for sa, sb in zip(a.structures.structures, b.structures.structures):
            assert sa.name == sb.name
            assert sa.mask.identical(sb.mask)

    def test_different_seeds_differ(self):
        spec = builtin_site("siteA")
        a = generate_patient(spec, 1)
        b = generate_patient(spec, 2)
        assert not a.structures.body.mask.identical(b.structures.body.mask)

    def test_body_coverage(self):
        spec = builtin_site("siteA")
        case = generate_patient(spec, 3)
        total = np.prod(case.dims)
        assert case.structures.body.voxel_count >= 0.25 * total

    def test_siteA_structure_roster(self):
        case = generate_patient(builtin_site("siteA"), 11)
        assert [s.name for s in case.structures.ptvs] == ["ptv70"]
        assert len(case.structures.oars) == 4

    def test_siteB_oar_count_in_range(self):
        spec = builtin_site("siteB")
        for seed in range(5):
            case = generate_patient(spec, seed)
            assert 5 <= len(case.structures.oars) <= 21

    def test_siteB_oar_count_varies(self):
        spec = builtin_site("siteB")
        counts = {len(generate_patient(spec, s).structures.oars) for s in range(20)}
        assert len(counts) >= 3

    def test_containment_invariant(self):
        case = generate_patient(builtin_site("siteB"), 4)
        body = case.structures.body.bool_array()
        for s in case.structures.structures:
            if s.kind != "BODY":
                assert not np.any(s.bool_array() & ~body)

    def test_oars_pairwise_disjoint(self):
        case = generate_patient(builtin_site("siteB"), 9)
        taken = np.zeros(case.dims, dtype=bool)
        for oar in case.structures.oars:
            arr = oar.bool_array()
            assert not np.any(arr & taken)
            taken |= arr

    def test_siteB_prescription_values(self):
        case = generate_patient(builtin_site("siteB"), 2)
        values = sorted(p.prescription for p in case.structures.ptvs)
        assert values == sorted((54.0 / 70.0, 1.0))
        assert {p.name for p in case.structures.ptvs} == {"ptv70", "ptv54"}

    def test_generation_error_when_impossible(self):
        spec = builtin_site("siteA")
        impossible = SiteSpec(
            site_id="cramped",
            kernel=KernelSpec((32, 32, 16)),
            ptv_levels=(1.0,),
            oar_count_range=(21, 21),
            shape_palette=ShapePalette(
                body_radius_mm=spec.shape_palette.body_radius_mm,
                body_center_jitter_mm=2.0,
                ptv_radius_mm=(16.0, 22.0),
                ptv_center_jitter_mm=8.0,
                ptv_level_growth=1.45,
                oar_radius_mm=(60.0, 70.0),  # organs as big as the body itself
                max_attempts=10,
            ),
        )
        with pytest.raises(PhantomGenerationError):
            generate_patient(impossible, 0)


class TestPatientPersistence:
    def test_round_trip(self, tmp_path):
        case = generate_patient(builtin_site("siteB"), 5)
        save_patient(tmp_path / case.id, case)
        loaded = load_patient(tmp_path / case.id)
        assert loaded.id == case.id
        assert loaded.site_id == case.site_id
        assert loaded.seed == case.seed
        for a, b in zip(loaded.structures.structures, case.structures.structures):
            assert a.name == b.name
            assert a.mask.identical(b.mask)
            assert (a.prescription, a.impact) == (b.prescription, b.impact)

    def test_round_trip_of_spacing_not_exact_in_float32(self, tmp_path):
        # the mask files hold the spacing as float32
        arr = np.ones((2, 2, 2), dtype=np.float32)
        body = StructureMask("body", BODY, VoxelGrid.from_array(arr, spacing=(0.1, 0.2, 0.3)))
        ptv = StructureMask("ptv", PTV, body.mask, prescription=1.0)
        save_patient(tmp_path, PatientCase("case", StructureSet((body, ptv)), "site", 0))
        assert load_patient(tmp_path).spacing == tuple(np.float32((0.1, 0.2, 0.3)).tolist())

    @pytest.mark.parametrize("change", [
        lambda m: m.pop("id"),
        lambda m: m.pop("site_id"),
        lambda m: m.pop("seed"),
        lambda m: m.update(seed="5"),
        lambda m: m.update(sneaky=1),
    ], ids=["no-id", "no-site-id", "no-seed", "string-seed", "unknown-key"])
    def test_manifest_without_identity_is_typed(self, tmp_path, change):
        save_patient(tmp_path, generate_patient(builtin_site("siteA"), 1))
        path = tmp_path / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        change(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(ManifestError):
            load_patient(tmp_path)

    @pytest.mark.parametrize("absolute", [False, True], ids=["dot-dot", "absolute"])
    def test_mask_path_must_stay_inside_the_case(self, tmp_path, absolute):
        # patient 2's mask has the grid of patient 1's, so only the path check stops it
        for seed in (1, 2):
            save_patient(tmp_path / f"p{seed}", generate_patient(builtin_site("siteA"), seed))
        other = tmp_path / "p2" / "masks" / "oar01.dvol"
        path = tmp_path / "p1" / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        entry = next(e for e in manifest["structures"] if e["name"] == "oar01")
        entry["mask_path"] = str(other) if absolute else "../p2/masks/oar01.dvol"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match="not a relative path inside the case directory"):
            load_patient(tmp_path / "p1")


# mask paths that name no file of the case: missing, absolute, leading out of
# it, the case directory itself, a directory, below a file, or holding a NUL
BAD_MASK_PATHS = st.sampled_from([
    "masks/missing.dvol", "/masks/body.dvol", "../masks/body.dvol", "masks/../../body.dvol",
    "", ".", "masks", f"{MANIFEST_NAME}/body.dvol", "masks/body\0.dvol",
]) | st.text(max_size=12)


class TestMutatedManifest:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("case")
        save_patient(directory, generate_patient(builtin_site("siteA"), 1))
        return directory

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_structures_json_loads_or_is_typed(self, saved, data):
        with tempfile.TemporaryDirectory() as d:
            directory = Path(d) / "case"
            shutil.copytree(saved, directory)
            manifest = json.loads((directory / MANIFEST_NAME).read_text())
            entries = manifest["structures"]
            target = data.draw(st.sampled_from([manifest, *entries]))
            key = data.draw(st.sampled_from(sorted(target)))
            action = data.draw(st.sampled_from(["replace", "delete", "rename", "schema_version",
                                                "mask_path", "prescription"]))
            if action == "replace":
                target[key] = data.draw(JSON_VALUES)
            elif action == "delete":
                del target[key]
            elif action == "rename":
                target[data.draw(st.text(max_size=6))] = target.pop(key)
            elif action == "schema_version":
                manifest["schema_version"] = data.draw(JSON_VALUES)
            elif action == "mask_path":
                data.draw(st.sampled_from(entries))["mask_path"] = data.draw(BAD_MASK_PATHS)
            else:
                ptv = next(e for e in entries if e["kind"] == PTV)
                ptv["prescription"] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
            (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
            try:
                load_patient(directory)
            except DosekitError:
                pass
