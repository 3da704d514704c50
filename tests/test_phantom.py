import json
import os

import numpy as np
import pytest

from dosekit.errors import ValidationError
from dosekit.phantom import (
    PhantomGenerationError,
    ShapePalette,
    SiteSpec,
    builtin_site,
    generate_patient,
    load_patient,
    save_patient,
)
from dosekit.volume import MANIFEST_NAME, KernelSpec, ManifestError


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
        '{"site_id": "x", "kernel": [32, 32, 16], "ptv_levels": [1.0], '
        '"oar_count_range": [1, 2], "shape_palette": {}}',
    ], ids=["truncated", "not-an-object", "missing-keys", "mistyped-kernel", "empty-palette"])
    def test_corrupt_preset_is_typed(self, tmp_path, text):
        path = tmp_path / "site.json"
        path.write_text(text)
        with pytest.raises(ManifestError):
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

    def test_preset_rejects_unknown_keys(self, tmp_path):
        spec = builtin_site("siteA")
        d = spec.to_json_dict()
        d["sneaky"] = 1
        with pytest.raises(ValidationError, match="sneaky"):
            SiteSpec.from_json_dict(d)


class TestGeneratePatient:
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

    @pytest.mark.parametrize("change", [
        lambda m: m.pop("id"),
        lambda m: m.pop("site_id"),
        lambda m: m.pop("seed"),
        lambda m: m.update(seed="5"),
    ], ids=["no-id", "no-site-id", "no-seed", "string-seed"])
    def test_manifest_without_identity_is_typed(self, tmp_path, change):
        save_patient(tmp_path, generate_patient(builtin_site("siteA"), 1))
        path = tmp_path / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        change(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(ManifestError):
            load_patient(tmp_path)
