import dataclasses
import hashlib
import json
import math
import os
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dosekit import phantom, volume
from dosekit.errors import DosekitError, ValidationError
from dosekit.phantom import (
    MAX_ATTEMPTS,
    MIN_BODY_COVERAGE,
    PTV_LEVEL_GROWTH,
    PatientCase,
    PhantomGenerationError,
    ShapePalette,
    SiteSpec,
    builtin_site,
    generate_patient,
    load_patient,
    ptv_name,
    save_patient,
)
from dosekit.volume import (BODY, MANIFEST_NAME, MASK_DIR, OAR, PTV, FileFormatError, KernelSpec,
                            MissingFileError, StructureMask, StructureSet, VoxelGrid,
                            read_manifest, read_volume, write_manifest, write_volume)
from dosekit.seeds import derive_seed

from test_planner import scaled_site
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
        assert [ptv_name(v) for v in spec.ptv_levels] == ["ptv70", "ptv54"]

    def test_unknown_site(self):
        with pytest.raises(ValidationError):
            builtin_site("siteC")

    def test_preset_round_trip(self, tmp_path):
        spec = builtin_site("siteB")
        write_manifest(tmp_path / "siteB.json", spec)
        assert read_manifest(tmp_path / "siteB.json", SiteSpec) == spec

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
        path.write_text(stamped(text, SiteSpec.SCHEMA_VERSION))
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: "):
            read_manifest(path, SiteSpec)

    @pytest.mark.parametrize("version", [None, SiteSpec.SCHEMA_VERSION + 1],
                             ids=["missing", "wrong"])
    def test_preset_version_is_checked(self, tmp_path, version):
        path = tmp_path / "site.json"
        write_manifest(path, builtin_site("siteA"))
        without_version(path, version)
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: schema_version"):
            read_manifest(path, SiteSpec)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "site.json"
        write_manifest(path, builtin_site("siteA"))
        before = path.read_bytes()

        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_manifest(path, builtin_site("siteB"))
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("change, message", [
        # normalization and spacing are constants shared by every site, so a site
        # file that sets them is refused, whatever the value
        ({"normalization_constant": math.nan}, "unknown SiteSpec keys.*normalization_constant"),
        ({"normalization_constant": math.inf}, "unknown SiteSpec keys.*normalization_constant"),
        ({"normalization_constant": 0.0}, "unknown SiteSpec keys.*normalization_constant"),
        ({"spacing_mm": [0.0, 5.0, 5.0]}, "unknown SiteSpec keys.*spacing_mm"),
        ({"spacing_mm": [5.0, math.inf, 5.0]}, "unknown SiteSpec keys.*spacing_mm"),
        ({"spacing_mm": [5.0, 5.0, math.nan]}, "unknown SiteSpec keys.*spacing_mm"),
        ({"shape_palette": {"body_radius_mm": [[math.nan, math.nan], [60, 65], [36, 38]]}},
         "radius range"),
        ({"shape_palette": {"oar_radius_mm": [-16.0, -9.0]}}, "radius range"),
        ({"shape_palette": {"ptv_center_jitter_mm": math.inf}}, "jitter"),
    ], ids=["nan-normalization", "infinite-normalization", "zero-normalization",
            "zero-spacing", "infinite-spacing", "nan-spacing",
            "nan-body-radius", "negative-oar-radius", "infinite-jitter"])
    def test_preset_rejects_bad_values(self, tmp_path, change, message):
        site = builtin_site("siteA").to_json_dict()
        site["shape_palette"].update(change.get("shape_palette", {}))
        site.update({k: v for k, v in change.items() if k != "shape_palette"})
        path = tmp_path / "site.json"
        text = stamped(json.dumps(site), SiteSpec.SCHEMA_VERSION)
        path.write_text(text)
        # a bare NaN or Infinity is refused as the file is parsed, before the site's own rules
        strict = "NaN" in text or "Infinity" in text
        with pytest.raises(FileFormatError, match="not valid JSON" if strict else message):
            read_manifest(path, SiteSpec)
        with pytest.raises(ValidationError, match=message):
            SiteSpec.from_json_dict(site)

    @pytest.mark.parametrize("counts", [
        (4.7, 5.9), (4.0, 5), (True, True), (False, 3), (-1, 2), (5, 4), (None, 3),
    ], ids=["floats", "integral-float", "bools", "false-low", "negative", "inverted", "none"])
    def test_oar_count_range_takes_integer_counts(self, counts):
        # unchecked, int() truncated a float or bool range: (4.7, 5.9) became (4, 5)
        with pytest.raises(ValidationError, match="oar_count_range must be two integer counts"):
            dataclasses.replace(builtin_site("siteA"), oar_count_range=counts)

    def test_oar_count_range_takes_zero_and_numpy_integers(self):
        spec = dataclasses.replace(builtin_site("siteA"), oar_count_range=(0, np.int64(3)))
        assert spec.oar_count_range == (0, 3)
        assert all(type(n) is int for n in spec.oar_count_range)

    @pytest.mark.parametrize("levels", [(), (0.0,), (1.5,), (-0.5, 1.0)],
                             ids=["empty", "zero", "above-one", "negative"])
    def test_ptv_levels_must_be_nonempty_in_range(self, levels):
        with pytest.raises(ValidationError, match=re.escape("ptv_levels must be nonempty with "
                                                            "values in (0, 1]")):
            dataclasses.replace(builtin_site("siteB"), ptv_levels=levels)

    def test_ptv_levels_must_not_collide(self):
        # 0.999 of the 70 Gy normalization rounds to 70, the name of level 1.0
        with pytest.raises(ValidationError,
                           match=re.escape("ptv_levels collide after naming: ['ptv70', 'ptv70']")):
            dataclasses.replace(builtin_site("siteB"), ptv_levels=(1.0, 0.999))

    def test_preset_rejects_unknown_keys(self, tmp_path):
        spec = builtin_site("siteA")
        d = spec.to_json_dict()
        d["sneaky"] = 1
        with pytest.raises(ValidationError, match="sneaky"):
            SiteSpec.from_json_dict(d)


def palette(**change):
    return ShapePalette(**{**builtin_site("siteA").shape_palette.to_json_dict(), **change})


class TestShapePalette:
    @pytest.mark.parametrize("change", [
        {"body_radius_mm": ((math.nan, math.nan), (60.0, 65.0), (36.0, 38.0))},
        {"body_radius_mm": ((60.0, 65.0), (60.0, 65.0), (38.0, 36.0))},
        {"ptv_radius_mm": (16.0, math.inf)},
        {"ptv_radius_mm": (0.0, 22.0)},
        {"oar_radius_mm": (-16.0, -9.0)},
        {"oar_radius_mm": (16.0, 9.0)},
        {"oar_radius_mm": (math.nan, 16.0)},
    ], ids=["nan-body", "inverted-body", "infinite-ptv", "zero-ptv", "negative-oar",
            "inverted-oar", "nan-oar"])
    def test_rejects_bad_radius_range(self, change):
        # unchecked, rng.uniform raises a bare OverflowError or ValueError on these,
        # or (negative radii) draws a patient without complaint
        with pytest.raises(ValidationError, match="radius range"):
            palette(**change)

    @pytest.mark.parametrize("field", ["body_center_jitter_mm", "ptv_center_jitter_mm"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
    def test_rejects_bad_jitter(self, field, value):
        with pytest.raises(ValidationError, match="jitter"):
            palette(**{field: value})

    def test_takes_a_point_range_and_no_jitter(self):
        pal = palette(ptv_radius_mm=(20.0, 20.0), body_center_jitter_mm=0.0,
                      ptv_center_jitter_mm=0)
        spec = SiteSpec("fixed", KernelSpec((32, 32, 16)), (1.0,), (4, 4), pal)
        assert generate_patient(spec, 1).structures.ptvs[0].linear_indices().size > 0


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
        total = np.prod(case.structures.dims)
        assert case.structures.body.linear_indices().size >= 0.25 * total

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
        taken = np.zeros(case.structures.dims, dtype=bool)
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
                oar_radius_mm=(60.0, 70.0),  # organs as big as the body itself
            ),
        )
        with pytest.raises(PhantomGenerationError,
                           match=f"could not place organ 1/21 after {MAX_ATTEMPTS} attempts"):
            generate_patient(impossible, 0)

    def test_body_that_cannot_cover_the_grid_is_named(self):
        spec = builtin_site("siteA")
        tiny = dataclasses.replace(spec, shape_palette=dataclasses.replace(
            spec.shape_palette, body_radius_mm=((10.0, 10.0),) * 3))
        message = (f"could not place a body covering {MIN_BODY_COVERAGE:.0%} of the grid "
                   f"after {MAX_ATTEMPTS} attempts")
        with pytest.raises(PhantomGenerationError, match=f"^{re.escape(message)}$"):
            generate_patient(tiny, 0)


def ellipsoid_reference(dims, spacing, center_mm, radii_mm):
    """The whole-grid ellipsoid test that the boxed `phantom._ellipsoid` replaced.
    Test-only reference."""
    xs, ys, zs = [(np.arange(dims[a], dtype=np.float64) + 0.5) * spacing[a] for a in range(3)]
    fx = ((xs - center_mm[0]) / radii_mm[0]) ** 2
    fy = ((ys - center_mm[1]) / radii_mm[1]) ** 2
    fz = ((zs - center_mm[2]) / radii_mm[2]) ** 2
    return fx[:, None, None] + fy[None, :, None] + fz[None, None, :] <= 1.0


def whole_grid_patient(spec, patient_seed):
    """(name, kind, prescription, impact, mask) of each structure, as `generate_patient`
    made them when every draw was tested on the whole grid. Test-only reference."""
    rng = np.random.default_rng(derive_seed("phantom", spec.site_id, patient_seed))
    dims, spacing, pal = spec.kernel.dims, volume.SPACING_MM, spec.shape_palette
    uniform = phantom._uniform

    def place(draw):
        for _ in range(MAX_ATTEMPTS):
            placed = draw()
            if placed is not None:
                return placed
        raise PhantomGenerationError("reference draw failed")

    def jittered(anchor, jitter):
        return tuple(anchor[a] + uniform(rng, -jitter, jitter) for a in range(3))

    def draw_body():
        center = jittered(tuple(dims[a] * spacing[a] / 2.0 for a in range(3)),
                          pal.body_center_jitter_mm)
        radii = tuple(uniform(rng, *pal.body_radius_mm[a]) for a in range(3))
        body = ellipsoid_reference(dims, spacing, center, radii)
        return (center, body) if body.sum() >= MIN_BODY_COVERAGE * np.prod(dims) else None

    body_center, body = place(draw_body)
    out = [("body", BODY, None, None, body)]
    anchor, jitter = body_center, pal.ptv_center_jitter_mm
    for rank, level in enumerate(sorted(spec.ptv_levels, reverse=True)):

        def draw_ptv():
            center = jittered(anchor, jitter)
            radii = tuple(uniform(rng, *pal.ptv_radius_mm) * PTV_LEVEL_GROWTH**rank
                          for _ in range(3))
            ptv = ellipsoid_reference(dims, spacing, center, radii)
            return (center, ptv) if ptv.any() and not np.any(ptv & ~body) else None

        center, ptv = place(draw_ptv)
        out.append((ptv_name(level), PTV, float(level), None, ptv))
        if rank == 0:
            boost_center = anchor = center
            jitter = 4.0

    n_oars = int(rng.integers(spec.oar_count_range[0], spec.oar_count_range[1] + 1))
    body_idx = np.nonzero(body)
    bbox = [(float(body_idx[a].min()), float(body_idx[a].max())) for a in range(3)]
    occupied = np.zeros(dims, dtype=bool)

    def draw_oar():
        center = tuple(uniform(rng, (bbox[a][0] + 0.5) * spacing[a], (bbox[a][1] + 0.5) * spacing[a])
                       for a in range(3))
        radii = tuple(uniform(rng, *pal.oar_radius_mm) for _ in range(3))
        oar = ellipsoid_reference(dims, spacing, center, radii)
        if (not oar.any() or np.any(oar & ~body) or np.any(oar & occupied)
                or all(abs(center[a] - boost_center[a]) < spacing[a] for a in range(3))):
            return None
        return oar

    for i in range(n_oars):
        oar = place(draw_oar)
        out.append((f"oar{i + 1:02d}", OAR, None, "high" if rng.random() < 0.5 else "low", oar))
        occupied |= oar
    return out


class TestBoxedEllipsoid:
    @pytest.mark.parametrize("site", ["siteA", "siteB"])
    @pytest.mark.parametrize("spec_factor, seeds", [(1, range(1, 9)), (2, (1, 2))],
                             ids=["desk", "64x64x32"])
    def test_patients_match_whole_grid_reference(self, site, spec_factor, seeds):
        spec = builtin_site(site)
        if spec_factor != 1:
            spec = scaled_site(spec, spec_factor)
        for seed in seeds:
            structures = generate_patient(spec, seed).structures.structures
            reference = whole_grid_patient(spec, seed)
            assert len(structures) == len(reference)
            for s, (name, kind, prescription, impact, mask) in zip(structures, reference):
                assert (s.name, s.kind, s.prescription, s.impact) == (name, kind, prescription,
                                                                      impact)
                assert s.mask.data.tobytes() == mask.astype(np.float32).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(dims=st.tuples(*[st.integers(1, 12)] * 3),
           spacing=st.tuples(*[st.floats(0.5, 6.0)] * 3),
           center=st.tuples(*[st.floats(-1.0, 2.0)] * 3),
           radii=st.tuples(*[st.floats(1e-3, 3.0) | st.sampled_from([1e-9, 0.5, 1.0])] * 3))
    def test_box_holds_the_whole_grid_test(self, dims, spacing, center, radii):
        # centres and radii in units of the grid's extent: centres outside the grid,
        # radii below half a voxel (1e-3 of a 12-voxel axis) and above the grid's size
        extent = [n * h for n, h in zip(dims, spacing)]
        center_mm = tuple(c * e for c, e in zip(center, extent))
        radii_mm = tuple(r * e for r, e in zip(radii, extent))
        box, mask = phantom._ellipsoid(dims, spacing, center_mm, radii_mm)
        assert mask.shape == tuple(len(range(n)[b]) for n, b in zip(dims, box))
        full = np.zeros(dims, dtype=bool)
        full[box] = mask
        assert np.array_equal(full, ellipsoid_reference(dims, spacing, center_mm, radii_mm))


def one_voxel_body():
    """A body mask on the built-in sites' grid that holds only a corner voxel,
    where no PTV or organ lies."""
    data = np.zeros((32, 32, 16))
    data[0, 0, 0] = 1.0
    return VoxelGrid(data)


class TestPatientPersistence:
    def test_round_trip(self, tmp_path):
        case = generate_patient(builtin_site("siteB"), 5)
        save_patient(tmp_path / case.id, case)
        loaded = load_patient(tmp_path / case.id)
        assert loaded.id == case.id
        assert loaded.site == case.site
        assert loaded.seed == case.seed
        for a, b in zip(loaded.structures.structures, case.structures.structures):
            assert a.name == b.name
            assert a.mask.identical(b.mask)
            assert (a.prescription, a.impact) == (b.prescription, b.impact)

    @pytest.mark.parametrize("site", [
        builtin_site("siteA"),
        builtin_site("siteB"),
        scaled_site(builtin_site("siteA"), 2),  # 64x64x32, made with dataclasses.replace
    ], ids=["siteA", "siteB", "siteA-64x64x32"])
    def test_saved_case_regenerates_from_its_manifest(self, tmp_path, site):
        # a schema-3 manifest held only the site's id: a 64x64x32 siteA case loaded
        # as "siteA", whose preset draws a 32x32x16 case
        save_patient(tmp_path, generate_patient(site, 3))
        loaded = load_patient(tmp_path)
        assert loaded.site == site
        again = generate_patient(loaded.site, loaded.seed)
        assert len(again.structures.structures) == len(loaded.structures.structures)
        for a, b in zip(again.structures.structures, loaded.structures.structures):
            assert (a.name, a.kind, a.prescription, a.impact) == (b.name, b.kind, b.prescription,
                                                                  b.impact)
            assert a.mask.data.tobytes() == b.mask.data.tobytes()

    def test_case_off_its_site_grid_is_refused(self):
        case = generate_patient(builtin_site("siteA"), 1)
        small = scaled_site(case.site, 0.5)
        with pytest.raises(ValidationError, match=r"grid \(32, 32, 16\) is not 'siteA''s grid "
                                                  r"\(16, 16, 8\)"):
            PatientCase(case.structures, small, case.seed)

    def test_manifest_site_off_the_mask_grid_is_a_manifest_fault(self, tmp_path):
        save_patient(tmp_path, generate_patient(builtin_site("siteA"), 1))
        path = tmp_path / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["site"]["kernel"]["dims"] = [16, 16, 8]
        path.write_text(json.dumps(manifest))
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: bad structure set "
                                                  r"\(structures' grid \(32, 32, 16\)"):
            load_patient(tmp_path)

    def test_save_over_another_case_keeps_only_its_masks(self, tmp_path):
        # siteB patient 1 has 16 structures and siteA patient 1 six: saved over it,
        # siteA's case left siteB's ten other masks, which no manifest named
        save_patient(tmp_path, generate_patient(builtin_site("siteB"), 1))
        case = generate_patient(builtin_site("siteA"), 1)
        save_patient(tmp_path, case)
        assert sorted(p.name for p in (tmp_path / MASK_DIR).iterdir()) == sorted(
            f"{s.name}.dvol" for s in case.structures.structures)

    def test_failed_overwrite_leaves_no_case(self, tmp_path, monkeypatch):
        # MANIFEST_NAME commits a case and save_patient removes it first: patient 2
        # saved over patient 1, failing at the manifest, used to load as siteA-p0001
        # with patient 2's masks
        save_patient(tmp_path, generate_patient(builtin_site("siteA"), 1))
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst).name == MANIFEST_NAME:
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="disk full"):
            save_patient(tmp_path, generate_patient(builtin_site("siteA"), 2))
        with pytest.raises(MissingFileError, match=f"{MANIFEST_NAME}: no such file"):
            load_patient(tmp_path)
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("stray", [0.5, 2.0, -1.0])
    def test_mask_with_a_stray_voxel_is_refused(self, tmp_path, stray):
        save_patient(tmp_path, generate_patient(builtin_site("siteA"), 1))
        path = tmp_path / MASK_DIR / "oar01.dvol"
        grid = read_volume(path)
        data = grid.data.copy()
        data[tuple(np.argwhere(data == 1.0)[0])] = stray
        write_volume(VoxelGrid(data), path)
        # the fault lies in the mask file, not in structures.json
        with pytest.raises(FileFormatError,
                           match=f"^{re.escape(str(path))}: mask 'oar01' has values outside"):
            load_patient(tmp_path)

    @pytest.mark.parametrize("rewrite, fault", [
        (lambda path: write_volume(VoxelGrid(np.zeros((32, 32, 15))), path), "grid "),
        # the z spacing of the header: 5.0 mm becomes 2.5 mm
        (lambda path: path.write_bytes(path.read_bytes()[:26] + np.float32(2.5).tobytes()
                                       + path.read_bytes()[30:]), "spacing "),
    ], ids=["dims", "spacing"])
    def test_mask_on_another_grid_is_refused(self, tmp_path, rewrite, fault):
        save_patient(tmp_path, generate_patient(builtin_site("siteA"), 1))
        path = tmp_path / MASK_DIR / "oar01.dvol"
        rewrite(path)
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: {fault}"):
            load_patient(tmp_path)

    @pytest.mark.parametrize("change", [
        lambda m, d: m["structures"].append(m["structures"][0]),
        lambda m, d: m["structures"].remove(next(e for e in m["structures"] if e["kind"] == PTV)),
        lambda m, d: m["structures"][-1].update(kind=BODY, impact=None),
        lambda m, d: write_volume(one_voxel_body(), d / MASK_DIR / "body.dvol"),
    ], ids=["duplicate-name", "no-ptv", "two-bodies", "outside-the-body"])
    def test_bad_structure_set_is_a_manifest_fault(self, tmp_path, change):
        save_patient(tmp_path, generate_patient(builtin_site("siteA"), 1))
        path = tmp_path / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        change(manifest, tmp_path)
        path.write_text(json.dumps(manifest))
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: bad structure set"):
            load_patient(tmp_path)

    def test_id_is_derived_from_site_and_seed(self, tmp_path):
        save_patient(tmp_path, generate_patient(builtin_site("siteB"), 12))
        assert "id" not in json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert load_patient(tmp_path).id == "siteB-p0012"

    @pytest.mark.parametrize("change", [
        lambda m: m.update(id="siteA-p0002"),  # the id follows from the site's id and seed
        lambda m: m["site"].pop("site_id"),
        lambda m: m.pop("site"),
        lambda m: m.update(site_id=m.pop("site")["site_id"]),  # a bare id, as schema 3 saved it
        lambda m: m["site"].update(kernel={"dims": [32, 32]}),
        lambda m: m.pop("seed"),
        lambda m: m.update(seed="5"),
        lambda m: m.update(sneaky=1),
    ], ids=["stored-id", "no-site-id", "no-site", "bare-site-id", "two-axis-grid", "no-seed",
            "string-seed", "unknown-key"])
    def test_manifest_without_identity_is_typed(self, tmp_path, change):
        save_patient(tmp_path, generate_patient(builtin_site("siteA"), 1))
        path = tmp_path / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        change(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: "):
            load_patient(tmp_path)

    @pytest.mark.parametrize("absolute", [False, True], ids=["dot-dot", "absolute"])
    def test_mask_path_must_stay_inside_the_case(self, tmp_path, monkeypatch, absolute):
        # a mask's path is MASK_DIR/<name>.dvol, so a name that is not a plain file
        # stem could lead out of the case: here to patient 2's mask, whose grid
        # matches patient 1's, so only the name check stops it
        for seed in (1, 2):
            save_patient(tmp_path / f"p{seed}", generate_patient(builtin_site("siteA"), seed))
        other = tmp_path / "p2" / MASK_DIR / "oar01"
        name = str(other) if absolute else "../../p2/masks/oar01"
        assert (tmp_path / "p1" / MASK_DIR / f"{name}.dvol").resolve() == other.with_suffix(".dvol")

        files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        case = generate_patient(builtin_site("siteA"), 1)
        oar = case.structures.oars[0]
        with pytest.raises(ValidationError, match="not a plain file name"):
            renamed = StructureMask(name, OAR, oar.mask, impact=oar.impact)
            save_patient(tmp_path / "p3", PatientCase(
                StructureSet((*case.structures.structures[:-1], renamed)), case.site, 1))
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == files

        path = tmp_path / "p1" / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        next(e for e in manifest["structures"] if e["name"] == "oar01")["name"] = name
        path.write_text(json.dumps(manifest))
        read = []
        monkeypatch.setattr(phantom, "read_volume", lambda p: read.append(p) or read_volume(p))
        with pytest.raises(FileFormatError,
                           match=f"^{re.escape(str(path))}: .*not a plain file name"):
            load_patient(tmp_path / "p1")
        assert read == []  # the name is refused before any mask is read


# structure names that are no plain file stem, or name no mask of the case: missing,
# empty, the directory itself or its parent, holding a separator or a NUL, leading
# out of the case, absolute, or below a file
BAD_NAMES = st.sampled_from([
    "missing", "", ".", "..", "../body", "../../body", "/masks/body", "masks/body",
    "body\\..", "body\0", f"../{MANIFEST_NAME}/body",
]) | st.text(max_size=12)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    directory = tmp_path_factory.mktemp("case")
    save_patient(directory, generate_patient(builtin_site("siteA"), 1))
    return directory


class TestMutatedManifest:
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
                                                "name", "prescription"]))
            if action == "replace":
                target[key] = data.draw(JSON_VALUES)
            elif action == "delete":
                del target[key]
            elif action == "rename":
                target[data.draw(st.text(max_size=6))] = target.pop(key)
            elif action == "schema_version":
                manifest["schema_version"] = data.draw(JSON_VALUES)
            elif action == "name":
                data.draw(st.sampled_from(entries))["name"] = data.draw(BAD_NAMES)
            else:
                ptv = next(e for e in entries if e["kind"] == PTV)
                ptv["prescription"] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
            (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
            try:
                load_patient(directory)
            except DosekitError:
                pass


# float32 bit patterns of a mask value: 0.0, -0.0 and 1.0 are the only binary ones
BINARY_BITS = frozenset(int(np.float32(v).view(np.uint32)) for v in (0.0, -0.0, 1.0))


class TestMutatedMask:
    @settings(max_examples=100, deadline=None)
    @given(bits=st.integers(0, 2**32 - 1).filter(lambda b: b not in BINARY_BITS),
           voxel=st.integers(0, 32 * 32 * 16 - 1))
    @example(bits=0x7FC00000, voxel=0)  # NaN
    @example(bits=0x7F800000, voxel=0)  # +inf
    @example(bits=0xFF800000, voxel=0)  # -inf
    @example(bits=0x00000001, voxel=0)  # the least subnormal
    @example(bits=0x40000000, voxel=0)  # 2.0
    def test_any_stray_mask_value_names_its_file(self, saved, bits, voxel):
        with tempfile.TemporaryDirectory() as d:
            directory = Path(d) / "case"
            shutil.copytree(saved, directory)
            path = directory / MASK_DIR / "oar01.dvol"
            raw = bytearray(path.read_bytes())
            at = len(raw) - 4 * (32 * 32 * 16 - voxel)  # the payload is the file's tail
            raw[at:at + 4] = np.uint32(bits).astype("<u4").tobytes()
            path.write_bytes(bytes(raw))
            with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: "):
                load_patient(directory)
