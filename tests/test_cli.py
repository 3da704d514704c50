import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dosekit import cli, planner
from dosekit.phantom import builtin_site, generate_patient, load_patient
from dosekit.planner import load_plan
from dosekit.volume import MANIFEST_NAME, VoxelGrid, read_volume, write_manifest, write_volume
from test_planner import scaled_site

SRC = Path(__file__).resolve().parents[1] / "src"


def python(*args):
    """Run a fresh interpreter that imports dosekit from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


def dosekit(*args):
    return python("-m", "dosekit.cli", *args)


@pytest.fixture(scope="module")
def patient_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "siteA-1"
    done = dosekit("phantom", "--site", "siteA", "--seed", 1, "--out", out)
    assert done.returncode == 0, done.stderr
    return out


def test_phantom_writes_patient(patient_dir):
    case = load_patient(patient_dir)
    assert (case.id, case.site_id, case.seed) == ("siteA-p0001", "siteA", 1)


def test_plan_writes_plans(patient_dir, tmp_path):
    done = dosekit("plan", "--case", patient_dir, "--count", 2, "--seed", 0, "--out", tmp_path)
    assert done.returncode == 0, done.stderr
    plans = [load_plan(tmp_path / f"plan{i}") for i in range(2)]
    assert [p.index for p in plans] == [0, 1]
    assert all(p.patient_id == "siteA-p0001" for p in plans)


@pytest.mark.parametrize("args", [
    ("phantom", "--site", "siteZ", "--seed", 1),  # unknown site preset
    ("plan", "--case", "PATIENT", "--count", 0, "--seed", 0),  # plan_count must be >= 1
], ids=["unknown-site", "zero-plans"])
def test_validation_error_exits_2(patient_dir, tmp_path, args):
    paths = {"PATIENT": patient_dir}
    args = [paths.get(a, a) for a in args]
    done = dosekit(*args, "--out", tmp_path / "out")
    assert done.returncode == 2
    assert done.stderr.startswith("dosekit: ") and "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()  # refused before anything is written


def test_phantom_reads_a_site_file(tmp_path):
    # a site that no preset names: siteA at 64x64x32
    spec = scaled_site(builtin_site("siteA"), 2)
    write_manifest(tmp_path / "siteA64.json", spec)
    done = dosekit("phantom", "--site", tmp_path / "siteA64.json", "--seed", 1,
                   "--out", tmp_path / "case")
    assert done.returncode == 0, done.stderr
    case = load_patient(tmp_path / "case")
    assert case.site == spec and case.structures.dims == (64, 64, 32)
    masks = [(s.name, s.mask.data.tobytes()) for s in case.structures.structures]
    assert masks == [(s.name, s.mask.data.tobytes())
                     for s in generate_patient(spec, 1).structures.structures]


def tree_bytes(directory):
    """Each file under `directory`, by its relative path, with its bytes."""
    return {p.relative_to(directory): p.read_bytes() for p in directory.rglob("*") if p.is_file()}


def test_preset_site_file_gives_the_preset_case(tmp_path):
    write_manifest(tmp_path / "siteB.json", builtin_site("siteB"))
    for site, out in [("siteB", "preset"), (tmp_path / "siteB.json", "file")]:
        done = dosekit("phantom", "--site", site, "--seed", 1, "--out", tmp_path / out)
        assert done.returncode == 0, done.stderr
    assert tree_bytes(tmp_path / "file") == tree_bytes(tmp_path / "preset")


def site_record(**changes):
    """The JSON object of siteA's site file, with `changes` applied."""
    return {**builtin_site("siteA").to_json_dict(), "schema_version": 2, **changes}


@pytest.mark.parametrize("text, message", [
    (None, "no such file"),
    ("{", "not valid JSON"),
    (json.dumps(site_record(schema_version=1)), "schema_version 1, expected 2"),
    (json.dumps(site_record(ptv_levels=[1.5])), "ptv_levels must be nonempty with values in"),
], ids=["missing", "not-json", "wrong-schema-version", "refused-record"])
def test_bad_site_file_exits_3(tmp_path, text, message):
    path = tmp_path / "site.json"
    if text is not None:
        path.write_text(text)
    done = dosekit("phantom", "--site", path, "--seed", 1, "--out", tmp_path / "out")
    assert done.returncode == 3  # a MissingFileError or a FileFormatError
    (line,) = done.stderr.splitlines()
    assert line.startswith(f"dosekit: {path}: {message}") and "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()  # the site is read before anything is written


def test_other_dosekit_error_exits_3(tmp_path):
    (tmp_path / MANIFEST_NAME).write_text("{")
    done = dosekit("plan", "--case", tmp_path, "--count", 1, "--seed", 0,
                   "--out", tmp_path / "out")
    assert done.returncode == 3  # FileFormatError is a DosekitError, not a ValidationError
    assert done.stderr.startswith("dosekit: ") and "Traceback" not in done.stderr


# the PTV is entry 1 of siteA's structures; a bare NaN or Infinity is not strict JSON
ENTRY_FAULT = "bad PatientManifest field 'structures[1]'"


@pytest.mark.parametrize("key, value, message", [
    ("prescription", "x", ENTRY_FAULT), ("kind", ["PTV"], ENTRY_FAULT), ("name", 5, ENTRY_FAULT),
    ("prescription", float("nan"), "not valid JSON (NaN is not strict JSON)"),
    ("prescription", float("inf"), "not valid JSON (Infinity is not strict JSON)"),
], ids=["string-prescription", "list-kind", "int-name", "nan-prescription",
        "infinite-prescription"])
def test_mistyped_structure_entry_exits_3(patient_dir, tmp_path, key, value, message):
    case = tmp_path / "case"
    shutil.copytree(patient_dir, case)
    manifest = json.loads((case / MANIFEST_NAME).read_text())
    next(e for e in manifest["structures"] if e["kind"] == "PTV")[key] = value
    (case / MANIFEST_NAME).write_text(json.dumps(manifest))
    done = dosekit("plan", "--case", case, "--count", 1, "--seed", 0, "--out", tmp_path / "out")
    assert done.returncode == 3  # a FileFormatError
    assert done.stderr.startswith(f"dosekit: {case / MANIFEST_NAME}: {message}")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


def test_missing_case_exits_3(tmp_path):
    # a missing structures.json is a missing input file like any other
    done = dosekit("plan", "--case", tmp_path / "missing", "--count", 1, "--seed", 0,
                   "--out", tmp_path / "out")
    assert done.returncode == 3  # a MissingFileError
    assert "structures.json: no such file" in done.stderr and "Traceback" not in done.stderr


def test_out_under_a_file_exits_3(tmp_path):
    # a file where the output needs a directory is a bad path, not a traceback
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "case"
    done = dosekit("phantom", "--site", "siteA", "--seed", 1, "--out", out)
    assert done.returncode == 3  # a MissingFileError
    (line,) = done.stderr.splitlines()
    assert line.startswith(f"dosekit: {out}{os.sep}")


def test_directory_at_a_mask_path_exits_3(tmp_path, capsys):
    # a save removes the masks that its manifest may not name; a directory is none
    path = tmp_path / "case" / "masks" / "oar99.dvol"
    path.mkdir(parents=True)
    assert cli.main(["phantom", "--site", "siteA", "--seed", "1",
                     "--out", str(tmp_path / "case")]) == 3  # a MissingFileError
    assert capsys.readouterr().err.splitlines() == [f"dosekit: {path}: is a directory"]


def test_plan_checks_out_before_solving(patient_dir, tmp_path, monkeypatch, capsys):
    # unchecked, an --out under a file failed only once every plan was solved
    def solve(*args, **kwargs):
        raise AssertionError("the plans were solved before --out was checked")

    monkeypatch.setattr(cli, "_solved_plans", solve)
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "plans"
    argv = ["plan", "--case", str(patient_dir), "--count", "8", "--seed", "0", "--out", str(out)]
    assert cli.main(argv) == 3  # a MissingFileError
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"dosekit: {out}{os.sep}")


def test_plan_writes_each_plan_as_it_is_solved(patient_dir, tmp_path, monkeypatch, capsys):
    # plan 0 used to wait in memory for every plan, and a failure on plan 1 lost it
    solve = planner.solve_fluence

    def fail_on_plan_1(*args, **kwargs):
        if kwargs["index"] == 1:
            raise planner.PlannerError("no plan 1")
        return solve(*args, **kwargs)

    monkeypatch.setattr(planner, "solve_fluence", fail_on_plan_1)
    argv = ["plan", "--case", str(patient_dir), "--count", "3", "--seed", "0",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == "dosekit: plan 1 for siteA-p0001: no plan 1\n"
    assert load_plan(tmp_path / "plan0").index == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plan0"]


def test_missing_mask_file_exits_3(patient_dir, tmp_path):
    case = tmp_path / "case"
    shutil.copytree(patient_dir, case)
    (case / "masks" / "oar01.dvol").unlink()
    done = dosekit("plan", "--case", case, "--count", 1, "--seed", 0, "--out", tmp_path / "out")
    assert done.returncode == 3  # a MissingFileError
    assert "oar01.dvol: no such file" in done.stderr and "Traceback" not in done.stderr


def test_nan_mask_spacing_exits_3(patient_dir, tmp_path):
    # a corrupt value in a saved file is a bad file (exit 3) that the message names,
    # not a bad configuration (exit 2)
    case = tmp_path / "case"
    shutil.copytree(patient_dir, case)
    path = case / "masks" / "oar01.dvol"
    raw = bytearray(path.read_bytes())
    raw[18:22] = np.float32(np.nan).tobytes()  # the x spacing of the header
    path.write_bytes(bytes(raw))
    done = dosekit("plan", "--case", case, "--count", 1, "--seed", 0, "--out", tmp_path / "out")
    assert done.returncode == 3  # a FileFormatError
    (line,) = done.stderr.splitlines()
    assert line == f"dosekit: {path}: spacing (nan, 5.0, 5.0) mm, expected (5.0, 5.0, 5.0)"


def test_stray_mask_value_exits_3(patient_dir, tmp_path):
    # a mask value outside {0, 1} is a fault of its .dvol file, not of structures.json
    case = tmp_path / "case"
    shutil.copytree(patient_dir, case)
    path = case / "masks" / "oar01.dvol"
    raw = bytearray(path.read_bytes())
    raw[-4:] = np.float32(2.0).tobytes()  # the last payload value
    path.write_bytes(bytes(raw))
    done = dosekit("plan", "--case", case, "--count", 1, "--seed", 0, "--out", tmp_path / "out")
    assert done.returncode == 3  # a FileFormatError
    (line,) = done.stderr.splitlines()
    assert line.startswith(f"dosekit: {path}: mask 'oar01' has values outside")


def test_case_without_ptv_voxels_exits_3(patient_dir, tmp_path):
    case = tmp_path / "case"
    shutil.copytree(patient_dir, case)
    (path,) = (case / "masks").glob("ptv*.dvol")
    mask = read_volume(path)
    write_volume(VoxelGrid(np.zeros(mask.dims)), path)
    done = dosekit("plan", "--case", case, "--count", 1, "--seed", 0, "--out", tmp_path / "out")
    assert done.returncode == 3  # a FileFormatError: a structure has at least one voxel
    assert done.stderr.splitlines() == [f"dosekit: {path}: mask '{path.stem}' is empty"]


LAYERS = "dosekit.evaluation, dosekit.phantom, dosekit.planner, dosekit.volume, dosekit.cli"


def scipy_modules_after(code):
    """The scipy modules that a fresh interpreter holds after importing the
    layers and then running `code`."""
    done = python("-c", f"import sys\nimport {LAYERS}\n{code}\n"
                  "print('scipy:', *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()[1:]


def test_import_loads_no_scipy():
    # scipy.sparse and scipy.special cost about 0.2-0.3 s to load: the planner
    # imports the one on a process's first influence build, the t-test the other;
    # scipy.linalg.blas (50-70 ms) waits for a process's first plan
    assert scipy_modules_after("") == []


def test_phantom_command_loads_no_scipy(tmp_path):
    argv = ["phantom", "--site", "siteA", "--seed", "1", "--out", str(tmp_path / "case")]
    assert scipy_modules_after(f"assert dosekit.cli.main({argv!r}) == 0") == []


def test_influence_build_loads_scipy_sparse():
    # deferred, not dropped: the first influence build imports it
    loaded = scipy_modules_after(
        "assert 'scipy' not in sys.modules\n"
        "case = dosekit.phantom.generate_patient(dosekit.phantom.builtin_site('siteA'), 1)\n"
        "dosekit.planner.build_influence_matrix(case, dosekit.planner.BeamConfig())")
    assert "scipy.sparse" in loaded


# KernelSpec.check_pooling is the model's check of a site grid: the 3D UNet is its
# caller, and once the UNet lands this set is empty
UNCALLED_ON_PURPOSE = {"check_pooling"}


def public_names(tree):
    """The public module-level functions, classes and assigned constants of a module,
    and the public methods of its classes."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names.update(item.name for item in node.body if isinstance(item, ast.FunctionDef))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_")}


def used_names(tree):
    """The identifiers that a module reads: loaded names and attributes, imported
    names and keyword argument names; an assignment's target is no use."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            used.add(node.arg)
    return used


def test_every_public_name_has_a_caller():
    # callers are the package and the benchmark harness; tests and docstrings are not
    package = sorted((SRC / "dosekit").glob("*.py"))
    harness = [p for p in sorted((SRC.parent / "perfbench").glob("*.py"))
               if not p.name.startswith("test_")]
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in package + harness}
    used = set().union(*map(used_names, trees.values()))
    uncalled = [f"{p.stem}.{name}" for p in package
                for name in sorted(public_names(trees[p]) - used - UNCALLED_ON_PURPOSE)]
    assert uncalled == []
