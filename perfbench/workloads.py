"""The pinned dosekit workloads and the loop that times them.

A workload is a fixed list of cases (site, patient seed) and a plan recipe;
``--seed`` only picks the Pareto weight draws. The timed loop runs whole passes
over the case list until the requested time is spent, so every run measures
the same case mix. Every later pass must reproduce the first pass's output
digests bit for bit. The first pass's outputs are checked against the exact
oracle and counted, so counters, gaps and digests depend on the seed alone.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import pickle
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import dosekit
from dosekit import evaluation, phantom, planner, volume
from dosekit.seeds import derive_seed

from . import oracle
from .reference import Reference, import_reference_seconds, import_seconds, normalized
from .tracer import Tracer

NAMES = ("desk-pareto", "scaled-influence", "dataset-roundtrip")

# Pinned explicitly, so a change of BeamConfig's defaults cannot change the workload.
BEAMS = planner.BeamConfig(
    n_beams=7,
    beamlet_grid=(8, 6),
    attenuation_mu=0.005,
    lateral_sigma=5.0,
    lateral_cutoff=15.0,
    field_margin_mm=5.0,
    ray_step_mm=2.5,
)
DESK_PATIENTS = (1, 2)
SCALED_PATIENT = 1
# Set-up measures the import of dosekit's layers IMPORT_REPS times and the
# preparation of the pinned items SETUP_REPS times (``Runner._set_up``).
IMPORT_REPS = 5
SETUP_REPS = 3
DOSEKIT_LAYERS = "dosekit.evaluation, dosekit.phantom, dosekit.planner, dosekit.volume"
SET_UP_SCRIPT = Path(__file__).with_name("set_up.py")
# Jobs shorter than this share a reference-kernel sample with their neighbours.
REF_INTERVAL_S = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[tuple[phantom.SiteSpec, int], ...]
    plans_per_case: int
    max_iters: int
    # Plans are made in set-up; the timed job writes, reads back and evaluates them.
    roundtrip: bool = False


def scaled_site(spec: phantom.SiteSpec, factor: float) -> phantom.SiteSpec:
    """`spec` with kernel dims, shape radii and jitter scaled by `factor`; spacing kept."""
    pal = spec.shape_palette

    def scale(pair):
        return (pair[0] * factor, pair[1] * factor)

    palette = dataclasses.replace(
        pal,
        body_radius_mm=tuple(scale(r) for r in pal.body_radius_mm),
        body_center_jitter_mm=pal.body_center_jitter_mm * factor,
        ptv_radius_mm=scale(pal.ptv_radius_mm),
        ptv_center_jitter_mm=pal.ptv_center_jitter_mm * factor,
        oar_radius_mm=scale(pal.oar_radius_mm),
    )
    kernel = volume.KernelSpec(tuple(round(d * factor) for d in spec.kernel.dims))
    return dataclasses.replace(spec, kernel=kernel, shape_palette=palette)


def pinned(name: str) -> Workload:
    """The workload definitions; see README.md for why each was chosen."""
    desk = tuple(
        (phantom.builtin_site(site), p) for site in ("siteA", "siteB") for p in DESK_PATIENTS
    )
    if name == "desk-pareto":
        return Workload(name, desk, plans_per_case=8, max_iters=2000)
    if name == "scaled-influence":
        site = scaled_site(phantom.builtin_site("siteA"), 2)
        return Workload(name, ((site, SCALED_PATIENT),), plans_per_case=1, max_iters=2000)
    if name == "dataset-roundtrip":
        return Workload(name, desk, plans_per_case=4, max_iters=200, roundtrip=True)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


@dataclass
class Item:
    key: str
    spec: phantom.SiteSpec
    patient_seed: int
    plan_seed: int
    case: phantom.PatientCase | None = None
    plans: list | None = None


@dataclass
class Output:
    case: phantom.PatientCase
    plans: list
    reports: list = field(default_factory=list)
    mses: list = field(default_factory=list)


class ReadbackError(Exception):
    """A file read back differs from what was written."""


def prepare(wl: Workload, seed: int) -> list[Item]:
    items = []
    for i, (spec, patient_seed) in enumerate(wl.cases):
        item = Item(
            key=f"{spec.site_id}-p{patient_seed}",
            spec=spec,
            patient_seed=patient_seed,
            plan_seed=derive_seed("perfbench", wl.name, seed, i),
        )
        if wl.roundtrip:
            item.case, item.plans = make_plans(wl, item)
        items.append(item)
    return items


def make_plans(wl: Workload, item: Item):
    case = phantom.generate_patient(item.spec, item.patient_seed)
    plans = planner.generate_plans(
        case, BEAMS, wl.plans_per_case, item.plan_seed, max_iters=wl.max_iters
    )
    return case, plans


@contextlib.contextmanager
def keep_influence(store: list):
    """Keep each InfluenceMatrix that generate_plans builds, for the untimed oracle."""
    build = planner.build_influence_matrix

    def keep(*args, **kwargs):
        infl = build(*args, **kwargs)
        store.append(infl)
        return infl

    planner.build_influence_matrix = keep
    try:
        yield
    finally:
        planner.build_influence_matrix = build


def write_case(directory: Path, case, plans) -> None:
    phantom.save_patient(directory / "patient", case)
    for plan in plans:
        planner.save_plan(directory / f"plan{plan.index}", plan)


def read_case(directory: Path, plan_count: int):
    case = phantom.load_patient(directory / "patient")
    plans = [planner.load_plan(directory / f"plan{k}") for k in range(plan_count)]
    return case, plans


def readback_mismatch(item: Item, case, plans) -> str | None:
    """What differs between the set-up case and plans and their read-back copies."""
    if (case.id, case.site_id, case.seed) != (item.case.id, item.case.site_id, item.case.seed):
        return f"{item.key}: patient identity differs"
    for a, b in zip(item.case.structures.structures, case.structures.structures, strict=True):
        if (a.name, a.kind, a.prescription, a.impact) != (b.name, b.kind, b.prescription, b.impact):
            return f"{item.key}: structure {a.name!r} metadata differs"
        if not a.mask.identical(b.mask):
            return f"{item.key}: mask {a.name!r} differs"
    for a, b in zip(item.plans, plans, strict=True):
        where = f"{item.key} plan {a.index}"
        if (a.patient_id, a.index, a.weights, a.diagnostics) != (
            b.patient_id, b.index, b.weights, b.diagnostics
        ):
            return f"{where}: metadata differs"
        # The fluence file stores <f4, so its float32 rounding is what must survive.
        if a.fluence.astype("<f4").tobytes() != b.fluence.astype("<f4").tobytes():
            return f"{where}: fluence differs"
        if not a.dose.identical(b.dose):
            return f"{where}: dose differs"
    return None


def roundtrip_job(item: Item, directory: Path) -> Output:
    write_case(directory, item.case, item.plans)
    case, plans = read_case(directory, len(item.plans))
    mismatch = readback_mismatch(item, case, plans)
    if mismatch:
        raise ReadbackError(mismatch)
    reference = plans[0]
    prescription = case.structures.highest_prescription
    reports = [evaluation.evaluate_plan(p.dose, reference, case.structures) for p in plans[1:]]
    mses = [evaluation.isodose_mse(p.dose, reference.dose, prescription) for p in plans[1:]]
    return Output(case, plans, reports, mses)


def digest(output: Output) -> str:
    h = hashlib.sha256()
    for s in output.case.structures.structures:
        h.update(s.name.encode())
        h.update(s.mask.data.tobytes())
    for plan in output.plans:
        h.update(plan.fluence.tobytes())
        h.update(plan.dose.data.tobytes())
        h.update(repr(plan.diagnostics).encode())
    for report in output.reports:
        h.update(repr(report.to_json_dict()).encode())
    h.update(repr(output.mses).encode())
    return h.hexdigest()


def dvol_bytes(directory: Path, plan_count: int) -> tuple[int, int]:
    """(.dvol bytes the writers left, .dvol bytes the readers consume) for one case."""
    written = sum(p.stat().st_size for p in directory.rglob("*.dvol"))
    read = sum(p.stat().st_size for p in (directory / "patient" / volume.MASK_DIR).glob("*.dvol"))
    read += sum((directory / f"plan{k}" / planner.DOSE_FILE).stat().st_size for k in range(plan_count))
    return written, read


@dataclass
class RunResult:
    workload: Workload
    seed: int
    # (seconds, reference seconds) of each import of dosekit and each preparation.
    imports: list[tuple[float, float]] = field(default_factory=list)
    prepares: list[tuple[float, float]] = field(default_factory=list)
    jobs: list[tuple[float, float, bool]] = field(default_factory=list)  # start, seconds, traced
    refs: list[tuple[float, float]] = field(default_factory=list)  # start, seconds
    ttest_s: list[float] = field(default_factory=list)
    passes: int = 0
    plans_done: int = 0
    eval_pairs: int = 0
    attempted: int = 0
    failures: set = field(default_factory=set)
    peak_rss_mb: float = 0.0
    gaps_pct: list[float] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    digest: str = ""
    tracer: Tracer | None = None

    @property
    def failed(self) -> int:
        return len(self.failures)

    def job_seconds(self, traced: bool = False) -> list[float]:
        return [s for _, s, t in self.jobs if t == traced]

    def job_refs(self, traced: bool = False) -> list[float]:
        """Job times in units of the reference kernel timed around them (reference.py)."""
        ratios = normalized([(start, s) for start, s, _ in self.jobs], self.refs)
        return [x for x, (_, _, t) in zip(ratios, self.jobs) if t == traced]


class Runner:
    """Runs one workload: set-up, timed passes, then the untimed oracle and counters."""

    def __init__(self, wl: Workload, seed: int, seconds: float, trace: bool, workdir: Path,
                 setup_reps: tuple[int, int]):
        self.wl = wl
        self.seconds = seconds
        self.setup_reps = setup_reps
        self.workdir = workdir
        self.result = RunResult(workload=wl, seed=seed, tracer=Tracer() if trace else None)
        self.first_digests: dict[int, str] = {}
        self.first_ttest = None
        self.plans_checked = 0
        self.plans_converged = 0

    def run(self) -> RunResult:
        r = self.result
        items = self._set_up()
        # A traced run alternates traced and untraced jobs, so it needs two passes.
        min_passes = 1 if r.tracer is None else 2
        self.reference = Reference()
        start = perf_counter()
        while r.passes < min_passes or perf_counter() - start < self.seconds:
            self._pass(items, r.passes)
            r.passes += 1
        self._sample_reference(force=True)
        r.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if r.tracer is not None:
            # Set-up ran in child processes; replay one here, untimed, so its calls get spans.
            with self._traced(True, "setup"):
                prepare(self.wl, r.seed)
        if self.wl.roundtrip:
            # The plans come from set-up; rebuild their matrices now, outside every timing.
            for i, item in enumerate(items):
                self._account_case((0, i), item.case, item.plans, None)
        for name in ("volume.bytes_written", "volume.bytes_read", "evaluation.metric_rows"):
            r.counters.setdefault(name, 0)
        r.counters["planner.converged_frac"] = self.plans_converged / max(self.plans_checked, 1)
        h = hashlib.sha256()
        for i in range(len(items)):
            h.update(self.first_digests.get(i, "failed").encode())
        h.update(repr(self.first_ttest).encode())
        r.digest = h.hexdigest()
        return r

    def _set_up(self) -> list[Item]:
        """Time dosekit's import and the preparation of the items, in fresh interpreters.

        Each import runs in its own interpreter between two imports of the
        pinned reference modules (reference.py), so it can be normalised like
        the jobs. The preparations run in one child (set_up.py), which keeps
        their memory (the plans of dataset-roundtrip) out of this process's
        ``ru_maxrss``; the items of its last preparation are used.
        """
        import_reps, prepare_reps = self.setup_reps
        src = str(Path(dosekit.__file__).resolve().parent.parent)
        refs = [import_reference_seconds()]
        for _ in range(import_reps):
            seconds = import_seconds(DOSEKIT_LAYERS, src)
            refs.append(import_reference_seconds())
            self.result.imports.append((seconds, (refs[-2] + refs[-1]) / 2.0))
        out_path = self.workdir / "items.pickle"
        request = pickle.dumps((self.wl, self.result.seed, prepare_reps, str(out_path)))
        child = subprocess.run([sys.executable, str(SET_UP_SCRIPT)], input=request,
                               capture_output=True, check=False, timeout=150)
        if child.returncode != 0:
            sys.stderr.write(child.stderr.decode(errors="replace"))
            raise RuntimeError(f"set-up of {self.wl.name} exited with {child.returncode}")
        self.result.prepares = [tuple(p) for p in json.loads(child.stdout)["prepares"]]
        with open(out_path, "rb") as fh:
            return pickle.load(fh)

    @contextlib.contextmanager
    def _traced(self, traced: bool, job: str):
        if not traced:
            yield
            return
        tracer = self.result.tracer
        with tracer.installed(), tracer.span("job", job):
            yield

    def _fail(self, key, message: str | None = None) -> None:
        if message:
            print(f"perfbench: {message}", file=sys.stderr)
        else:
            traceback.print_exc(file=sys.stderr)
        self.result.failures.add(key)

    def _sample_reference(self, force: bool = False) -> None:
        refs = self.result.refs
        if force or not refs or perf_counter() - refs[-1][0] >= REF_INTERVAL_S:
            t0 = perf_counter()
            refs.append((t0, self.reference.seconds()))

    def _pass(self, items: list[Item], p: int) -> None:
        r = self.result
        mses = []
        for i, item in enumerate(items):
            traced = r.tracer is not None and (i + p) % 2 == 1
            directory = self.workdir / f"case{i}"
            # Every pass writes into an empty directory, so a read can only see this pass's writes.
            shutil.rmtree(directory, ignore_errors=True)
            r.attempted += 1
            output = None
            built = []
            self._sample_reference()
            t0 = perf_counter()
            with self._traced(traced, f"{item.key}/pass{p}"), keep_influence(built):
                try:
                    if self.wl.roundtrip:
                        output = roundtrip_job(item, directory)
                    else:
                        output = Output(*make_plans(self.wl, item))
                except Exception:
                    self._fail((p, i))
            r.jobs.append((t0, perf_counter() - t0, traced))
            if output is None:
                continue
            if not traced:
                r.plans_done += 0 if self.wl.roundtrip else len(output.plans)
                r.eval_pairs += len(output.reports)
            if self.wl.roundtrip:
                mses.append(output.mses[:2])
            d = digest(output)
            if p == 0:
                self.first_digests[i] = d
                if not self.wl.roundtrip:
                    self._account_case((0, i), output.case, output.plans, built[0])
                else:
                    written, read = dvol_bytes(directory, len(item.plans))
                    self._count("volume.bytes_written", written)
                    self._count("volume.bytes_read", read)
                    self._count("evaluation.metric_rows", sum(len(x.rows) for x in output.reports))
            elif d != self.first_digests.get(i):
                self._fail((p, i), f"{item.key} pass {p}: outputs differ from pass 0")
        if self.wl.roundtrip and len(mses) == len(items):  # a failed case already counted
            self._ttest(mses, p)

    def _ttest(self, mses: list, p: int) -> None:
        r = self.result
        r.attempted += 1
        t0 = perf_counter()
        try:
            with self._traced(r.tracer is not None and p % 2 == 1, f"ttest/pass{p}"):
                a, b = np.array(mses).T
                result = evaluation.paired_t_test(a, b)
        except Exception:
            self._fail((p, "ttest"))
            return
        r.ttest_s.append(perf_counter() - t0)
        if p == 0:
            self.first_ttest = result
        elif result != self.first_ttest:
            self._fail((p, "ttest"), f"pass {p}: t-test differs from pass 0")

    def _count(self, name: str, value) -> None:
        self.result.counters[name] = self.result.counters.get(name, 0) + value

    def _account_case(self, key, case, plans, infl) -> None:
        """Untimed: count one case's work and check its plans against the oracle."""
        try:
            self._count_and_check(case, plans, infl)
        except Exception:
            self._fail(key)
        self.plans_checked += len(plans)
        self.plans_converged += sum(p.diagnostics.converged for p in plans)

    def _count_and_check(self, case, plans, infl) -> None:
        if infl is None:
            infl = planner.build_influence_matrix(case, BEAMS)
        m = infl.matrix
        self._count("planner.body_rows", m.shape[0])
        self._count("planner.influence_nnz", int(m.nnz))
        self._count("planner.beamlets", infl.n_beamlets)
        rows = np.concatenate([infl.rows_for(s) for s in (*case.structures.ptvs, *case.structures.oars)])
        nnz = int(np.diff(m.indptr)[rows].sum())
        # CSR arrays read per SpMV, plus the dense vectors read and written.
        matrix_bytes = nnz * (m.data.itemsize + m.indices.itemsize) + (rows.size + 1) * m.indptr.itemsize
        vector_bytes = 8 * (rows.size + infl.n_beamlets)
        for plan in plans:
            iters = plan.diagnostics.iterations
            self._count("planner.cp_iters", iters)
            # Each CP iteration is one A x and one A^T y: 2 flops per nonzero each.
            self._count("planner.spmv_gflop", 4 * nnz * iters / 1e9)
            self._count("planner.spmv_gbytes", 2 * (matrix_bytes + vector_bytes) * iters / 1e9)
            gap = oracle.plan_gap(infl, case.structures, plan)
            if gap.violation:
                raise oracle.OracleMismatch(
                    f"plan {plan.index} of {plan.patient_id}: CP objective {gap.cp_objective!r} "
                    f"is below the exact optimum {gap.optimum!r}"
                )
            self.result.gaps_pct.append(gap.pct)


def run(name_or_workload, seed: int, seconds: float, trace: bool, root: Path,
        setup_reps: tuple[int, int] = (IMPORT_REPS, SETUP_REPS)) -> RunResult:
    """Run one workload with its scratch files in ``root/.bench_build``; they are removed after."""
    wl = pinned(name_or_workload) if isinstance(name_or_workload, str) else name_or_workload
    base = root / ".bench_build"
    base.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=base))
    try:
        return Runner(wl, seed, seconds, trace, workdir, setup_reps).run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
