"""dosekit benchmark: run one pinned workload and print its metrics.

    python3 perfbench/run.py --workload desk-pareto --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from anywhere; dosekit is imported from ``src/`` next to this directory.
The report goes to standard output, then a ``record`` line (JSON: environment,
every metric with its sample count, counters, output digest), then the result
line. With ``--trace 0`` the result line holds the end-to-end metrics, with
``--trace 1`` the per-layer ones. ``--workload all`` runs each workload in its
own child process, one after another, so no workload inherits another's peak
memory. The exit code is 0 when the run completed, even if outputs were wrong
(then ``correct`` is false), and 2 when dosekit cannot be found.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("desk-pareto", "scaled-influence", "dataset-roundtrip")
# Load comes from this one process; numerical libraries get one thread each.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy
    import scipy

    from perfbench import workloads

    wl = workloads.pinned(args.workload)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(ROOT),
        "seed": args.seed,
        "patients": [[spec.site_id, list(spec.kernel.dims), seed] for spec, seed in wl.cases],
        "plans_per_case": wl.plans_per_case,
        "max_iters": wl.max_iters,
        "beams": workloads.BEAMS.to_json_dict(),
    }


def run_one(args) -> int:
    from perfbench import metrics, workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    e2e = metrics.end_to_end(result)
    layer = metrics.per_layer(result) if args.trace else {}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}"
          f"  passes {result.passes}")
    for name, m in {**e2e, **layer}.items():
        print(f"  {name:28s} {m.value:14.6g} {m.unit:10s} n={m.n} {m.of}")
    if result.tracer is not None:
        print("  largest self times (s, timed jobs):")
        for name, total in list(metrics.self_time_by_span(result.tracer).items())[:6]:
            print(f"    {name:40s} {total:10.4f}")
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args),
        "outputs_sha256": result.digest,
        "setup_samples": {"imports": result.imports, "prepares": result.prepares},
        "counters": result.counters,
        "metrics": {k: {"value": m.value, "unit": m.unit, "n": m.n, "of": m.of}
                    for k, m in {**e2e, **layer}.items()},
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(metrics.result_line(result, e2e, layer, args.trace)))
    return 0


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        child = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]
        sys.stdout.flush()
        status = max(status, subprocess.run(child, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dosekit" / "__init__.py").is_file():
        print(f"perfbench: no dosekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
