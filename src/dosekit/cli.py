"""Command line: generate a phantom patient, or Pareto plans for a saved one.

    dosekit phantom --site siteA --seed 1 --out cases/siteA-1
    dosekit phantom --site sites/siteC.json --seed 1 --out cases/siteC-1
    dosekit plan --case cases/siteA-1 --count 8 --seed 0 --out plans/siteA-1

A ``--site`` that ends in ``.json`` is a site file (``phantom.SiteSpec``).
``plan`` writes plan i to ``<out>/plan<i>`` as soon as it is solved, so the
plans solved before a failure stay on disk. The exit status is 0 on success,
2 for a ValidationError (bad configuration or input contract) and 3 for any
other DosekitError, as ``errors.py`` sets out; argparse's own usage errors
also exit with 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import DosekitError, ValidationError
from .phantom import SiteSpec, builtin_site, generate_patient, load_patient, save_patient
from .planner import BeamConfig, _solved_plans, save_plan
from .volume import _count, _make_parents, read_manifest


def _phantom(args) -> None:
    # the site is read before anything is generated, so a refused file leaves no --out
    site = (read_manifest(Path(args.site), SiteSpec) if args.site.endswith(".json")
            else builtin_site(args.site))
    case = generate_patient(site, args.seed)
    save_patient(args.out, case)
    print(f"{case.id} {'x'.join(map(str, case.structures.dims))} -> {args.out}")


def _plan(args) -> None:
    out = Path(args.out)
    _count(args.count, "plan_count")  # a refused count leaves no --out behind
    case = load_patient(args.case)
    _make_parents(out / "plan0")  # a file in the way of --out fails here, not after the solve
    for plan in _solved_plans(case, BeamConfig(), args.count, args.seed):
        save_plan(out / f"plan{plan.index}", plan)
    print(f"{case.id}: {args.count} plans -> {args.out}")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dosekit", description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    phantom = commands.add_parser("phantom", help="generate and save one patient")
    phantom.add_argument("--site", required=True,
                         help="builtin preset (siteA, siteB) or a SiteSpec .json file")
    phantom.add_argument("--seed", type=int, required=True, help="patient seed")
    phantom.add_argument("--out", required=True, help="patient directory to write")
    phantom.set_defaults(run=_phantom)

    about = "generate Pareto plans for a patient, writing each as soon as it is solved"
    plan = commands.add_parser("plan", help=about, description=about)
    plan.add_argument("--case", required=True, help="patient directory to read")
    plan.add_argument("--count", type=int, required=True, help="number of plans")
    plan.add_argument("--seed", type=int, required=True, help="seed of the weight draws")
    plan.add_argument("--out", required=True, help="directory to write the plans under")
    plan.set_defaults(run=_plan)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.run(args)
    except ValidationError as exc:
        print(f"dosekit: {exc}", file=sys.stderr)
        return 2
    except DosekitError as exc:
        print(f"dosekit: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
