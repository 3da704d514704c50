"""Prepare a workload's items in a fresh interpreter, so set-up memory stays out of the parent.

    python3 perfbench/set_up.py < request.pickle

The request on standard input is a pickled ``(Workload, seed, reps, out_path)``.
The script runs ``workloads.prepare`` ``reps`` times, each with the reference
kernel timed just before and after it, pickles the last items to
``out_path`` and prints one JSON line: ``{"prepares": [[seconds, reference
seconds], ...]}``, the reference seconds being the mean of the two samples.
"""

import json
import os
import pickle
import sys
from time import perf_counter

sys.path[:0] = [os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), d)
                for d in ("src", "")]

from perfbench import workloads  # noqa: E402
from perfbench.reference import Reference  # noqa: E402


def main() -> int:
    wl, seed, reps, out_path = pickle.load(sys.stdin.buffer)
    reference = Reference()
    prepares = []
    for _ in range(reps):
        before = reference.seconds()
        t0 = perf_counter()
        items = workloads.prepare(wl, seed)
        seconds = perf_counter() - t0
        prepares.append([seconds, (before + reference.seconds()) / 2.0])
    with open(out_path, "wb") as fh:
        pickle.dump(items, fh, protocol=pickle.HIGHEST_PROTOCOL)
    print(json.dumps({"prepares": prepares}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
