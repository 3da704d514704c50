"""Exact optimum of a plan's fluence problem, to measure how far CP stops from it.

The planner minimises sum_s (w_s / N_s) * ||A_s x - p_s||^2 over x >= 0, with
p_s the prescription of a PTV and 0 for an OAR. Scaling structure s's rows by
sqrt(w_s / N_s) makes that one nonnegative least-squares problem, which
scipy.optimize.nnls solves exactly with an active-set method. The problem is
rebuilt from public dosekit API only and cross-checked against
``planner.objective``, so a change to the planner's objective shows up as an
oracle mismatch rather than as a silent gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from dosekit import planner
from dosekit.volume import PTV

# The CP objective may sit below the exact optimum by at most this share of it
# (float round-off); anything lower means the oracle or the planner is wrong.
VIOLATION_RTOL = 1e-9
# planner.objective at the NNLS solution must equal the NNLS residual this closely.
CROSSCHECK_RTOL = 1e-8


class OracleMismatch(Exception):
    """The rebuilt problem disagrees with planner.objective."""


@dataclass(frozen=True)
class Gap:
    cp_objective: float
    optimum: float

    @property
    def pct(self) -> float:
        """Excess of the CP objective over the optimum, in percent of the optimum."""
        return 100.0 * (self.cp_objective - self.optimum) / self.optimum

    @property
    def violation(self) -> bool:
        return self.cp_objective < self.optimum * (1.0 - VIOLATION_RTOL)


def scaled_rows(infl, structures, weights) -> tuple[np.ndarray, np.ndarray]:
    """Dense sqrt(c)-scaled objective rows M and targets b: objective = ||M x - b||^2."""
    blocks, targets = [], []
    for s in (*structures.ptvs, *structures.oars):
        rows = infl.rows_for(s)
        if rows.size == 0:
            continue
        scale = math.sqrt(weights[s.name] / rows.size)
        target = s.prescription if s.kind == PTV else 0.0
        blocks.append(scale * infl.matrix[rows].toarray())
        targets.append(np.full(rows.size, scale * target))
    return np.vstack(blocks), np.concatenate(targets)


def plan_gap(infl, structures, plan) -> Gap:
    """Solve the plan's problem exactly and compare the plan's objective to it."""
    M, b = scaled_rows(infl, structures, plan.weights)
    x, rnorm = nnls(M, b)
    optimum = rnorm * rnorm
    check = planner.objective(infl, structures, plan.weights, x)
    if not math.isclose(check, optimum, rel_tol=CROSSCHECK_RTOL):
        raise OracleMismatch(
            f"plan {plan.index} of {plan.patient_id}: planner.objective gives {check!r} "
            f"at the NNLS solution, NNLS residual gives {optimum!r}"
        )
    cp = planner.objective(infl, structures, plan.weights, plan.fluence)
    if not math.isclose(cp, plan.diagnostics.final_objective, rel_tol=CROSSCHECK_RTOL):
        raise OracleMismatch(
            f"plan {plan.index} of {plan.patient_id}: objective of the returned fluence "
            f"{cp!r} differs from the solver's final objective "
            f"{plan.diagnostics.final_objective!r}"
        )
    return Gap(cp_objective=cp, optimum=optimum)
