"""Correctness checks of one workload run, with the acceptance-suite thresholds.

Each check takes plain numbers and arrays read from the run's outputs and
returns ``(ok, detail)``; none of them imports the program.
"""

from __future__ import annotations

import numpy as np

SLIP_ONSET = 0.01          # max|gamma| above which a step counts as slipped
MIN_ELASTIC_STEPS = 3
FORCE_DROP = 0.10          # drop below the running maximum, as a share of it
MIN_LOCALIZATION = 0.25    # std(gamma) / max|gamma| at the drop step
ENERGY_TOL = 1e-4          # N mm, slack allowed in the energy estimate
ELASTIC_GAMMA = 1e-6
GRADIENT_TOL = 1e-3


def energy_estimate(energy, diss_inc, cumulative, lifted_energy, floor):
    """Criterion 5: the discrete energy estimate on every step.

    Upper: I(t_k, q_k) + D_k <= I(t_k, lift(q_{k-1})) + floor + ENERGY_TOL.
    Lower: D_k >= floor - ENERGY_TOL and the cumulative dissipation never
    drops by more than ENERGY_TOL.  ``floor`` is sigma * delta * |Omega|.
    """
    energy, diss_inc, cumulative, lifted_energy = (
        np.asarray(a, dtype=float)
        for a in (energy, diss_inc, cumulative, lifted_energy))
    slack = lifted_energy + floor - energy - diss_inc
    worst = float(slack.min()) if slack.size else float("inf")
    lower_ok = bool((diss_inc >= floor - ENERGY_TOL).all()
                    and (np.diff(cumulative) >= -ENERGY_TOL).all())
    ok = slack.size > 0 and worst >= -ENERGY_TOL and lower_ok
    return ok, f"worst slack {worst:.3e} N mm, lower estimate {lower_ok}"


def kink(force, max_gamma, gamma_at_drop, energy_ok):
    """Criterion 7 plus criterion 5.

    ``gamma_at_drop(i)`` returns the nodal slip after step index i (0-based
    into ``force``).  Slip onset must follow at least three elastic steps;
    the force must drop at least 10% below its running maximum; at the
    first drop the slip must be localized.
    """
    F = np.asarray(force, dtype=float)
    G = np.asarray(max_gamma, dtype=float)
    onset = next((i for i, g in enumerate(G) if g > SLIP_ONSET), None)
    onset_ok = onset is not None and onset >= MIN_ELASTIC_STEPS
    run_max = np.maximum.accumulate(F) if F.size else F
    drops = [i for i in range(1, len(F))
             if run_max[i - 1] > 0
             and F[i] <= run_max[i - 1] - FORCE_DROP * abs(run_max[i - 1])]
    ratio = 0.0
    if drops:
        gamma = np.asarray(gamma_at_drop(drops[0]), dtype=float)
        ratio = float(np.std(gamma) / max(1e-30, np.max(np.abs(gamma))))
    ok = onset_ok and bool(drops) and ratio > MIN_LOCALIZATION and energy_ok
    detail = (f"onset step {None if onset is None else onset + 1}, drop at step "
              f"{drops[0] + 1 if drops else '-'}, std/max|gamma| {ratio:.2f}, "
              f"energy estimate {energy_ok}")
    return ok, detail


def stiff(force, max_gamma, energy_ok):
    """Criterion 6 plus criterion 5: no slip and a monotone force."""
    F = np.asarray(force, dtype=float)
    G = np.asarray(max_gamma, dtype=float)
    top = float(G.max()) if G.size else float("inf")
    monotone = bool((np.diff(F) > -1e-9 * np.maximum(1.0, np.abs(F[:-1]))).all())
    ok = top < ELASTIC_GAMMA and monotone and energy_ok and F.size > 0
    return ok, (f"max|gamma| {top:.2e}, monotone force {monotone}, "
                f"energy estimate {energy_ok}")


def gradcheck(exit_code, error):
    """check-gradient exits 0 and reports an error below 1e-3."""
    ok = exit_code == 0 and error is not None and bool(np.isfinite(error)) \
        and error < GRADIENT_TOL
    return ok, f"exit code {exit_code}, reported error {error}"
