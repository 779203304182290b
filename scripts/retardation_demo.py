#!/usr/bin/env python3
"""First-order check of the retardation difference estimate.

Propagates a two-mode superposition in a hard-wall box (natural units),
applies a uniform retardation t_P = tau, and compares the actual
difference |Psi(t) - Psi(t - tau)| against the first-order prediction
|dPsi/dt| * tau.  Halving tau should shrink the worst residual by about
4x, the signature of a second-order remainder.  A single eigenmode is
deliberately avoided: its magnitude difference cancels at second order
and would show a misleading 8x.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from qfront.constants import natural_units
from qfront.eikonal import TraveltimeField
from qfront.fields import ComplexField, Grid, ScalarField
from qfront.schrodinger import (
    QuantumProblem,
    box_eigenmode,
    difference_estimate,
    propagate_classical,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cells", type=int, default=512,
                        help="grid cells across the unit box")
    parser.add_argument("--dt", type=float, default=6.25e-6,
                        help="time step (natural units)")
    parser.add_argument("--tau-steps", type=int, default=16,
                        help="retardation tau as a multiple of dt (even)")
    parser.add_argument("--n-steps", type=int, default=400,
                        help="propagation steps before evaluating")
    args = parser.parse_args(argv)
    if args.tau_steps % 2 or args.tau_steps < 4:
        parser.error("--tau-steps must be an even integer >= 4")

    nat = natural_units()
    grid = Grid((args.cells,), (1.0 / (args.cells - 1),))
    problem = QuantumProblem(
        grid, ScalarField(grid, np.zeros(args.cells)), mass=1.0, dt=args.dt,
        constants=nat,
    )
    mode1 = box_eigenmode(grid, (1,))
    mode2 = box_eigenmode(grid, (2,))
    initial = ComplexField(
        grid, (mode1.values + mode2.values) / math.sqrt(2.0)
    )
    solution = propagate_classical(initial, problem, args.n_steps)
    t_eval = (args.n_steps - args.tau_steps) * args.dt

    print(f"{'tau/dt':>8s} {'max |actual|':>14s} {'max residual':>14s}")
    residuals = {}
    for steps in (args.tau_steps, args.tau_steps // 2):
        tau = steps * args.dt
        tt = TraveltimeField(grid, np.full(args.cells, tau), v_P=1.0)
        actual, predicted = difference_estimate(solution, tt, t_eval)
        mask = predicted.values > 1e-3 * predicted.values.max()
        worst = float(np.abs(actual.values - predicted.values)[mask].max())
        residuals[steps] = worst
        print(f"{steps:>8d} {actual.values.max():>14.4e} {worst:>14.4e}")
    ratio = residuals[args.tau_steps] / residuals[args.tau_steps // 2]
    print(f"residual ratio on halving tau: {ratio:.3f} (second order -> ~4)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
