"""Scalar root finding shared by every one-dimensional solve in the package.

Both helpers refine with Brent's method (scipy `brentq`), which keeps a
bracket like bisection but converges superlinearly on smooth functions.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq


def invert_monotone(fn, lo: float, hi: float, xtol: float) -> float:
    """Root of a monotone fn on [lo, hi].

    When fn keeps one sign on the bracket the endpoint with the smaller |fn|
    is returned: a target at the end of the range (fn(hi) ≈ −1e-15 from
    rounding) is a legal input, not a missing root.
    """
    f_lo, f_hi = fn(lo), fn(hi)
    if np.sign(f_lo) * np.sign(f_hi) > 0.0:
        return lo if abs(f_lo) <= abs(f_hi) else hi
    return float(brentq(fn, lo, hi, xtol=xtol))


def sign_change_roots(fn, grid, vals, xtol: float) -> list:
    """One root per sign-changing cell of a scanned grid (vals = fn(grid)).

    An exact zero is kept at its node; every other root is refined by one
    `brentq` call on its cell.
    """
    grid, vals = np.asarray(grid, dtype=float), np.asarray(vals, dtype=float)
    neg = vals < 0.0
    roots = []
    for i in np.flatnonzero((vals[:-1] == 0.0) | (neg[:-1] != neg[1:])):
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
            continue
        try:
            roots.append(float(brentq(fn, grid[i], grid[i + 1], xtol=xtol)))
        except ValueError:
            # fn's own endpoint values share a sign where the scan's did not:
            # the root lies on a node to rounding
            roots.append(float(grid[i] if abs(vals[i]) <= abs(vals[i + 1])
                               else grid[i + 1]))
    return roots
