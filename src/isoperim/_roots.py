"""Root finding shared by every one-dimensional solve in the package.

Every inversion of a monotone map goes through `invert_monotone_many`, which
solves many brackets at once with Chandrupatla's method
(doi:10.1016/s0965-9978(96)00051-8): a numpy loop with scipy `find_root`'s
iterates, without its bookkeeping. `sign_change_roots` refines every
sign-changing cell of a scanned grid in one such solve.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence

XRTOL = 4.0 * np.finfo(float).eps  # relative x tolerance, as in scipy's solvers
# find_root's cap: the bisections from the largest to the smallest normal float
MAX_ITER = 2046


def invert_monotone_many(fn, lo, hi, xtol: float, args=()) -> tuple:
    """Roots of monotone maps on the brackets [lo, hi], one per element:
    Chandrupatla's method done in-house, with `find_root`'s iterates,
    tolerances and statuses. fn(x, *args) is elementwise and args broadcast
    (dtype kept); both ends go to fn in one call, later calls get the open
    lanes only.

    Returns (x, status): status 0 converged; −1 fn keeps one sign on the
    bracket, x the end with the smaller |fn| (ties to lo); −2 still open
    after MAX_ITER steps, x the best point; −3 a non-finite value, x NaN.
    """
    lo, hi, *args = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                        np.asarray(hi, dtype=float), *args)
    shape, lane = lo.shape, np.arange(lo.size)
    lo, hi, args = lo.ravel(), hi.ravel(), [a.ravel() for a in args]
    f = np.asarray(fn(np.concatenate([lo, hi]), *(np.concatenate([a, a]) for a in args)),
                   dtype=float)
    f_lo, f_hi = f[:lo.size], f[lo.size:]
    x, status = np.empty(lo.size), np.empty(lo.size, dtype=int)
    x1, f1, x2, f2, x3, f3, t = lo, f_lo, hi, f_hi, lo, f_lo, 0.5
    # find_root's |f| floor; its frtol = 0 term makes it NaN, so never met, where
    # an end value is NaN or both are infinite
    ftol = np.finfo(float).tiny + 0.0 * np.minimum(np.abs(f_lo), np.abs(f_hi))
    for it in range(MAX_ITER + 1):
        if it:
            xt = x1 + t * (x2 - x1)
            ft = np.asarray(fn(xt, *args), dtype=float)
            same = np.sign(ft) == np.sign(f1)
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            x1, f1 = xt, ft
        near = np.abs(f1) < np.abs(f2)
        x[lane] = xmin = np.where(near, x1, x2)
        dx, tol = np.abs(x2 - x1), np.abs(xmin) * XRTOL + xtol
        # find_root's stop tests, set in reverse: the first that holds wins
        code = np.where(dx < tol, 0, -2)
        code[~(np.isfinite(x1) & np.isfinite(x2)) | np.isnan(f1) & np.isnan(f2)] = -3
        code[np.sign(f1) == np.sign(f2)] = -1
        code[np.abs(np.where(near, f1, f2)) <= ftol] = 0
        status[lane], keep = code, code == -2
        if it == MAX_ITER or not keep.any():
            break
        if not keep.all():
            lane, x1, f1, x2, f2, x3, f3, ftol, dx, tol, *args = (
                v[keep] for v in (lane, x1, f1, x2, f2, x3, f3, ftol, dx, tol, *args))
        if it:  # the first step bisects
            with np.errstate(all="ignore"):
                xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
                alpha = (x3 - x1) / (x2 - x1)
                t = np.where((1 - np.sqrt(1 - xi) < phi) & (phi < np.sqrt(xi)),
                             f1 / (f1 - f2) * f3 / (f3 - f2)
                             - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
            tl = 0.5 * tol / dx
            t = np.clip(t, tl, 1 - tl)
    ends = np.where(np.abs(f_lo) <= np.abs(f_hi), lo, hi)
    x = np.where(status == -1, ends, np.where(status == -3, np.nan, x))
    return x.reshape(shape), status.reshape(shape)


def sign_change_roots(fn, grid, vals, xtol: float) -> tuple:
    """One root per sign-changing cell of every row of a scanned 2-D grid
    (rows × nodes, vals = fn on grid), all refined in one
    `invert_monotone_many` solve; fn(x, row) gets each lane's row index.

    Returns (row, root) arrays, in row and then grid order. An exact zero is
    kept at its node; a cell whose own end values share a sign where the
    scan's did not gives the end with the smaller |fn|.
    """
    vals = np.asarray(vals, dtype=float)
    neg = vals < 0.0
    row, col = np.nonzero((vals[:, :-1] == 0.0) | (neg[:, :-1] != neg[:, 1:]))
    lo, hi = grid[row, col], grid[row, col + 1]
    x, status = invert_monotone_many(fn, lo, hi, xtol, args=(row,))
    if np.any(status < -1):
        raise NoConvergence("vectorized root refinement did not converge")
    return row, np.where(vals[row, col] == 0.0, lo, x)
