"""Isoperimetric profiles and the profile-comparison check.

Two routes to the profile are implemented and cross-validated:

* `symmetric_profile` builds the family of arcs symmetric about the x-axis
  for a bi-axially symmetric domain (closed-form length, Green-theorem
  area), which upper-bounds the profile and is exact for the disk.
* `oracle_pairs` enumerates all perfect arcs by scanning the two-point
  function, refines the family crossing a target area, and takes the
  minimum length — a brute-force oracle independent of any closed form,
  over many (domain, area) pairs in one pass; `general_profile_oracle`
  takes one pair.

`conjecture_check` compares a domain's profile against the unit disk's and
reports the supremum of the ratio over the sampled area range.
"""

from __future__ import annotations

import csv
import io
import logging
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from . import arcs as arcsmod
from . import disk as diskmod
from ._roots import MAX_ITER, XRTOL, invert_monotone_many
from .errors import (IsDisk, IsoperimError, NoArcAtArea, NoConvergence, NotClassA,
                     NotNormalized, NumericalError)
from .geometry import PlaneBoundary, SupportCurve, TWO_PI, classify, is_symmetric
from .trig import TrigSeries

HALF_PI = np.pi / 2.0
# the refinement's window: the corrected partner s2 stays this close to its
# seed interpolated along the branch segment
BRANCH_HALFWIDTH = 0.2
# s1 slices of the oracle's root scan
N_S1 = 96
# largest gap between the Green and the dA = (1/k)dL areas of the family
AREA_CROSS_CHECK_TOL = 1e-7
# areas below this are certified by the small-area expansion, not sampled
AREA_FLOOR = 0.02

log = logging.getLogger("isoperim")


# --------------------------------------------------------------------------
# symmetric family
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileTable:
    """Sampled (θ, A, L, k) rows of the symmetric arc family."""

    theta: np.ndarray
    area: np.ndarray
    length: np.ndarray
    arc_curvature: np.ndarray

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["theta", "area", "length", "curvature"])
        for row in zip(self.theta, self.area, self.length, self.arc_curvature):
            w.writerow([f"{v:.17g}" for v in row])
        return buf.getvalue()


def profile_grid(n_samples: int) -> np.ndarray:
    """Chebyshev-graded θ grid on (0, π/2]; contains π/4 for even n."""
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    j = np.arange(1, n_samples + 1)
    return (np.pi / 4.0) * (1.0 - np.cos(np.pi * j / n_samples))


def _upper_endpoint_height(curve: SupportCurve, theta):
    """y(θ) = ∫_0^θ cos ω/κ dω = C_y(θ) for an x-axis-symmetric domain."""
    h, hp = TrigSeries.evaluate(theta, curve.h_series, curve._h_prime)
    return h * np.sin(theta) + hp * np.cos(theta)


def _family_arcs(curve: SupportCurve, theta) -> tuple:
    """(L(θ), k(θ)) from one y(θ): L = (π − 2θ)·y/cos θ, evaluated as
    (2t/sin t)·y with t = π/2 − θ, and k = cos θ / y."""
    theta = np.asarray(theta, dtype=float)
    y = _upper_endpoint_height(curve, theta)
    t = HALF_PI - theta
    fac = np.where(np.abs(t) < 1e-9, 2.0, 2.0 * t / np.where(t == 0, 1.0, np.sin(t)))
    return fac * y, np.cos(theta) / y


def _family_length(curve: SupportCurve, theta):
    return _family_arcs(curve, theta)[0]


def require_class_a(curve: SupportCurve, allow_disk: bool):
    """Classify the domain and refuse what the symmetric family cannot
    handle: a disk (unless allowed) or one off the origin, a domain outside
    class A or with its major axis on y, then an area other than π."""
    report = classify(curve)
    if report.is_disk:
        if not allow_disk:
            raise IsDisk("domain is a disk")
        if not is_symmetric(curve):
            raise NotClassA("disk must be centered at the origin")
    elif not report.is_class_A:
        raise NotClassA("domain is not bi-axially symmetric with four vertices")
    elif 1.0 / curve.rho(0.0) < 1.0 / curve.rho(HALF_PI):
        raise NotClassA("major axis must lie on the x-axis "
                        "(rotate the domain by pi/2)")
    if abs(report.area - np.pi) > 1e-8:
        raise NotNormalized(f"area {report.area:.12g} != pi; normalize first")
    return report


def _family_area_quadrature(curve: SupportCurve, theta_grid):
    """Cumulative area from dA = (1/k)dL, as an independent cross-check.

    dA/dθ = y(Pρc² + Psy − 2yc)/c³ with P = π−2θ, c = cosθ, s = sinθ has a
    0/0 limit y(π/2)(2ρ(π/2) − 2y(π/2)/3) at the right endpoint (triple
    cancellation). Everything is evaluated in the offset t = π/2 − θ so the
    cancelling factors P = 2t and c = sin t carry relative, not absolute,
    rounding; the endpoint node itself uses the analytic limit.
    """
    n_fine = 16384
    t = np.linspace(0.0, HALF_PI, n_fine + 1)  # offset from pi/2
    # θ = π/2 − t_i is node n_fine − i of the circle grid of 4·n_fine nodes
    h, hp, rho = (v[n_fine::-1] for v in TrigSeries.on_grid(
        4 * n_fine, curve.h_series, curve._h_prime, curve.rho_series))
    c = np.sin(t)   # cos(theta)
    s = np.cos(t)   # sin(theta)
    y = h * s + hp * c
    p = 2.0 * t     # pi - 2 theta
    num = p * rho * c * c + p * s * y - 2.0 * y * c
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = y * num / c ** 3
    y_end = float(_upper_endpoint_height(curve, HALF_PI))
    rho_end = float(curve.rho_series(HALF_PI))
    integrand[t < 0.5 * (HALF_PI / n_fine)] = \
        y_end * (2.0 * rho_end - 2.0 * y_end / 3.0)
    # cumulative Simpson: cells 2i and 2i + 1 each integrate the parabola
    # through nodes 2i, 2i + 1 and 2i + 2
    f0, f1, f2 = integrand[:-2:2], integrand[1::2], integrand[2::2]
    cells = np.stack([5.0 * f0 + 8.0 * f1 - f2, 5.0 * f2 + 8.0 * f1 - f0], axis=1)
    cum = np.append(0.0, np.cumsum(cells.ravel() * (t[1] / 12.0)))
    # A(theta) integrates from the vertex: A = ∫_0^{pi/2} − ∫_0^{pi/2-theta}
    offsets = HALF_PI - np.asarray(theta_grid, dtype=float)
    return cum[-1] - _hermite(t, cum, integrand, offsets)[0]


def _hermite(x, y, dydx, xq) -> tuple:
    """The cubic Hermite interpolant of values y and slopes dydx on the
    increasing knots x, at xq: (value, slope)."""
    i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, len(x) - 2)
    h, m0, m1 = x[i + 1] - x[i], dydx[i], dydx[i + 1]
    u, d = (xq - x[i]) / h, (y[i + 1] - y[i]) / h
    c2, c3 = 3.0 * d - 2.0 * m0 - m1, m0 + m1 - 2.0 * d
    return y[i] + h * u * (m0 + u * (c2 + u * c3)), m0 + u * (2.0 * c2 + 3.0 * u * c3)


def symmetric_profile(curve: SupportCurve, n_samples: int = 256) -> ProfileTable:
    """Profile table of the x-axis-symmetric arc family (class-A domains).

    Areas come from the Green-theorem arc construction and are cross-checked
    against the dA = (1/k)dL quadrature; lengths and curvatures are closed
    form in the support function.
    """
    require_class_a(curve, allow_disk=True)
    return _symmetric_table(curve, n_samples)


def _symmetric_table(curve: SupportCurve, n_samples: int) -> ProfileTable:
    """`symmetric_profile` of a domain that `require_class_a` admitted."""
    theta = profile_grid(n_samples)
    length, curvature = _family_arcs(curve, theta)

    arcs = arcsmod.arc_batch(curve, -theta, theta)
    arcs.raise_first()
    area = arcs.area

    check = _family_area_quadrature(curve, theta)
    worst = float(np.max(np.abs(check - area)))
    if worst > AREA_CROSS_CHECK_TOL:
        raise NumericalError(
            f"area cross-check failed: Green vs dA=(1/k)dL differ by {worst:.3e}")

    return ProfileTable(theta, area, length, curvature)


def family_area_at(curve: SupportCurve, theta):
    """Green-theorem area of the symmetric arc at half-angle theta, elementwise."""
    theta = np.asarray(theta, dtype=float)
    arc = arcsmod.arc_batch(curve, -theta.ravel(), theta.ravel())
    arc.raise_first()
    return float(arc.area[0]) if theta.ndim == 0 else arc.area.reshape(theta.shape)


def _family_theta(curve: SupportCurve, target, lo, hi) -> np.ndarray:
    """The symmetric family's half-angles at `target` areas, one bracket
    [lo, hi] per element, in one solve of the monotone A(θ)."""
    return invert_monotone_many(lambda th, a: family_area_at(curve, th) - a,
                                lo, hi, 1e-13, args=(target,))[0]


def family_theta_at_area(curve: SupportCurve, target):
    """Invert the monotone A(θ) of the symmetric family, elementwise."""
    target = np.asarray(target, dtype=float)
    if not np.all((family_area_at(curve, 1e-9) <= target)
                  & (target <= curve.area() / 2.0 + 1e-12)):
        raise NoArcAtArea(f"area {target} outside the symmetric family range")
    theta = _family_theta(curve, target, 1e-9, HALF_PI)
    return float(theta) if theta.ndim == 0 else theta


# --------------------------------------------------------------------------
# conjecture check
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjectureReport:
    """Supremum of L/L* over the sampled area range and the verdict."""

    sup_ratio: float
    argmax_area: float
    passed: bool
    margin: float
    area_floor: float
    stationarity_residual: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def conjecture_check(curve: SupportCurve, n_samples: int = 256) -> ConjectureReport:
    """sup L(A)/L*(A) over the symmetric family versus the unit disk.

    The ratio tends to 1 from below as A → 0 whenever κ_max > 1, so areas
    below AREA_FLOOR are certified by the small-area expansion and the
    supremum is reported over [AREA_FLOOR, π/2]; the profile symmetry covers
    the other half of the range. The sup is the largest exact ratio among the
    best sample, the interpolated maximum near it, and the floor itself.
    """
    report = require_class_a(curve, allow_disk=False)
    table = _symmetric_table(curve, n_samples)

    # below the floor the ratio is (1 − s√(A/2π))/(1 − s*√(A/2π)) to leading
    # order, with s = 4κ_max/3π and s* = 4/3π: below 1 exactly when κ_max > 1
    if not report.kappa_max > 1.0:
        raise NumericalError("kappa_max <= 1 for an area-pi non-disk domain; "
                             "Pestov-Ionin violated, geometry is inconsistent")

    # A rises with θ, so table rows j.. are the samples at or above the floor
    j = int(np.argmax(table.area >= AREA_FLOOR))
    if table.area[j] < AREA_FLOOR:
        raise NumericalError("area floor exceeds the sampled range")
    a_samp = table.area[j:]
    # the disk's half-angles at the sampled areas and at the floor, one solve
    theta_disk = diskmod.area_to_theta(
        np.append(np.minimum(a_samp, np.pi - a_samp), AREA_FLOOR))
    i = int(np.argmax(table.length[j:] / diskmod.theta_to_length(theta_disk[:-1])))
    near = np.clip([i - 1, i + 1], 0, len(a_samp) - 1)

    def slope(th):
        """L*² d(L/L*)/dA at the disk's half-angle th, where A*, L* and
        dL*/dA = k* are closed form; L(A) is Hermite with dL/dA = k."""
        length, dl = _hermite(table.area, table.length, table.arc_curvature,
                              diskmod.theta_to_area(th))
        return dl * diskmod.theta_to_length(th) - length * diskmod.theta_to_curvature(th)

    # the interpolated ratio's maximum between the neighbours, sought in θ*
    th_max = float(invert_monotone_many(slope, *theta_disk[near], 1e-12)[0])
    a_star = diskmod.theta_to_area(th_max)
    # the family at a_star and at the floor, each bracketed by its table rows
    lo = [table.theta[j + near[0]], table.theta[j - 1] if j else 1e-9]
    theta_fam = _family_theta(curve, np.array([a_star, AREA_FLOOR]), lo,
                              [table.theta[j + near[1]], table.theta[j]])
    # exact ratios of the candidates: best sample, interpolated maximum, floor
    theta_dom = np.array([table.theta[j + i], *theta_fam])
    theta_star = np.array([theta_disk[i], th_max, theta_disk[-1]])
    ratio = _family_length(curve, theta_dom) / diskmod.theta_to_length(theta_star)
    k = int(np.argmax(ratio))
    a_max, r_max = float([a_samp[i], a_star, AREA_FLOOR][k]), float(ratio[k])

    span = float(a_samp[-1]) - AREA_FLOOR
    stationarity = None
    if a_max - AREA_FLOOR > 1e-3 * span and float(a_samp[-1]) - a_max > 1e-3 * span:
        stationarity = float(abs((np.pi - 2.0 * theta_dom[k])
                                 / (np.pi - 2.0 * theta_star[k]) - r_max ** 2))
    return ConjectureReport(sup_ratio=r_max, argmax_area=a_max, passed=r_max < 1.0,
                            margin=1.0 - r_max, area_floor=AREA_FLOOR,
                            stationarity_residual=stationarity)


# --------------------------------------------------------------------------
# general brute-force oracle
# --------------------------------------------------------------------------

def _circle_profile_value(curve: PlaneBoundary, target: float) -> float:
    """Profile of a circle-like domain (every endpoint pair is perfect).

    For fixed s1 the enclosed area grows monotonically with the sweep to s2,
    so the arc at the target area comes from one solve over eight s1, each
    on the sweep bracket [1e-6, 2π − 1e-6]; the geometric construction (not
    the closed form) supplies lengths and areas. A target outside the areas
    of that bracket (below about 3.9e-13 on the unit disk) is refused. Small
    areas lose accuracy to the absolute rounding of the Green area, not to
    the sweep: on the unit disk at A = 1e-12 the length's relative error is
    2.7e-5, about 7e-11 absolute.
    """
    def arcs_at(s1, sweep):
        arcs = arcsmod.arc_batch(curve, s1, s1 + sweep)
        arcs.raise_first()
        return arcs

    s1 = np.linspace(0.0, TWO_PI, 8, endpoint=False)
    sweep, status = invert_monotone_many(lambda w, s: arcs_at(s, w).area - target,
                                         1e-6, TWO_PI - 1e-6, 1e-13, args=(s1,))
    if np.any(status == -1):
        raise NoArcAtArea(f"target area {target} outside the areas of the "
                          "sweeps in [1e-6, 2pi - 1e-6]")
    if np.any(status < -1):
        raise NoConvergence(f"circle sweep at area {target} did not converge")
    return float(np.min(arcs_at(s1, sweep).length))


def _branch_slope(arc, first=True) -> tuple:
    """Rates at each pair of `arc`, whose lo end is s1 where `first`, from the
    pair's own boundary sample (`ArcBatch.pair_partials`): along f = 0 the
    slope ds2/ds1 = −(∂f/∂s1)/(∂f/∂s2) and the area's derivative
    dA/ds1 = ∂A/∂s1 + ∂A/∂s2·ds2/ds1; at fixed s1, ∂A/∂f and
    ∂s2/∂f = 1/(∂f/∂s2). None is finite where ∂f/∂s2 = 0."""
    f_lo, f_hi, a_lo, a_hi = arc.pair_partials()
    f1, f2, a1, a2 = (np.where(first, x, y) for x, y in (
        (f_lo, f_hi), (f_hi, f_lo), (a_lo, a_hi), (a_hi, a_lo)))
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = -f1 / f2
        return slope, a1 + a2 * slope, a2 / f2, 1.0 / f2


def _refine_on_branch(curve, s1_a, s2_a, s1_b, s2_b, target, domain=0) -> tuple:
    """Lengths of the arcs at `target` area on branch segments whose end
    areas straddle it, one element per segment (the arguments broadcast;
    segment i lies on domain[i], see `PlaneBoundary`).

    Every segment at once, one `arc_batch` per iterate: Newton on the pair
    (f, A − target) in (s1, s2), with the Jacobian from the iterate's own
    sample (`_branch_slope`). Eliminating ds2 gives ds1 = −m/(dA/ds1 along
    the branch), where m = (A − target) − (∂A/∂f)·f is the area miss carried
    to the branch at fixed s1, and ds2 = (ds2/ds1)·ds1 − f·∂s2/∂f. An f
    within its rounding, eps·(|a| + |b|) for the endpoints a and b, counts
    as 0 there: ∂A/∂f and ∂s2/∂f would lift its noise far above the miss.
    The first iterate is the Newton step of the end nearer the target, or
    the ends' secant where that leaves the segment, at the segment's seed:
    the cubic Hermite interpolant of the end roots and slopes, or their
    chord where that is not finite or strays from it by more than
    BRANCH_HALFWIDTH / 2. The segment is an s1 bracket that keeps the sign
    of m at its ends; only an iterate that passes the kernel's |f| test
    (failure code ≠ 1) moves it, and one that does not, or whose bracket has
    closed, takes only the s2 step. A Newton step that leaves the bracket
    becomes a bisection, with s2 at the seed. A point is certified where
    `arc_batch` accepts it and |f| ≤ NEWTON_F_TOL. A lane stops at a
    certified iterate once its s1 step or bracket is below
    1e-14 + XRTOL·|s1|, and returns its certified point (an end or an
    iterate) of smallest |A − target|.

    A segment fails where `arc_batch` rejects an end, where an iterate
    leaves the window 0 < hi − lo < 2π or moves s2 more than
    BRANCH_HALFWIDTH from the seed (NoArcAtArea), or where it has no
    certified point (NoConvergence). It also fails (NoArcAtArea) where the
    best miss exceeds the area that the stop rule leaves, the s1 tolerance
    times |dA/ds1| plus |∂A/∂f|·NEWTON_F_TOL: the bracket closed on a jump.
    Returns (length, failures): NaN length and, in `failures`, the exception
    of each failed segment; None where it succeeded.
    """
    s1_a, s2_a, s1_b, s2_b, target, dom = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float))
          for v in (s1_a, s2_a, s1_b, s2_b, target)), domain)
    n = len(s1_a)
    width = s1_b - s1_a
    chord = (s2_b - s2_a) / width
    failures = [None] * n

    def arcs_at(s1, s2, seed, lane):
        """Rows (|A − target| where certified, else inf; length; failure
        code; ds2/ds1; dA/ds1; ∂A/∂f; the s2 step to f = 0; m) at the pairs
        (s1, s2) of lanes `lane`, and their `arc_batch`. A pair out of the
        window around `seed` fails its lane and reads NaN."""
        lo, hi = np.fmin(s1, s2), np.fmax(s1, s2)
        # a partner that left the window has jumped to another branch
        inside = ((hi - lo > 0.0) & (hi - lo < TWO_PI)
                  & (np.abs(s2 - seed) <= BRANCH_HALFWIDTH))
        for i in lane[~inside]:
            failures[i] = failures[i] or NoArcAtArea("branch left the parameter window")
        arc = arcsmod.arc_batch(curve, lo[inside], hi[inside], dom[lane[inside]])
        slope, d_area, da_df, ds2_df = _branch_slope(arc, s1[inside] < s2[inside])
        miss, f = arc.area - target[lane[inside]], arc.residual
        sure = (arc.failure == 0) & (np.abs(f) <= arcsmod.NEWTON_F_TOL)
        f = np.where(np.abs(f) > np.finfo(float).eps * (
            np.hypot(*arc.a_pt.T) + np.hypot(*arc.b_pt.T)), f, 0.0)
        out = np.full((8, len(s1)), np.nan)
        out[:, inside] = (np.where(sure, np.abs(miss), np.inf), arc.length,
                          arc.failure, slope, d_area, da_df, -f * ds2_df,
                          miss - da_df * f)
        return out, arc

    def alive(lane):
        return np.array([failures[i] is None for i in lane], dtype=bool)

    lanes = np.arange(n)
    ends, arc = arcs_at(np.concatenate([s1_a, s1_b]), np.concatenate([s2_a, s2_b]),
                        np.concatenate([s2_a, s2_b]), np.tile(lanes, 2))
    for i in np.flatnonzero(arc.failure):
        failures[i % n] = failures[i % n] or arc.error(i)
    end_a, end_b = ends[:, :n], ends[:, n:]
    # the branch's slopes ds2/ds1 at both ends, less the chord's
    bend_a, bend_b = end_a[3] - chord, end_b[3] - chord

    def seed_at(s1, lane):
        """The cubic Hermite interpolant of the lane's end roots and slopes
        at s1, or the chord where it is not finite or strays from the chord
        by more than BRANCH_HALFWIDTH / 2."""
        line = s2_a[lane] + chord[lane] * (s1 - s1_a[lane])
        t = (s1 - s1_a[lane]) / width[lane]
        with np.errstate(invalid="ignore", over="ignore"):
            bend = width[lane] * t * (1.0 - t) * (
                (1.0 - t) * bend_a[lane] - t * bend_b[lane])
            keep = np.isfinite(bend) & (np.abs(bend) <= BRANCH_HALFWIDTH / 2.0)
        return line + np.where(keep, bend, 0.0)

    # the bracket: xa keeps the sign of the a end's carried miss fa, xb of fb
    xa, fa, xb, fb = s1_a.copy(), end_a[7], s1_b.copy(), end_b[7]
    # each lane's best certified point, its s1 and arcs_at's rows: the end
    # nearer the target to start
    near = np.abs(fa) <= np.abs(fb)
    best_s1, best = np.where(near, s1_a, s1_b), np.where(near, end_a, end_b)

    def within(x, lane):
        return (np.fmin(xa[lane], xb[lane]) < x) & (x < np.fmax(xa[lane], xb[lane]))

    with np.errstate(divide="ignore", invalid="ignore"):
        x = best_s1 - best[7] / best[4]
        secant = s1_a - fa * width / (fb - fa)
    x = np.where(within(x, lanes), x, secant)
    y = seed_at(x, lanes)
    # lanes with a sign change between their ends iterate
    idx = np.flatnonzero((np.sign(fa) * np.sign(fb) < 0.0) & alive(lanes))
    for _ in range(MAX_ITER):
        if not idx.size:
            break
        vals, _ = arcs_at(x[idx], y[idx], seed_at(x[idx], idx), idx)
        ok = alive(idx)
        idx, vals, xi, yi = idx[ok], vals[:, ok], x[idx[ok]], y[idx[ok]]
        miss, code, slope, d_area, back, m = vals[[0, 2, 3, 4, 6, 7]]
        better = miss < best[0, idx]
        best_s1[idx[better]], best[:, idx[better]] = xi[better], vals[:, better]
        tol = 1e-14 + XRTOL * np.abs(xi)
        closed = np.abs(xb[idx] - xa[idx]) < tol
        moves = (code != 1) & ~closed
        side_a = moves & (np.sign(m) == np.sign(fa[idx]))
        side_b = moves & ~side_a
        xa[idx[side_a]], fa[idx[side_a]] = xi[side_a], m[side_a]
        xb[idx[side_b]], fb[idx[side_b]] = xi[side_b], m[side_b]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = m / d_area
        done = np.isfinite(miss) & ((np.abs(step) < tol) | closed)
        newton = xi - step
        newton_ok = within(newton, idx)
        nx = np.where(moves, np.where(newton_ok, newton, 0.5 * (xa[idx] + xb[idx])), xi)
        ny = yi + np.where(moves, slope * (nx - xi), 0.0) + back
        ny = np.where(moves & ~newton_ok | ~np.isfinite(ny), seed_at(nx, idx), ny)
        x[idx], y[idx] = nx, ny
        idx = idx[~done]
    # lanes still iterating or without a certified point did not converge; a
    # certified miss beyond what the stop rule leaves is a jump
    for i in np.union1d(idx, np.flatnonzero(np.isinf(best[0]))):
        failures[i] = failures[i] or NoConvergence("area refinement did not converge")
    for i in np.flatnonzero(~(best[0] <= np.abs(best[4]) * (
            1e-14 + XRTOL * np.abs(best_s1)) + np.abs(best[5]) * arcsmod.NEWTON_F_TOL)):
        failures[i] = failures[i] or NoArcAtArea(
            f"area misses the target by {best[0, i]:.3e} where the solve "
            "stopped: a jump, not a root")
    return np.where(alive(lanes), best[1], np.nan), failures


def oracle_pairs(curves, areas, n_s1: int) -> tuple:
    """Brute-force profile values at the (domain, area) pairs
    (curves[p], areas[p]), in one pass.

    Returns (values, errors): values[p] is the profile, or NaN where
    errors[p] holds the pair's refusal, the `IsoperimError` that
    `general_profile_oracle` raises for it; any other exception propagates.
    A circle-like domain takes `_circle_profile_value`. The other curves,
    each distinct object once (pairs that share a curve share its scan), are
    stacked by class (`PlaneBoundary.stack`), and each stack takes one pass
    (`_branch_pass`) whose every lane carries its domain index: the pass
    costs about as much as its slowest domain alone.
    """
    if n_s1 < 1:
        raise ValueError(f"n_s1 must be at least 1, got {n_s1}")
    if len(curves) != len(areas):
        raise ValueError(f"{len(curves)} curves but {len(areas)} areas")
    values, errors = np.full(len(areas), np.nan), [None] * len(areas)
    stacks = {}
    for p, (curve, area) in enumerate(zip(curves, areas)):
        try:
            total = curve.area()
            if not 0.0 < area < total:
                raise NoArcAtArea(f"target area {area} outside (0, {total:.6g})")
            if arcsmod.is_circle(curve):
                values[p] = _circle_profile_value(curve, area)
            else:
                stacks.setdefault(type(curve), {}).setdefault(id(curve), []).append(
                    (p, area, total))
        except IsoperimError as exc:
            errors[p] = exc
    for on_curve in stacks.values():
        asked = list(on_curve.values())
        found = _branch_pass([curves[pairs[0][0]] for pairs in asked],
                             [[(a, total) for _, a, total in pairs] for pairs in asked],
                             n_s1)
        for (p, _, _), (value, exc) in zip(
                (pair for pairs in asked for pair in pairs), found):
            values[p], errors[p] = value, exc
    return values, errors


def _branch_pass(domains, asked, n_s1) -> list:
    """(value, refusal) of every pair asked[j] = [(area, total area), ...] of
    domain j, in order, from one pass over the domains (curves of one class).

    Scans n_s1 slices of s1 over every boundary, finds every s2 root of the
    two-point function, the area of its arc and the branch slope ds2/ds1
    there, and matches roots across neighboring s1 into branches: each
    root's offset s2 − s1 is carried to slice i + 1 along its tangent and
    joined to the nearest root within 3 s1 steps of that prediction, on a
    padded (domain × slice × root) table. The slopes come from the table's
    own `arc_batch` sample (`_branch_slope`).
    An arc's complement has the same length and area |Ω| − A, so each
    branch segment whose end areas straddle a pair's area or its complement
    is refined, all of them in one `_refine_on_branch` call: a safeguarded
    Newton iteration on (f, A − target) in (s1, s2), with the exact partials
    of the arc kernel. A pair's value is the shortest of its
    refined arcs. Several domains share one stacked curve, one root scan,
    one table and one refinement; where the scan or the table fails, each
    domain takes a pass of its own, so a failure is its own domain's.
    Independent of every closed form in the package.
    """
    d = len(domains)
    curve = type(domains[0]).stack(domains)
    # half-step offset keeps s1 off symmetry axes, where partner roots are
    # even-order zeros of f(s1, ·) that a sign-change scan cannot see
    step = TWO_PI / n_s1
    s1_grid = (np.arange(n_s1) + 0.5) * step
    try:
        roots = arcsmod.scan_arc_roots(curve, s1_grid, domain=np.arange(d))
        counts = np.array([len(r) for r in roots]).reshape(d, n_s1)
        s1_all = np.repeat(np.tile(s1_grid, d), counts.ravel())
        s2_all = np.concatenate(roots)
        table = arcsmod.arc_batch(curve, s1_all, s2_all,
                                  np.repeat(np.arange(d), counts.sum(axis=1)))
        table.raise_first()
    except IsoperimError as exc:
        if d == 1:
            return [(np.nan, exc)] * len(asked[0])
        return [found for c, pairs in zip(domains, asked)
                for found in _branch_pass([c], [pairs], n_s1)]

    # a padded (domain × slice × root) table of root offsets s2 − s1, arc
    # areas and predicted offset drifts per unit s1; NaN offsets pad the
    # short slices
    valid = np.arange(counts.max(initial=1)) < counts[..., None]
    slope = _branch_slope(table)[0]
    offset, area, drift = (np.full(valid.shape, np.nan) for _ in range(3))
    offset[valid], area[valid] = s2_all - s1_all, table.area
    # where ∂f/∂s2 = 0 the slope is not finite: predict no drift there
    drift[valid] = np.where(np.isfinite(slope), slope - 1.0, 0.0)

    # match each root to the root of slice i + 1 nearest its tangent
    # prediction, within 3 s1 steps: the radius scales with the s1 step, not
    # the s2 scan step
    dist = np.abs(np.roll(offset, -1, axis=1)[:, :, None, :]
                  - (offset + step * drift)[..., None])
    dist[np.isnan(dist)] = np.inf
    dm, i, r = np.nonzero(np.min(dist, axis=3) < 3.0 * step)
    j, k = (i + 1) % n_s1, np.argmin(dist, axis=3)[dm, i, r]
    # each domain's targets, its pairs' areas and their complements, padded
    # with NaN; segments whose end areas straddle one, by (domain, slice, root)
    wanted = [list({t for a, total in pairs for t in (a, total - a)})
              for pairs in asked]
    targets = np.full((d, max(map(len, wanted))), np.nan)
    for row, ts in zip(targets, wanted):
        row[:len(ts)] = ts
    seg, which = np.nonzero((area[dm, i, r, None] - targets[dm])
                            * (area[dm, j, k, None] - targets[dm]) <= 0.0)
    dm, i, r, j, k = dm[seg], i[seg], r[seg], j[seg], k[seg]
    s1_a = s1_grid[i]
    segments = np.array([s1_a, s1_a + offset[dm, i, r], s1_a + step,
                         s1_a + step + offset[dm, j, k], targets[dm, which]])
    lengths, failures = _refine_on_branch(curve, *segments, dm)
    for (s1_a, _, s1_b, _, target), exc in zip(segments.T, failures):
        if exc is not None:
            log.debug("refinement dropped: %s on s1 in [%.17g, %.17g] "
                      "at area %.17g: %s", type(exc).__name__,
                      s1_a, s1_b, target, exc)
    out = []
    for jd, pairs in enumerate(asked):
        for a, total in pairs:
            mine = np.flatnonzero((dm == jd) & ((segments[4] == a)
                                                | (segments[4] == total - a)))
            if not np.all(np.isnan(lengths[mine])):
                out.append((float(np.nanmin(lengths[mine])), None))
                continue
            failed = Counter(type(failures[s]).__name__ for s in mine
                             if failures[s] is not None)
            causes = "".join(f", {n} {name}" for name, n in sorted(failed.items()))
            out.append((np.nan, NoArcAtArea(
                f"no arc family crossed area {a}; refine the grid "
                f"({len(mine)} refinements tried, {sum(failed.values())} "
                f"failed{causes})")))
    return out


def general_profile_oracle(curve: PlaneBoundary, target_area: float,
                           n_s1: int = N_S1) -> float:
    """Brute-force profile value: `oracle_pairs` on the one pair
    (curve, target_area), whose refusal it raises."""
    values, errors = oracle_pairs([curve], [target_area], n_s1)
    if errors[0] is not None:
        raise errors[0]
    return float(values[0])


# --------------------------------------------------------------------------
# small-area asymptotics
# --------------------------------------------------------------------------

def richardson_slope(profile_fn) -> float:
    """Extrapolated limit of (I(a) − √(2πa))/a as a → 0.

    The residual expands in powers of √a, so Neville extrapolation in
    x = √a to x = 0, from a = 1e-3, 1e-4 and 1e-5, removes the leading
    corrections.
    """
    areas = [1e-3, 1e-4, 1e-5]
    xs = [np.sqrt(a) for a in areas]
    coef = [(profile_fn(a) - np.sqrt(TWO_PI * a)) / a for a in areas]
    n = len(xs)
    for j in range(1, n):
        for i in range(n - j):
            coef[i] = (xs[i + j] * coef[i] - xs[i] * coef[i + 1]) / (xs[i + j] - xs[i])
    return float(coef[0])
