"""Isoperimetric profiles and the profile-comparison check.

Two routes to the profile are implemented and cross-validated:

* `symmetric_profile` builds the family of arcs symmetric about the x-axis
  for a bi-axially symmetric domain (closed-form length, Green-theorem
  area), which upper-bounds the profile and is exact for the disk.
* `general_profile_oracle` enumerates all perfect arcs by scanning the
  two-point function, refines the family crossing a target area, and takes
  the minimum length — a brute-force oracle independent of any closed form.

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
from scipy.integrate import cumulative_simpson
from scipy.interpolate import PchipInterpolator
from scipy.optimize import minimize_scalar

from . import arcs as arcsmod
from . import disk as diskmod
from ._roots import XRTOL, invert_monotone_many
from .errors import (IsDisk, NoArcAtArea, NoConvergence, NotClassA, NotNormalized,
                     NumericalError)
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
    domain_id: str

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
    h = curve.h_series(theta)
    hp = curve._h_prime(theta)
    return h * np.sin(theta) + hp * np.cos(theta)


def _family_length(curve: SupportCurve, theta):
    """L(θ) = (π − 2θ)·y(θ)/cos θ, evaluated as (2t/sin t)·y with t = π/2 − θ."""
    theta = np.asarray(theta, dtype=float)
    y = _upper_endpoint_height(curve, theta)
    t = HALF_PI - theta
    fac = np.where(np.abs(t) < 1e-9, 2.0, 2.0 * t / np.where(t == 0, 1.0, np.sin(t)))
    return fac * y


def _family_curvature(curve: SupportCurve, theta):
    """k(θ) = cos θ / y(θ)."""
    theta = np.asarray(theta, dtype=float)
    return np.cos(theta) / _upper_endpoint_height(curve, theta)


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
    cum = cumulative_simpson(integrand, x=t, initial=0.0)
    total = float(cum[-1])
    # A(theta) integrates from the vertex: A = total − ∫_0^{pi/2-theta}
    offsets = HALF_PI - np.asarray(theta_grid, dtype=float)
    return total - PchipInterpolator(t, cum)(offsets)


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
    length = _family_length(curve, theta)
    curvature = _family_curvature(curve, theta)

    arcs = arcsmod.arc_batch(curve, -theta, theta)
    arcs.raise_first()
    area = arcs.area

    check = _family_area_quadrature(curve, theta)
    worst = float(np.max(np.abs(check - area)))
    if worst > AREA_CROSS_CHECK_TOL:
        raise NumericalError(
            f"area cross-check failed: Green vs dA=(1/k)dL differ by {worst:.3e}")

    return ProfileTable(theta, area, length, curvature, curve.domain_id())


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
    a_samp, l_of_a = table.area[j:], PchipInterpolator(table.area, table.length)
    # the disk's half-angles at the sampled areas and at the floor, one solve
    theta_disk = diskmod.area_to_theta(
        np.append(np.minimum(a_samp, np.pi - a_samp), AREA_FLOOR))
    i = int(np.argmax(l_of_a(a_samp) / diskmod.theta_to_length(theta_disk[:-1])))
    near = np.clip([i - 1, i + 1], 0, len(a_samp) - 1)
    # the interpolated ratio's maximum between the neighbours, sought in the
    # disk's half-angle θ*, where A* and L* are closed form
    res = minimize_scalar(lambda th: -float(l_of_a(diskmod.theta_to_area(th)))
                          / diskmod.theta_to_length(th), bounds=tuple(theta_disk[near]),
                          method="bounded", options={"xatol": 1e-12})
    a_star = diskmod.theta_to_area(float(res.x))
    # the family at a_star and at the floor, each bracketed by its table rows
    lo = [table.theta[j + near[0]], table.theta[j - 1] if j else 1e-9]
    theta_fam = _family_theta(curve, np.array([a_star, AREA_FLOOR]), lo,
                              [table.theta[j + near[1]], table.theta[j]])
    # exact ratios of the candidates: best sample, interpolated maximum, floor
    theta_dom = np.array([table.theta[j + i], *theta_fam])
    theta_star = np.array([theta_disk[i], res.x, theta_disk[-1]])
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
    so the arc at the target area comes from one bracketed solve over eight
    s1; the geometric construction (not the closed form) supplies lengths
    and areas. Sweeps below ~1e-6 are ill-conditioned (near-parallel tangent
    lines) and are never needed for the supported target range.
    """
    def arcs_at(s1, sweep):
        arcs = arcsmod.arc_batch(curve, s1, s1 + sweep)
        arcs.raise_first()
        return arcs

    s1 = np.linspace(0.0, TWO_PI, 8, endpoint=False)
    lo, hi = np.full(8, 1e-3), np.full(8, TWO_PI - 1e-3)
    while np.any(low := arcs_at(s1, lo).area > target):
        lo[low] *= 0.25
        if np.any(lo < 1e-6):
            raise NoArcAtArea(f"target area {target} too small to bracket")
    while np.any(high := arcs_at(s1, hi).area < target):
        hi[high] = TWO_PI - (TWO_PI - hi[high]) * 0.25
        if np.any(TWO_PI - hi < 1e-6):
            raise NoArcAtArea(f"target area {target} too large to bracket")
    sweep, status = invert_monotone_many(
        lambda w, s: arcs_at(s, w).area - target, lo, hi, 1e-13, args=(s1,))
    if np.any(status < -1):
        raise NoConvergence(f"circle sweep at area {target} did not converge")
    return float(np.min(arcs_at(s1, sweep).length))


def _branch_slope(curve, s1, s2):
    """ds2/ds1 = −(∂f/∂s1·w1)/(∂f/∂s2·w2) along f = 0 at each pair, from one
    `two_point_eval`; not finite where ∂f/∂s2 = 0."""
    _, g1, g2, w1, w2 = arcsmod.two_point_eval(curve, s1, s2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return -(g1 * w1) / (g2 * w2)


def _refine_on_branch(curve, s1_a, s2_a, s1_b, s2_b, target) -> tuple:
    """Lengths of the arcs at `target` area on branch segments whose end
    areas straddle it, one element per segment (the arguments broadcast).

    s2 is seeded by the cubic Hermite interpolant of each segment's end
    roots and their branch slopes ds2/ds1 (one `two_point_eval` of the 2·n
    ends), or by the chord between the ends where that interpolant is not
    finite or strays from the chord by more than BRANCH_HALFWIDTH / 2; the
    seed depends only on the segment and s1. The seed is corrected onto
    f = 0, so the area is a function of s1, solved by one
    `invert_monotone_many` call over every segment: a segment whose end
    areas lie on one side of the target keeps the end nearer to it. A
    segment fails at the first s1 where the corrector fails
    (NoConvergence), the pair leaves the window 0 < hi − lo < 2π or s2
    moves more than BRANCH_HALFWIDTH from its seed (NoArcAtArea), or
    `arc_batch` rejects the pair. It
    also fails (NoArcAtArea) where the solved area misses the target by more
    than the solve's accuracy: the bracket then closed on a jump in area.
    Returns (length, failures): NaN length and, in `failures`, the exception
    of each failed segment; None where it succeeded.
    """
    s1_a, s2_a, s1_b, s2_b, target = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float))
          for v in (s1_a, s2_a, s1_b, s2_b, target)))
    width = s1_b - s1_a
    slope = (s2_b - s2_a) / width
    # the branch's slopes ds2/ds1 at both ends, less the chord's
    bend_a, bend_b = np.reshape(_branch_slope(
        curve, np.concatenate([s1_a, s1_b]), np.concatenate([s2_a, s2_b])),
        (2, -1)) - slope
    failures = [None] * len(s1_a)

    def seed_at(s1, lane):
        """The cubic Hermite interpolant of the lane's end roots and slopes
        at s1, or the chord where it is not finite or strays from the chord
        by more than BRANCH_HALFWIDTH / 2."""
        line = s2_a[lane] + slope[lane] * (s1 - s1_a[lane])
        t = (s1 - s1_a[lane]) / width[lane]
        with np.errstate(invalid="ignore", over="ignore"):
            bend = width[lane] * t * (1.0 - t) * (
                (1.0 - t) * bend_a[lane] - t * bend_b[lane])
            keep = np.isfinite(bend) & (np.abs(bend) <= BRANCH_HALFWIDTH / 2.0)
        return line + np.where(keep, bend, 0.0)

    def arcs_at(s1, lane):
        """(area, length) at s1 per lane; a failed lane is recorded and reads
        as a root, so that the solver retires it."""
        seed = seed_at(s1, lane)
        s2 = arcsmod._correct_s2(curve, s1, seed)
        lo, hi = np.fmin(s1, s2), np.fmax(s1, s2)
        # a partner that left the window has jumped to another branch
        inside = ((hi - lo > 0.0) & (hi - lo < TWO_PI)
                  & (np.abs(s2 - seed) <= BRANCH_HALFWIDTH))
        arc = arcsmod.arc_batch(curve, lo[inside], hi[inside])
        area, length = np.full(s1.shape, np.nan), np.full(s1.shape, np.nan)
        area[inside], length[inside] = arc.area, arc.length
        bad = ~inside
        bad[inside] = arc.failure != 0
        for i in np.flatnonzero(bad):
            if np.isnan(s2[i]):
                exc = NoConvergence(f"corrector failed at s1={s1[i]:.6f}")
            elif not inside[i]:
                exc = NoArcAtArea("branch left the parameter window")
            else:
                exc = arc.error(np.count_nonzero(inside[:i]))
            failures[lane[i]] = failures[lane[i]] or exc
        area[bad], length[bad] = target[lane[bad]], np.nan
        return area, length, s2

    lanes = np.arange(len(s1_a))
    s1, status = invert_monotone_many(
        lambda s1, lane: arcs_at(s1, lane)[0] - target[lane], s1_a, s1_b, 1e-14,
        args=(lanes,))
    for i in np.flatnonzero(status < -1):
        failures[i] = failures[i] or NoConvergence("area refinement did not converge")
    ok = np.flatnonzero([exc is None for exc in failures])
    area, length, s2 = arcs_at(np.concatenate([s1[ok], s1_a[ok], s1_b[ok]]),
                               np.tile(ok, 3))
    area, area_a, area_b = np.split(area, 3)
    s1, s2 = s1[ok], s2[:len(ok)]
    # The solve leaves s1 within xatol + xrtol·|s1| of the root, worth the
    # branch's |dA/ds1| times that in area; the corrector leaves |f| up to
    # NEWTON_F_TOL, worth |∂A/∂f| at fixed s1 times that (from a √eps step
    # in s2). A larger miss is a jump in area across the target.
    arc, moved = (arcsmod.arc_batch(curve, np.fmin(s1, x), np.fmax(s1, x))
                  for x in (s2, s2 + np.sqrt(np.finfo(float).eps)))
    with np.errstate(divide="ignore", invalid="ignore"):
        da_df = (moved.area - arc.area) / (moved.residual - arc.residual)
    miss = np.abs(area - target[ok])
    jump = miss > (np.abs(area_b - area_a) / (s1_b[ok] - s1_a[ok])
                   * (1e-14 + XRTOL * np.abs(s1))
                   + np.abs(da_df) * arcsmod.NEWTON_F_TOL)
    for i, m in zip(ok[jump], miss[jump]):
        failures[i] = NoArcAtArea(f"area misses the target by {m:.3e} "
                                  "where the solve stopped: a jump, not a root")
    out = np.full(len(s1_a), np.nan)
    out[ok] = np.where(jump, np.nan, length[:len(ok)])
    return out, failures


def general_profile_oracle(curve: PlaneBoundary, target_area: float,
                           n_s1: int = N_S1) -> float:
    """Brute-force profile value: enumerate perfect arcs, refine at the area.

    Scans n_s1 slices of s1 over the boundary, finds every s2 root of the two-point
    function, the area of its arc and the branch slope ds2/ds1 there, and
    matches roots across neighboring s1 into branches: each root's offset
    s2 − s1 is carried to slice i + 1 along its tangent and joined to the
    nearest root within 3 s1 steps of that prediction (or, failing that, to
    slice i + 2 within 6 steps), on a padded (slice × root) table. An arc's
    complement has the same length and area |Ω| − A, so each branch segment
    whose end areas straddle the target or |Ω| − target is refined in s1;
    all of them in one `_refine_on_branch` call. Independent of every
    closed form in the package.
    """
    if n_s1 < 1:
        raise ValueError(f"n_s1 must be at least 1, got {n_s1}")
    total = curve.area()
    if not 0.0 < target_area < total:
        raise NoArcAtArea(f"target area {target_area} outside (0, {total:.6g})")

    if arcsmod.is_circle(curve):
        return _circle_profile_value(curve, target_area)

    # half-step offset keeps s1 off symmetry axes, where partner roots are
    # even-order zeros of f(s1, ·) that a sign-change scan cannot see
    step = TWO_PI / n_s1
    s1_grid = (np.arange(n_s1) + 0.5) * step

    # a padded (slice × root) table of root offsets s2 − s1, arc areas and
    # predicted offset drifts per unit s1; NaN offsets pad the short slices
    roots = arcsmod.scan_arc_roots(curve, s1_grid)
    counts = np.array([len(r) for r in roots])
    valid = np.arange(counts.max(initial=1)) < counts[:, None]
    s1_all, s2_all = np.repeat(s1_grid, counts), np.concatenate(roots)
    table = arcsmod.arc_batch(curve, s1_all, s2_all)
    table.raise_first()
    slope = _branch_slope(curve, s1_all, s2_all)
    offset, area, drift = (np.full(valid.shape, np.nan) for _ in range(3))
    offset[valid], area[valid] = s2_all - s1_all, table.area
    # where ∂f/∂s2 = 0 the slope is not finite: predict no drift there
    drift[valid] = np.where(np.isfinite(slope), slope - 1.0, 0.0)

    # match each root to the root nearest its tangent prediction at slice
    # i + skip; offsets drift at up to |ds2/ds1 - 1| ~ 2 per unit of s1, so
    # the radius scales with the s1 step, not the s2 scan step
    match_radius = 3.0 * step
    partner, skip = np.full(valid.shape, -1), np.zeros(valid.shape, dtype=int)
    for ahead in (1, 2):  # bridge one missing slice on a branch
        dist = np.abs(np.roll(offset, -ahead, axis=0)[:, None, :]
                      - (offset + ahead * step * drift)[..., None])
        dist[np.isnan(dist)] = np.inf
        k = np.argmin(dist, axis=2)
        hit = (partner < 0) & (np.min(dist, axis=2) < match_radius * ahead)
        partner[hit], skip[hit] = k[hit], ahead
    i, r = np.nonzero(partner >= 0)
    j, k = (i + skip[i, r]) % n_s1, partner[i, r]
    # segments whose end areas straddle a target, ordered by (slice, root)
    targets = np.array(list({target_area, total - target_area}))
    seg, which = np.nonzero((area[i, r, None] - targets)
                            * (area[j, k, None] - targets) <= 0.0)
    i, r, j, k = i[seg], r[seg], j[seg], k[seg]
    s1_a = s1_grid[i]
    s1_b = s1_a + skip[i, r] * step
    segments = np.array([s1_a, s1_a + offset[i, r], s1_b, s1_b + offset[j, k],
                         targets[which]])
    n_seg = segments.shape[1]
    lengths, failures = np.full(n_seg, np.nan), [None] * n_seg
    if n_seg:
        try:
            lengths, failures = _refine_on_branch(curve, *segments)
        except NumericalError as exc:
            failures = [exc] * n_seg
    failed = Counter()
    for (s1_a, _, s1_b, _, target), exc in zip(segments.T, failures):
        if exc is not None:
            failed[type(exc).__name__] += 1
            log.debug("refinement dropped: %s on s1 in [%.17g, %.17g] "
                      "at area %.17g: %s", type(exc).__name__,
                      s1_a, s1_b, target, exc)
    if np.all(np.isnan(lengths)):
        causes = "".join(f", {n} {name}" for name, n in sorted(failed.items()))
        raise NoArcAtArea(
            f"no arc family crossed area {target_area}; refine the grid "
            f"({n_seg} refinements tried, {sum(failed.values())} "
            f"failed{causes})")
    return float(np.nanmin(lengths))


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
