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
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import PchipInterpolator
from scipy.optimize import minimize_scalar

from . import arcs as arcsmod
from . import disk as diskmod
from ._roots import invert_monotone, invert_monotone_many
from .errors import (IsDisk, NoArcAtArea, NoConvergence, NotClassA, NotNormalized,
                     NumericalError)
from .geometry import PlaneBoundary, SupportCurve, TWO_PI, classify

HALF_PI = np.pi / 2.0
# the refinement's corrector bracket: the partner s2 stays this close to the
# partner interpolated along the branch segment
BRANCH_HALFWIDTH = 0.2

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


def require_class_a(curve: SupportCurve, allow_disk: bool = False):
    report = classify(curve)
    if report.is_disk:
        if allow_disk:
            return report
        raise IsDisk("domain is a disk")
    if not report.is_class_A:
        raise NotClassA("domain is not bi-axially symmetric with four vertices")
    if 1.0 / curve.rho(0.0) < 1.0 / curve.rho(HALF_PI):
        raise NotClassA("major axis must lie on the x-axis "
                        "(rotate the domain by pi/2)")
    return report


def _family_area_quadrature(curve: SupportCurve, theta_grid, n_fine: int = 16384):
    """Cumulative area from dA = (1/k)dL, as an independent cross-check.

    dA/dθ = y(Pρc² + Psy − 2yc)/c³ with P = π−2θ, c = cosθ, s = sinθ has a
    0/0 limit y(π/2)(2ρ(π/2) − 2y(π/2)/3) at the right endpoint (triple
    cancellation). Everything is evaluated in the offset t = π/2 − θ so the
    cancelling factors P = 2t and c = sin t carry relative, not absolute,
    rounding; the endpoint node itself uses the analytic limit.
    """
    t = np.linspace(0.0, HALF_PI, n_fine + 1)  # offset from pi/2
    theta_f = HALF_PI - t
    y = _upper_endpoint_height(curve, theta_f)
    rho = curve.rho_series(theta_f)
    c = np.sin(t)   # cos(theta)
    s = np.cos(t)   # sin(theta)
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


def symmetric_profile(curve: SupportCurve, n_samples: int = 256,
                      cross_check_tol: float = 1e-7) -> ProfileTable:
    """Profile table of the x-axis-symmetric arc family (class-A domains).

    Areas come from the Green-theorem arc construction and are cross-checked
    against the dA = (1/k)dL quadrature; lengths and curvatures are closed
    form in the support function.
    """
    require_class_a(curve, allow_disk=True)
    if abs(curve.area() - np.pi) > 1e-8:
        raise NotNormalized(f"area {curve.area():.12g} != pi; normalize first")

    theta = profile_grid(n_samples)
    length = _family_length(curve, theta)
    curvature = _family_curvature(curve, theta)

    arcs = arcsmod.arc_batch(curve, -theta, theta)
    arcs.raise_first()
    area = arcs.area

    check = _family_area_quadrature(curve, theta)
    worst = float(np.max(np.abs(check - area)))
    if worst > cross_check_tol:
        raise NumericalError(
            f"area cross-check failed: Green vs dA=(1/k)dL differ by {worst:.3e}")

    return ProfileTable(theta, area, length, curvature, curve.domain_id())


def family_area_at(curve: SupportCurve, theta: float) -> float:
    """Green-theorem area of the symmetric arc at half-angle theta."""
    return arcsmod.build_arc(curve, -theta, theta).enclosed_area


def family_theta_at_area(curve: SupportCurve, target: float,
                         tol: float = 1e-13) -> float:
    """Invert the monotone A(θ) of the symmetric family by Brent's method."""
    lo, hi = 1e-9, HALF_PI
    if not family_area_at(curve, lo) <= target <= curve.area() / 2.0 + 1e-12:
        raise NoArcAtArea(f"area {target} outside the symmetric family range")
    return invert_monotone(lambda th: family_area_at(curve, th) - target,
                           lo, hi, tol)


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
        return {
            "sup_ratio": self.sup_ratio,
            "argmax_area": self.argmax_area,
            "passed": self.passed,
            "margin": self.margin,
            "area_floor": self.area_floor,
            "stationarity_residual": self.stationarity_residual,
        }


def conjecture_check(curve: SupportCurve, n_samples: int = 256,
                     area_floor: float = 0.02) -> ConjectureReport:
    """sup L(A)/L*(A) over the symmetric family versus the unit disk.

    The ratio tends to 1 from below as A → 0 whenever κ_max > 1, so areas
    below `area_floor` are certified by the small-area expansion and the
    supremum is reported over [area_floor, π/2]; the profile symmetry covers
    the other half of the range.
    """
    report = require_class_a(curve, allow_disk=False)
    table = symmetric_profile(curve, n_samples)

    if report.kappa_max <= 1.0:
        raise NumericalError("kappa_max <= 1 for an area-pi non-disk domain; "
                             "Pestov-Ionin violated, geometry is inconsistent")
    # small-area regime: ratio ≈ (1 − s√(A/2π))/(1 − s*√(A/2π)), s > s* ⇔ κmax > 1
    slope_dom = 4.0 * report.kappa_max / (3.0 * np.pi)
    slope_disk = 4.0 / (3.0 * np.pi)
    for a_test in (area_floor / 2.0, area_floor / 10.0):
        expansion = ((1.0 - slope_dom * np.sqrt(a_test / TWO_PI))
                     / (1.0 - slope_disk * np.sqrt(a_test / TWO_PI)))
        if expansion >= 1.0:
            raise NumericalError("small-area expansion does not certify the "
                                 "ratio below the area floor")

    mask = table.area >= area_floor
    if not np.any(mask):
        raise NumericalError("area floor exceeds the sampled range")
    l_of_a = PchipInterpolator(table.area, table.length)

    def ratio(a):
        return float(l_of_a(a)) / diskmod.profile(float(a))

    a_samp = table.area[mask]
    r_samp = np.array([ratio(a) for a in a_samp])
    i_max = int(np.argmax(r_samp))
    lo = a_samp[max(0, i_max - 1)]
    hi = a_samp[min(len(a_samp) - 1, i_max + 1)]
    lo = max(lo, area_floor)
    res = minimize_scalar(lambda a: -ratio(a), bounds=(float(lo), float(hi)),
                          method="bounded",
                          options={"xatol": 1e-12 * max(1.0, float(hi))})
    a_star, r_star = float(res.x), -float(res.fun)
    if r_samp[i_max] > r_star:
        a_star, r_star = float(a_samp[i_max]), float(r_samp[i_max])

    span = float(a_samp[-1]) - area_floor
    interior = (a_star - area_floor > 1e-3 * span
                and float(a_samp[-1]) - a_star > 1e-3 * span)
    stationarity = None
    if interior:
        theta_dom = family_theta_at_area(curve, a_star)
        theta_disk = diskmod.area_to_theta(min(a_star, np.pi - a_star))
        stationarity = abs((np.pi - 2.0 * theta_dom) / (np.pi - 2.0 * theta_disk)
                           - r_star ** 2)

    return ConjectureReport(
        sup_ratio=float(r_star),
        argmax_area=float(a_star),
        passed=bool(r_star < 1.0),
        margin=float(1.0 - r_star),
        area_floor=float(area_floor),
        stationarity_residual=stationarity,
    )


# --------------------------------------------------------------------------
# general brute-force oracle
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleConfig:
    """Knobs for the arc-enumeration profile oracle."""

    n_s1: int = 96
    n_scan: int = 512
    exclusion: float = 1e-2
    circle_residual_tol: float = 1e-10


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


def _refine_on_branch(curve, s1_a, s2_a, s1_b, s2_b, target) -> tuple:
    """Lengths of the arcs at `target` area on branch segments whose end
    areas straddle it, one element per segment (the arguments broadcast).

    s2 is interpolated between each segment's ends and corrected onto f = 0,
    so the area is a function of s1, solved by one `invert_monotone_many`
    call over every segment: a segment whose end areas lie on one side of
    the target keeps the end nearer to it. A segment fails at the
    first s1 where the corrector fails (NoConvergence), the pair leaves the
    window 0 < hi − lo < 2π or s2 moves more than BRANCH_HALFWIDTH from its
    interpolated seed (NoArcAtArea), or `arc_batch` rejects the pair.
    Returns (length, failures): NaN length and, in `failures`, the exception
    of each failed segment; None where it succeeded.
    """
    s1_a, s2_a, s1_b, s2_b, target = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float))
          for v in (s1_a, s2_a, s1_b, s2_b, target)))
    slope = (s2_b - s2_a) / (s1_b - s1_a)
    failures = [None] * len(s1_a)

    def arcs_at(s1, lane):
        """(area, length) at s1 per lane; a failed lane is recorded and reads
        as a root, so that the solver retires it."""
        seed = s2_a[lane] + slope[lane] * (s1 - s1_a[lane])
        s2 = arcsmod._correct_s2(curve, s1, seed, BRANCH_HALFWIDTH)
        lo, hi = np.fmin(s1, s2), np.fmax(s1, s2)
        # a partner outside the corrector's bracket has jumped to another branch
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
        return area, length

    lanes = np.arange(len(s1_a))
    s1, status = invert_monotone_many(
        lambda s1, lane: arcs_at(s1, lane)[0] - target[lane], s1_a, s1_b, 1e-14,
        args=(lanes,))
    for i in np.flatnonzero(status < -1):
        failures[i] = failures[i] or NoConvergence("area refinement did not converge")
    ok = np.array([exc is None for exc in failures], dtype=bool)
    length = np.full(len(s1_a), np.nan)
    length[ok] = arcs_at(s1[ok], lanes[ok])[1]
    return length, failures


def general_profile_oracle(curve: PlaneBoundary, target_area: float,
                           config: OracleConfig = OracleConfig()) -> float:
    """Brute-force profile value: enumerate perfect arcs, refine at the area.

    Scans s1 over the boundary, finds every s2 root of the two-point
    function and the area of its arc, and matches roots across neighboring
    s1 into branches. An arc's complement has the same length and area
    |Ω| − A, so each branch segment whose end areas straddle the target or
    |Ω| − target is refined in s1; all of them in one `_refine_on_branch`
    call. Independent of every closed form in the package.
    """
    total = curve.area()
    if not 0.0 < target_area < total:
        raise NoArcAtArea(f"target area {target_area} outside (0, {total:.6g})")

    if arcsmod.max_two_point_residual(curve) < config.circle_residual_tol:
        return _circle_profile_value(curve, target_area)

    # half-step offset keeps s1 off symmetry axes, where partner roots are
    # even-order zeros of f(s1, ·) that a sign-change scan cannot see
    step = TWO_PI / config.n_s1
    s1_grid = (np.arange(config.n_s1) + 0.5) * step

    # per s1 slice: root offsets s2 - s1, arc areas
    roots = arcsmod.scan_arc_roots(curve, s1_grid, config.n_scan,
                                   config.exclusion)
    counts = [len(r) for r in roots]
    s1_all, s2_all = np.repeat(s1_grid, counts), np.concatenate(roots)
    table = arcsmod.arc_batch(curve, s1_all, s2_all)
    table.raise_first()
    split = np.cumsum(counts)[:-1]
    offsets, areas = np.split(s2_all - s1_all, split), np.split(table.area, split)

    # root offsets drift at up to |ds2/ds1 - 1| ~ 2 per unit of s1, so the
    # matching radius must scale with the s1 step, not the s2 scan step
    match_radius = 3.0 * step
    targets = {target_area, total - target_area}
    segments = []  # (s1_a, s2_a, s1_b, s2_b, target) straddling a target
    for i in range(config.n_s1):
        s1_a = float(s1_grid[i])
        for off_a, area_a in zip(offsets[i], areas[i]):
            for skip in (1, 2):  # bridge one missing slice on a branch
                j = (i + skip) % config.n_s1
                dist = np.abs(offsets[j] - off_a)
                if np.any(dist < match_radius * skip):
                    k = int(np.argmin(dist))
                    break
            else:
                continue
            s1_b, off_b, area_b = s1_a + skip * step, offsets[j][k], areas[j][k]
            segments += [(s1_a, s1_a + off_a, s1_b, s1_b + off_b, target)
                         for target in targets
                         if (area_a - target) * (area_b - target) <= 0.0]
    lengths, failures = np.full(len(segments), np.nan), [None] * len(segments)
    if segments:
        try:
            lengths, failures = _refine_on_branch(curve, *np.transpose(segments))
        except NumericalError as exc:
            failures = [exc] * len(segments)
    failed = Counter()
    for (s1_a, _, s1_b, _, target), exc in zip(segments, failures):
        if exc is not None:
            failed[type(exc).__name__] += 1
            log.debug("refinement dropped: %s on s1 in [%.17g, %.17g] "
                      "at area %.17g: %s", type(exc).__name__,
                      s1_a, s1_b, target, exc)
    if np.all(np.isnan(lengths)):
        causes = "".join(f", {n} {name}" for name, n in sorted(failed.items()))
        raise NoArcAtArea(
            f"no arc family crossed area {target_area}; refine the grid "
            f"({len(segments)} refinements tried, {sum(failed.values())} "
            f"failed{causes})")
    return float(np.nanmin(lengths))


# --------------------------------------------------------------------------
# small-area asymptotics
# --------------------------------------------------------------------------

def richardson_slope(profile_fn, areas=(1e-3, 1e-4, 1e-5)) -> float:
    """Extrapolated limit of (I(a) − √(2πa))/a as a → 0.

    The residual expands in powers of √a, so Neville extrapolation in
    x = √a to x = 0 removes the leading corrections.
    """
    areas = sorted((float(a) for a in areas), reverse=True)
    xs = [np.sqrt(a) for a in areas]
    coef = [(profile_fn(a) - np.sqrt(TWO_PI * a)) / a for a in areas]
    n = len(xs)
    for j in range(1, n):
        for i in range(n - j):
            coef[i] = (xs[i + j] * coef[i] - xs[i] * coef[i + 1]) / (xs[i + j] - xs[i])
    return float(coef[0])
