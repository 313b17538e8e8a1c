"""Free-boundary constant-curvature arcs in a convex domain.

An arc (or chord) meeting the boundary orthogonally at both endpoints is
certified by the two-point function f(s1, s2) = (C1 − C2)·(N1 + N2) = 0.
This module evaluates f and its arclength gradient, constructs the arc for
a certified endpoint pair, continues one-parameter families of arcs, and
builds the shrinking families that exist at non-degenerate vertices.

Endpoint parameters are boundary parameters (normal angle for support
curves, polar angle for radial curves) given as real numbers with
t_lo < t_hi; the enclosed region is bounded by the boundary sweep from t_lo
to t_hi (counterclockwise) and the arc closing the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize.elementwise import find_root

# before disk, else a full gc lands inside scipy's import and set-up slows
from ._roots import sign_change_roots
from . import disk as diskmod
from .errors import (CoincidentPoints, DegenerateGradient, DegenerateVertex,
                     NoConvergence, NormalsParallelButNotAligned, NotAVertex,
                     NotPerfect)
from .geometry import (PlaneBoundary, SupportCurve, TWO_PI, _is_disk_coeffs,
                       curvature_arclength_derivatives)

SEGMENT_NORMAL_TOL = 1e-8
NEWTON_F_TOL = 1e-12
NEWTON_MAX_ITER = 50
# grid points per block of the batched root scan; bounds its memory
SCAN_BLOCK_POINTS = 4096
XRTOL = 4.0 * np.finfo(float).eps  # brentq's default rtol


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


@dataclass(frozen=True, eq=False)
class PerfectArc:
    """Circular arc or segment orthogonal to the boundary at both ends."""

    kind: str                      # "circular" | "segment"
    center: Optional[np.ndarray]   # circular only
    radius: Optional[float]        # circular only
    curvature: float               # signed; 0 for segments
    endpoint_thetas: tuple         # (t_lo, t_hi) boundary parameters
    length: float
    enclosed_area: float
    contained: bool
    ortho_residual: float


@dataclass(frozen=True)
class TwoPointState:
    """Endpoint pair with the two-point value and arclength gradient."""

    s1: float
    s2: float
    f_value: float
    grad: tuple


def two_point_eval(curve: PlaneBoundary, s1, s2) -> tuple:
    """(f, ∂f/∂s1, ∂f/∂s2, speed at s1, speed at s2) from one boundary sample.

    f = (C1 − C2)·(N1 + N2). s1 and s2 broadcast against each other; each is
    sampled at its own shape. With outward normal N = (cos θ, sin θ) and T
    the CCW unit tangent, dC/ds = T and dN/ds = κT, so the arclength partials
    are
        ∂f/∂s1 = T1·N2 + κ1 (C1 − C2)·T1,
        ∂f/∂s2 = −T2·N1 + κ2 (C1 − C2)·T2.
    """
    s1, s2 = np.asarray(s1, dtype=float), np.asarray(s2, dtype=float)
    s = curve.sample(np.concatenate([s1.ravel(), s2.ravel()]))
    (c1, c2), (t1, t2), (n1, n2), (k1, k2), (w1, w2) = (
        (a[:s1.size].reshape(s1.shape + a.shape[1:]),
         a[s1.size:].reshape(s2.shape + a.shape[1:]))
        for a in (s.position, s.tangent, s.normal, s.curvature, s.speed))
    dot = lambda a, b: a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
    dc = c1 - c2
    return (dot(dc, n1 + n2), dot(t1, n2) + k1 * dot(dc, t1),
            -dot(t2, n1) + k2 * dot(dc, t2), w1, w2)


def _require_distinct(s1: float, s2: float):
    gap = (s1 - s2) % TWO_PI
    if min(gap, TWO_PI - gap) < 1e-14:
        raise CoincidentPoints(f"s1 = s2 = {s1} mod 2pi")


def two_point_f(curve: PlaneBoundary, s1: float, s2: float) -> float:
    """(C1 − C2)·(N1 + N2); zero (with N1 + N2 ≠ 0) certifies a circular arc."""
    _require_distinct(s1, s2)
    return float(two_point_eval(curve, s1, s2)[0])


def two_point_f_many(curve: PlaneBoundary, s1, s2_arr) -> np.ndarray:
    """Vectorized two-point values; s1 broadcasts against s2_arr."""
    return two_point_eval(curve, s1, s2_arr)[0]


def two_point_grad(curve: PlaneBoundary, s1: float, s2: float) -> tuple:
    """Arclength partials (∂f/∂s1, ∂f/∂s2) of the two-point function."""
    _, g1, g2, _, _ = two_point_eval(curve, s1, s2)
    return (float(g1), float(g2))


def two_point_state(curve: PlaneBoundary, s1: float, s2: float) -> TwoPointState:
    return TwoPointState(float(s1), float(s2),
                         two_point_f(curve, s1, s2),
                         two_point_grad(curve, s1, s2))


def is_degenerate_pair(curve: PlaneBoundary, s1: float, s2: float,
                       tol: float = 1e-9) -> bool:
    """Both arclength partials of f vanish (to tol; they are scale-free)."""
    g1, g2 = two_point_grad(curve, s1, s2)
    return abs(g1) < tol and abs(g2) < tol


def _wrap_mod_pi(x: float) -> float:
    """Wrap an angle into [-pi/2, pi/2)."""
    return (x + np.pi / 2.0) % np.pi - np.pi / 2.0


def _two_alpha_minus_sin(two_alpha: float) -> float:
    """2α − sin 2α with a series guard against cancellation near 0."""
    if abs(two_alpha) < 0.05:
        x = two_alpha
        return x ** 3 / 6.0 * (1.0 - x * x / 20.0 + x ** 4 / 840.0)
    return two_alpha - np.sin(two_alpha)


def build_arc(curve: PlaneBoundary, t_lo: float, t_hi: float,
              f_tol: float = 1e-8, contain_tol: float = 1e-9,
              check_containment: bool = True) -> PerfectArc:
    """Construct the perfect arc certified by f(t_lo, t_hi) ≈ 0.

    The enclosed region is the loop [boundary t_lo → t_hi, arc back]; its
    area comes from Green's theorem with the boundary leg integrated in
    closed form. The circular leg is built in the chord frame: with α the
    signed half-turning of the arc from the chord direction, the curvature
    is 2 sin α/|chord| (positive when the closing leg turns counterclockwise)
    and the length |chord|·α/sin α. This stays well-conditioned arbitrarily
    close to the straight-chord limit, where the center construction (the
    intersection of the boundary tangent lines) degenerates.
    """
    t_lo, t_hi = float(t_lo), float(t_hi)
    if not 0.0 < t_hi - t_lo < TWO_PI:
        raise ValueError("need t_lo < t_hi with t_hi - t_lo in (0, 2pi)")
    s = curve.sample(np.array([t_lo, t_hi], dtype=float))
    a_pt, b_pt = s.position[0], s.position[1]
    n_sum = s.normal[0] + s.normal[1]
    chord = a_pt - b_pt
    chord_len = float(np.hypot(*chord))
    c_hat = chord / chord_len

    f_val = float(np.dot(chord, n_sum))
    scale = max(chord_len, 1.0)
    if abs(f_val) > f_tol * scale:
        raise NotPerfect(f"two-point residual {f_val:.3e} exceeds {f_tol:.1e}")

    boundary_moment = curve.moment_between(t_lo, t_hi)

    if float(np.hypot(*n_sum)) < SEGMENT_NORMAL_TOL:
        # anti-parallel normals: perfect chord iff it runs along them
        if abs(_cross(c_hat, s.normal[0])) > SEGMENT_NORMAL_TOL:
            raise NormalsParallelButNotAligned(
                "normals anti-parallel but chord not aligned with them")
        area = 0.5 * (boundary_moment + _cross(b_pt, a_pt))
        ortho = float(max(abs(np.dot(s.tangent[0], c_hat)),
                          abs(np.dot(s.tangent[1], c_hat))))
        contained = (check_containment and
                     _sample_containment(curve, a_pt, b_pt, 0.0, contain_tol))
        return PerfectArc("segment", None, None, 0.0, (t_lo, t_hi),
                          chord_len, area, contained, ortho)

    # signed half-turning from both endpoint normals; they agree iff the
    # pair really bounds one circle (mod-pi midpoint handles the wrap seam)
    chord_ang = np.arctan2(c_hat[1], c_hat[0])
    alpha_a = _wrap_mod_pi(np.arctan2(s.normal[0][1], s.normal[0][0]) - chord_ang)
    alpha_b = _wrap_mod_pi(chord_ang - np.arctan2(s.normal[1][1], s.normal[1][0]))
    mismatch = _wrap_mod_pi(alpha_a - alpha_b)
    if abs(mismatch) > 1e-5:
        raise NotPerfect(f"endpoint turning angles differ by {mismatch:.3e}")
    alpha = _wrap_mod_pi(alpha_a - 0.5 * mismatch)
    if abs(alpha) < 1e-12:
        raise NormalsParallelButNotAligned("vanishing turning angle outside "
                                           "the segment branch")

    sin_a = np.sin(alpha)
    radius = chord_len / (2.0 * abs(sin_a))
    curvature = 2.0 * sin_a / chord_len
    length = chord_len * abs(alpha / sin_a)
    segment_bulge = chord_len ** 2 * _two_alpha_minus_sin(2.0 * alpha) / (8.0 * sin_a ** 2)
    area = 0.5 * (boundary_moment + _cross(b_pt, a_pt)) + segment_bulge

    t_arc_a = np.array([np.cos(chord_ang + alpha), np.sin(chord_ang + alpha)])
    t_arc_b = np.array([np.cos(chord_ang - alpha), np.sin(chord_ang - alpha)])
    ortho = float(max(abs(np.dot(t_arc_a, s.tangent[0])),
                      abs(np.dot(t_arc_b, s.tangent[1]))))
    rot_t_a = np.array([-t_arc_a[1], t_arc_a[0]])
    center = a_pt + radius * np.sign(alpha) * rot_t_a
    contained = (check_containment and
                 _sample_containment(curve, a_pt, b_pt, alpha, contain_tol))
    return PerfectArc("circular", center, radius, curvature, (t_lo, t_hi),
                      length, area, contained, ortho)


def _sample_containment(curve, a_pt, b_pt, alpha, tol, n: int = 33):
    """Test interior arc points against the boundary.

    Arc points are generated in the chord frame (no center involved): with
    β = |α| and ψ ∈ (−β, β),
    P(ψ) = M + d·(sin ψ/sin β)·ĉ − sign(α)·d·(cos ψ − cos β)/sin β·ĉ⊥,
    which keeps the sagitta on the side away from the circle center.
    """
    mid = 0.5 * (a_pt + b_pt)
    half = 0.5 * (a_pt - b_pt)
    if abs(alpha) < 1e-12:
        x = np.linspace(-1.0, 1.0, n + 2)[1:-1]
        pts = mid + np.outer(x, half)
        return curve.contains_many(pts, tol)
    perp = np.array([-half[1], half[0]])
    beta = abs(alpha)
    psi = np.linspace(-beta, beta, n + 2)[1:-1]
    along = np.sin(psi) / np.sin(beta)
    # cos ψ − cos β via product form, stable for small angles
    bulge = -np.sign(alpha) * (2.0 * np.sin((beta + psi) / 2.0)
                               * np.sin((beta - psi) / 2.0)) / np.sin(beta)
    pts = mid + np.outer(along, half) + np.outer(bulge, perp)
    return curve.contains_many(pts, tol)


# --------------------------------------------------------------------------
# root scanning (used by the profile oracle and the CLI)
# --------------------------------------------------------------------------

def scan_arc_roots(curve: PlaneBoundary, s1, n_scan: int = 512,
                   exclusion: float = 1e-2):
    """All s2 ∈ (s1, s1 + 2π) with f(s1, s2) = 0 and a genuine arc.

    s1 may be a 1-D array, giving one root list per slice; a scalar s1 gives
    its list alone. The (s1, s2) grid is scanned for sign changes in blocks
    of slices, and every bracket is refined in one Chandrupatla solve
    (`find_root`, the vectorized counterpart of `sign_change_roots`' rules).
    Crossings where the normals are anti-parallel are kept only if the chord
    is aligned with them (a perfect chord); otherwise f vanishes for the
    wrong reason and the root is spurious.
    """
    s1_arr = np.atleast_1d(np.asarray(s1, dtype=float))
    grid = s1_arr[:, None] + np.linspace(exclusion, TWO_PI - exclusion, n_scan)
    step = max(1, SCAN_BLOCK_POINTS // max(n_scan, 1))
    vals = np.concatenate([
        two_point_f_many(curve, s1_arr[i:i + step, None], grid[i:i + step])
        for i in range(0, len(s1_arr), step)])
    neg = vals < 0.0
    row, col = np.nonzero((vals[:, :-1] == 0.0) | (neg[:, :-1] != neg[:, 1:]))
    lo, hi = grid[row, col], grid[row, col + 1]
    f_lo, f_hi = vals[row, col], vals[row, col + 1]
    res = find_root(lambda x, s: two_point_f_many(curve, s, x), (lo, hi),
                    args=(s1_arr[row],),
                    tolerances=dict(xatol=1e-13, xrtol=XRTOL))
    if np.any(res.status < -1):
        raise NoConvergence("vectorized root refinement did not converge")
    # status -1: the solver's end values share a sign where the scan's did
    # not, so the root lies on a node to rounding; an exact zero stays put
    node = np.where(np.abs(f_lo) <= np.abs(f_hi), lo, hi)
    roots = np.where(f_lo == 0.0, lo, np.where(res.status == -1, node, res.x))
    s = curve.sample(np.concatenate([s1_arr[row], roots]))
    n1, n2 = np.split(s.normal, 2)
    chord = np.subtract(*np.split(s.position, 2))
    spurious = ((np.hypot(*(n1 + n2).T) < SEGMENT_NORMAL_TOL)
                & (np.abs(_cross(chord, n1))
                   > SEGMENT_NORMAL_TOL * np.hypot(*chord.T)))
    good = [[] for _ in s1_arr]
    for i, r in zip(row[~spurious], roots[~spurious]):
        if not good[i] or r - good[i][-1] > 1e-9:  # roots ascend per slice
            good[i].append(float(r))
    return good if np.ndim(s1) else good[0]


def max_two_point_residual(curve: PlaneBoundary, n: int = 24) -> float:
    """max |f| over a coarse endpoint-pair grid; ~0 exactly for circles."""
    t = np.linspace(0.0, TWO_PI, n, endpoint=False)[:, None]
    vals = two_point_f_many(curve, t, t + np.linspace(0.3, TWO_PI - 0.3, n))
    return float(np.max(np.abs(vals)))


# --------------------------------------------------------------------------
# continuation
# --------------------------------------------------------------------------

def _correct_s2(curve: PlaneBoundary, s1: float, s2_guess: float,
                bracket_halfwidth: float) -> float:
    """1-D Newton on s2 holding f(s1, ·) = 0, bracketing scan as fallback.

    Convergence is judged on the Newton step, not only on |f|: near a vertex
    ∂f/∂s2 scales like the cube of the endpoint offset, so a fixed |f| floor
    alone would leave the root orders of magnitude less accurate than it.
    """
    s2 = s2_guess
    best = (np.inf, s2)
    for _ in range(NEWTON_MAX_ITER):
        _require_distinct(s1, s2)
        f, _, g2, _, w2 = two_point_eval(curve, s1, s2)
        f, g2 = float(f), float(g2 * w2)  # to a parameter derivative
        if abs(f) < best[0]:
            best = (abs(f), s2)
        if f == 0.0:
            return s2
        if abs(g2) < 1e-300:
            break
        step = f / g2
        s2 -= step
        if abs(step) < 1e-14 * max(1.0, abs(s2)):
            f_end = two_point_f(curve, s1, s2)
            if abs(f_end) < best[0]:
                best = (abs(f_end), s2)
            break
    if best[0] < NEWTON_F_TOL:
        return best[1]
    # bracketing scan around the prediction
    grid = s2_guess + np.linspace(-bracket_halfwidth, bracket_halfwidth, 41)
    roots = sign_change_roots(lambda s: two_point_f(curve, s1, s), grid,
                              two_point_f_many(curve, s1, grid), 1e-14)
    if not roots:
        raise NoConvergence(f"corrector failed at s1={s1:.6f}")
    return roots[0]


def continue_family(curve: PlaneBoundary, seed: TwoPointState, steps: int,
                    ds: float) -> list:
    """Predictor-corrector continuation of the arc family through the seed.

    Steps s1 by ds and corrects s2 along f = 0. On a centered disk every
    pair satisfies f = 0 and the gradient vanishes identically, so the
    family is generated by the closed-form arcs instead (fixed midpoint,
    growing half-angle).
    """
    if isinstance(curve, SupportCurve) and _is_disk_coeffs(curve):
        return _disk_route(curve, seed, steps, ds)

    if abs(two_point_f(curve, seed.s1, seed.s2)) > 1e-8:
        raise NotPerfect("seed does not satisfy the two-point condition")
    if is_degenerate_pair(curve, seed.s1, seed.s2):
        raise DegenerateGradient("seed gradient vanishes; family not unique")

    arcs = []
    s1, s2 = seed.s1, seed.s2
    for _ in range(steps):
        _, g1, g2, w1, w2 = two_point_eval(curve, s1, s2)
        g1, g2 = float(g1 * w1), float(g2 * w2)  # to parameter derivatives
        if abs(g1) < 1e-12 and abs(g2) < 1e-12:
            break  # degenerate: stop early
        s1_next = s1 + ds
        slope = -g1 / g2 if abs(g2) > 1e-12 else 0.0
        s2_next = _correct_s2(curve, s1_next, s2 + slope * ds, 5.0 * abs(ds))
        s1, s2 = s1_next, s2_next
        sep = (s2 - s1) % TWO_PI
        if min(sep, TWO_PI - sep) < abs(ds) / 2.0:
            break  # family collapsed to a point
        lo, hi = (s1, s2) if s1 < s2 else (s2, s1)
        if hi - lo >= TWO_PI:
            break
        arcs.append(build_arc(curve, lo, hi))
    return arcs


def _disk_route(curve: SupportCurve, seed: TwoPointState, steps: int,
                ds: float) -> list:
    radius = curve.cos_coeffs[0]
    u = 0.5 * (seed.s1 + seed.s2)
    half = 0.5 * abs(seed.s1 - seed.s2)
    arcs = []
    for j in range(1, steps + 1):
        theta = half + j * ds
        if not 0.0 < theta < np.pi / 2.0:
            break
        base = diskmod.arc(u, theta)
        if radius == 1.0:
            arcs.append(base)
        else:
            arcs.append(PerfectArc(
                kind=base.kind,
                center=base.center * radius,
                radius=base.radius * radius,
                curvature=base.curvature / radius,
                endpoint_thetas=base.endpoint_thetas,
                length=base.length * radius,
                enclosed_area=base.enclosed_area * radius ** 2,
                contained=True,
                ortho_residual=0.0,
            ))
    return arcs


# --------------------------------------------------------------------------
# vertex families
# --------------------------------------------------------------------------

def _vertex_partners(curve: SupportCurve, vertex_theta: float,
                     offsets) -> list:
    """Endpoint pairs (t1, t2) of the arcs at arclength offsets s1 > 0 from a
    non-degenerate vertex (κ' = 0, κ'' ≠ 0).

    The partner offset solves f = 0, seeded by the quadratic expansion
    s2 ≈ −s1 − (κ'''/(5κ''))·s1².
    """
    k_s, k_ss, k_sss = curvature_arclength_derivatives(curve, vertex_theta)
    if abs(k_s) > 1e-8:
        raise NotAVertex(f"kappa'({vertex_theta:.6f}) = {k_s:.3e} != 0")
    if abs(k_ss) < 1e-8:
        raise DegenerateVertex(f"kappa'' = {k_ss:.3e} at the vertex")
    a2 = -k_sss / (5.0 * k_ss)
    pairs = []
    for s1 in offsets:
        if s1 <= 0.0:
            raise ValueError("s1 offsets must be positive")
        t1 = curve.theta_at_arclength(vertex_theta, s1)
        t2 = curve.theta_at_arclength(vertex_theta, -s1 + a2 * s1 * s1)
        pairs.append((t1, _correct_s2(curve, t1, t2, 0.5 * s1)))
    return pairs


def vertex_family(curve: SupportCurve, vertex_theta: float,
                  s1_grid: Sequence[float]) -> list:
    """Arcs shrinking to a non-degenerate vertex (κ' = 0, κ'' ≠ 0).

    s1_grid holds arclength offsets of the upper endpoint from the vertex.
    """
    curve.require_convex()
    offsets = sorted(float(x) for x in s1_grid)
    return [build_arc(curve, min(t1, t2), max(t1, t2))
            for t1, t2 in _vertex_partners(curve, vertex_theta, offsets)]


def vertex_partner_offset(curve: SupportCurve, vertex_theta: float,
                          s1: float) -> float:
    """Solved arclength offset s2 of the partner endpoint (for testing)."""
    [(_, t2)] = _vertex_partners(curve, vertex_theta, [float(s1)])
    return curve.arclength_between(vertex_theta, t2)
