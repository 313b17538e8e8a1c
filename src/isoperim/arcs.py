"""Free-boundary constant-curvature arcs in a convex domain.

An arc (or chord) meeting the boundary orthogonally at both endpoints is
certified by the two-point function f(s1, s2) = (C1 − C2)·(N1 + N2) = 0.
This module evaluates f and its arclength gradient, constructs the arc for
a certified endpoint pair, continues one-parameter families of arcs, and
builds the shrinking families that exist at non-degenerate vertices.

f also vanishes at anti-parallel normals, so the root scan searches
h = (C1 − C2)·(T1 − T2) = f·tan(Δ/2) (Δ the normal turning from s1 to s2),
on one boundary sample of nodes that hold every s1; f stays the certificate.

Endpoint parameters are boundary parameters (normal angle for support
curves, polar angle for radial curves) given as real numbers with
t_lo < t_hi; the enclosed region is bounded by the boundary sweep from t_lo
to t_hi (counterclockwise) and the arc closing the loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import disk as diskmod
from ._roots import sign_change_roots
from .errors import (CoincidentPoints, DegenerateGradient, DegenerateVertex,
                     NoConvergence, NormalsParallelButNotAligned, NotAVertex,
                     NotPerfect)
from .geometry import (CurveSamples, PlaneBoundary, SupportCurve, TWO_PI,
                       _curvature_jet, _is_disk_coeffs)

SEGMENT_NORMAL_TOL = 1e-8
# |f| an endpoint pair may leave, per unit of max(chord, 1), and still be perfect
ARC_F_TOL = 1e-8
NEWTON_F_TOL = 1e-12
NEWTON_MAX_ITER = 50
# boundary nodes per turn of the root scan, at least
SCAN_POINTS = 512
# max |f| below which a boundary counts as a circle (f ≡ 0 there), per unit
# of the radius √(|Ω|/π) of the disk of equal area
CIRCLE_RESIDUAL_TOL = 1e-10


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


def two_point_eval(curve: PlaneBoundary, s1, s2, domain=0) -> tuple:
    """(f, ∂f/∂s1, ∂f/∂s2, speed at s1, speed at s2) from one boundary sample.

    f = (C1 − C2)·(N1 + N2). s1 and s2 broadcast against each other; each is
    sampled at its own shape, at the domain index `domain`, which broadcasts
    against both (a lone curve ignores it; see `PlaneBoundary`). With outward
    normal N = (cos θ, sin θ) and T the CCW unit tangent, dC/ds = T and
    dN/ds = κT, so the arclength partials are
        ∂f/∂s1 = T1·N2 + κ1 (C1 − C2)·T1,
        ∂f/∂s2 = −T2·N1 + κ2 (C1 − C2)·T2.
    """
    s1, s2 = np.asarray(s1, dtype=float), np.asarray(s2, dtype=float)
    # an index array at each end's shape (a sum is a third of np.broadcast_to's
    # cost); a scalar holds for both ends as it is
    dom = domain if np.ndim(domain) == 0 else np.concatenate(
        [(np.zeros(x.shape, dtype=int) + domain).ravel() for x in (s1, s2)])
    s = curve.sample(np.concatenate([s1.ravel(), s2.ravel()]), dom)
    (c1, c2), (t1, t2), (n1, n2), (k1, k2), (w1, w2) = (
        (a[:s1.size].reshape(s1.shape + a.shape[1:]),
         a[s1.size:].reshape(s2.shape + a.shape[1:]))
        for a in (s.position, s.tangent, s.normal, s.curvature, s.speed))
    return (*_two_point_terms(c1, c2, t1, t2, n1, n2, k1, k2), w1, w2)


def _dot(a, b):
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def _two_point_terms(c1, c2, t1, t2, n1, n2, k1, k2) -> tuple:
    """(f, ∂f/∂s1, ∂f/∂s2) from the sampled points, tangents, normals and
    curvatures at both ends (see `two_point_eval`)."""
    dc = c1 - c2
    return (_dot(dc, n1 + n2), _dot(t1, n2) + k1 * _dot(dc, t1),
            -_dot(t2, n1) + k2 * _dot(dc, t2))


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


def _wrap_mod_pi(x):
    """Wrap an angle into [-pi/2, pi/2)."""
    return (x + np.pi / 2.0) % np.pi - np.pi / 2.0


def _two_alpha_minus_sin(two_alpha):
    """2α − sin 2α with a series guard against cancellation near 0."""
    x = np.asarray(two_alpha, dtype=float)
    series = x ** 3 / 6.0 * (1.0 - x * x / 20.0 + x ** 4 / 840.0)
    return np.where(np.abs(x) < 0.05, series, x - np.sin(x))


# ArcBatch.failure codes: (exception type, message) that build_arc raises
ARC_FAILURES = (
    None,
    (NotPerfect, "two-point residual {residual:.3e} exceeds {f_tol:.1e}"),
    (NormalsParallelButNotAligned,
     "normals anti-parallel but chord not aligned with them"),
    (NotPerfect, "endpoint turning angles differ by {mismatch:.3e}"),
    (NormalsParallelButNotAligned,
     "vanishing turning angle outside the segment branch"),
)


class ArcBatch(NamedTuple):
    """`build_arc`'s chord-frame quantities, one element per endpoint pair,
    and the boundary sample they came from.

    Elements with a nonzero `failure` (an index into ARC_FAILURES) are not
    arcs; their other entries are meaningless.
    """

    failure: np.ndarray
    segment: np.ndarray     # bool: anti-parallel normals, a straight chord
    residual: np.ndarray    # two-point value f
    mismatch: np.ndarray    # endpoint turning-angle difference
    alpha: np.ndarray       # signed half-turning from the chord; 0 on segments
    chord_len: np.ndarray
    chord_ang: np.ndarray
    curvature: np.ndarray
    length: np.ndarray
    area: np.ndarray
    ortho: np.ndarray       # max |arc tangent · boundary tangent| at the ends
    a_pt: np.ndarray        # shape (n, 2): boundary point at t_lo
    b_pt: np.ndarray
    turning: np.ndarray     # signed half-turning, kept on segments too
    sample: CurveSamples    # shape (2, n): the boundary at t_lo (row 0), at t_hi

    def error(self, i: int):
        """The exception `build_arc` raises for element i, or None."""
        code = int(self.failure[i])
        if not code:
            return None
        kind, message = ARC_FAILURES[code]
        return kind(message.format(residual=self.residual[i],
                                   mismatch=self.mismatch[i], f_tol=ARC_F_TOL))

    def raise_first(self):
        """Raise the first element's failure, if any element failed."""
        bad = np.flatnonzero(self.failure)
        if bad.size:
            raise self.error(bad[0])

    def pair_partials(self) -> tuple:
        """Parameter partials of f (`residual`) and of `area` in each end,
        from the batch's own sample: (∂f/∂t_lo, ∂f/∂t_hi, ∂A/∂t_lo, ∂A/∂t_hi).

        A = base + c²g(τ), with c = |a − b| along ĉ, τ the `turning` and
        g(τ) = (2τ − sin 2τ)/(8 sin²τ). Per unit of arclength the base
        (boundary leg and chord) moves by ½(b − a)×T at either end, c by
        ±ĉ·T, and τ, half the turning of the normal from b to a, by ±κ/2, so
            ∂A/∂s_lo = ½(b − a)×T_a + 2c·g·(ĉ·T_a) + c²g′(τ)κ_a/2,
            ∂A/∂s_hi = ½(b − a)×T_b − 2c·g·(ĉ·T_b) − c²g′(τ)κ_b/2,
        with g′(τ) = ½ − cos τ (2τ − sin 2τ)/(4 sin³τ) → 1/6 + τ²/15 as τ → 0.
        """
        s = self.sample
        (ta, tb), (ka, kb), (wa, wb) = s.tangent, s.curvature, s.speed
        _, f_lo, f_hi = _two_point_terms(self.a_pt, self.b_pt, ta, tb, *s.normal, ka, kb)
        tau, chord = self.turning, self.a_pt - self.b_pt
        small = np.abs(tau) < 1e-4
        t = np.where(small, 1.0, tau)  # the series covers the 0/0 at τ = 0
        u, sin_t = _two_alpha_minus_sin(2.0 * t), np.sin(t)
        g = np.where(small, tau / 6.0 + tau ** 3 / 45.0, u / (8.0 * sin_t ** 2))
        dg = np.where(small, 1.0 / 6.0 + tau ** 2 / 15.0,
                      0.5 - np.cos(t) * u / (4.0 * sin_t ** 3))
        bend = 0.5 * self.chord_len ** 2 * dg
        a_lo = -0.5 * _cross(chord, ta) + 2.0 * g * _dot(chord, ta) + bend * ka
        a_hi = -0.5 * _cross(chord, tb) - 2.0 * g * _dot(chord, tb) - bend * kb
        return f_lo * wa, f_hi * wb, a_lo * wa, a_hi * wb


def arc_batch(curve: PlaneBoundary, t_lo, t_hi, domain=0) -> ArcBatch:
    """Arc kernel: the perfect arcs certified by f(t_lo, t_hi) ≈ 0, on arrays.

    The enclosed region is the loop [boundary t_lo → t_hi, arc back]; its
    area comes from Green's theorem with the boundary leg integrated in
    closed form. The circular leg is built in the chord frame: with α the
    signed half-turning of the arc from the chord direction, the curvature
    is 2 sin α/|chord| (positive when the closing leg turns counterclockwise)
    and the length |chord|·α/sin α. This stays well-conditioned arbitrarily
    close to the straight-chord limit, where the center construction (the
    intersection of the boundary tangent lines) degenerates. t_lo and t_hi
    are scalars or 1-D arrays of one length; callers keep
    0 < t_hi − t_lo < 2π. Pair i lies on domain i of `domain`, which
    broadcasts against them (a lone curve ignores it; see `PlaneBoundary`).
    """
    t_lo = np.atleast_1d(np.asarray(t_lo, dtype=float))
    t_hi = np.atleast_1d(np.asarray(t_hi, dtype=float))
    if t_lo.shape != t_hi.shape:
        raise ValueError("t_lo and t_hi must have one length")
    s = curve.sample(np.concatenate([t_lo, t_hi]).reshape(2, -1), domain)
    (a_pt, b_pt), (na, nb), (ta, tb) = s.position, s.normal, s.tangent
    n_sum = na + nb
    chord = a_pt - b_pt
    chord_len = np.hypot(chord[:, 0], chord[:, 1])
    # failed lanes (a zero chord or sin α) carry inf/nan; `failure` flags them
    with np.errstate(divide="ignore", invalid="ignore"):
        c_hat = chord / chord_len[:, None]
        residual = chord[:, 0] * n_sum[:, 0] + chord[:, 1] * n_sum[:, 1]
        not_perfect = np.abs(residual) > ARC_F_TOL * np.maximum(chord_len, 1.0)
        base_area = 0.5 * (curve.moment_between(t_lo, t_hi, domain) + _cross(b_pt, a_pt))

        # anti-parallel normals: perfect chord iff it runs along them
        segment = np.hypot(n_sum[:, 0], n_sum[:, 1]) < SEGMENT_NORMAL_TOL
        misaligned = segment & (np.abs(_cross(c_hat, na)) > SEGMENT_NORMAL_TOL)

        # signed half-turning from both endpoint normals; they agree iff the
        # pair really bounds one circle (mod-pi midpoint handles the wrap seam)
        chord_ang = np.arctan2(c_hat[:, 1], c_hat[:, 0])
        alpha_a = _wrap_mod_pi(np.arctan2(na[:, 1], na[:, 0]) - chord_ang)
        alpha_b = _wrap_mod_pi(chord_ang - np.arctan2(nb[:, 1], nb[:, 0]))
        mismatch = _wrap_mod_pi(alpha_a - alpha_b)
        turning = _wrap_mod_pi(alpha_a - 0.5 * mismatch)
        alpha = np.where(segment, 0.0, turning)
        turned = ~segment & (np.abs(mismatch) > 1e-5)
        flat = ~segment & (np.abs(alpha) < 1e-12)
        failure = np.where(not_perfect, 1, np.where(
            misaligned, 2, np.where(turned, 3, np.where(flat, 4, 0))))

        sin_a = np.sin(alpha)  # 0 on segments, so their curvature is 0
        curvature = 2.0 * sin_a / chord_len
        length = np.where(segment, chord_len, chord_len * np.abs(alpha / sin_a))
        # a segment keeps the sliver of its (tiny) turning, so the area is
        # continuous where the branch enters |N1 + N2| < SEGMENT_NORMAL_TOL
        bulge = (chord_len ** 2 * _two_alpha_minus_sin(2.0 * turning)
                 / (8.0 * np.sin(turning) ** 2))
        area = base_area + np.where(turning == 0.0, 0.0, bulge)
        # the arc leaves a at chord angle + α and meets b at chord angle − α
        ang_a, ang_b = chord_ang + alpha, chord_ang - alpha
        ortho = np.maximum(
            np.abs(np.cos(ang_a) * ta[:, 0] + np.sin(ang_a) * ta[:, 1]),
            np.abs(np.cos(ang_b) * tb[:, 0] + np.sin(ang_b) * tb[:, 1]))
    return ArcBatch(failure, segment, residual, mismatch, alpha, chord_len,
                    chord_ang, curvature, length, area, ortho, a_pt, b_pt,
                    turning, s)


def build_arc(curve: PlaneBoundary, t_lo: float, t_hi: float) -> PerfectArc:
    """Construct the perfect arc certified by f(t_lo, t_hi) ≈ 0: `build_arcs`
    on the one pair."""
    t_lo, t_hi = float(t_lo), float(t_hi)
    if not 0.0 < t_hi - t_lo < TWO_PI:
        raise ValueError("need t_lo < t_hi with t_hi - t_lo in (0, 2pi)")
    return build_arcs(curve, [t_lo], [t_hi])[0]


def build_arcs(curve: PlaneBoundary, t_lo, t_hi) -> list:
    """The perfect arc of each endpoint pair (t_lo[i], t_hi[i]), all from one
    `arc_batch`, plus each circle's center and one test of interior arc
    points against the boundary. Raises the first element's failure."""
    arc = arc_batch(curve, t_lo, t_hi)
    arc.raise_first()
    contained = _sample_containment(curve, arc.a_pt, arc.b_pt, arc.alpha)
    out = []
    for i, ends in enumerate(zip(map(float, t_lo), map(float, t_hi))):
        a_pt, b_pt, alpha = arc.a_pt[i], arc.b_pt[i], float(arc.alpha[i])
        common = dict(curvature=float(arc.curvature[i]), endpoint_thetas=ends,
                      length=float(arc.length[i]), enclosed_area=float(arc.area[i]),
                      contained=bool(contained[i]), ortho_residual=float(arc.ortho[i]))
        if arc.segment[i]:
            out.append(PerfectArc("segment", None, None, **common))
            continue
        chord_len, chord_ang = float(arc.chord_len[i]), float(arc.chord_ang[i])
        radius = chord_len / (2.0 * abs(np.sin(alpha)))
        rot_t_a = np.array([-np.sin(chord_ang + alpha), np.cos(chord_ang + alpha)])
        center = a_pt + radius * np.sign(alpha) * rot_t_a
        out.append(PerfectArc("circular", center, radius, **common))
    return out


def _sample_containment(curve, a_pt, b_pt, alpha) -> np.ndarray:
    """Test 33 interior points of each arc (a_pt[i], b_pt[i], alpha[i])
    against the boundary, all in one `contains_many` call: one verdict per arc.

    Arc points are generated in the chord frame (no center involved): with
    β = |α| and ψ ∈ (−β, β),
    P(ψ) = M + d·(sin ψ/sin β)·ĉ − sign(α)·d·(cos ψ − cos β)/sin β·ĉ⊥,
    which keeps the sagitta on the side away from the circle center. A
    straight chord (α = 0) is the limit β → 0, which a floor on β reaches:
    evenly spaced points and no bulge.
    """
    n = 33
    mid = 0.5 * (a_pt + b_pt)[:, None]
    half = 0.5 * (a_pt - b_pt)[:, None]
    perp = np.stack([-half[..., 1], half[..., 0]], axis=-1)
    beta = np.maximum(np.abs(alpha), 1e-300)
    psi = np.linspace(-beta, beta, n + 2, axis=1)[:, 1:-1]
    beta = beta[:, None]
    along = np.sin(psi) / np.sin(beta)
    # cos ψ − cos β via product form, stable for small angles
    bulge = -np.sign(alpha)[:, None] * (
        2.0 * np.sin((beta + psi) / 2.0) * np.sin((beta - psi) / 2.0)) / np.sin(beta)
    pts = mid + along[..., None] * half + bulge[..., None] * perp
    return curve.contains_many(pts)


# --------------------------------------------------------------------------
# root scanning (used by the profile oracle and the CLI)
# --------------------------------------------------------------------------

def scan_arc_roots(curve: PlaneBoundary, s1, n_scan: int = SCAN_POINTS,
                   domain=0) -> tuple:
    """All s2 ∈ (s1, s1 + 2π) with f(s1, s2) = 0 and a genuine arc, as the
    flat table (row, s2): row j·n + k is slice k of domain[j], so a root's s1
    is s1[row % n] and its domain domain[row // n]; rows, then s2, ascend.

    s1 holds n slices spaced 2π/n apart (a scalar is one slice). The scan
    runs on h (see the module docstring) over N uniform nodes that hold
    every s1, s1[k] + 2πj/N for j < N/n, with N the smallest multiple of n at
    or above n_scan (576 for 96 slices). One `curve.sample` gives h on every
    node pair; each slice scans the other N − 1 nodes in turn, and
    `sign_change_roots` refines every sign-changing cell on that one
    (n, N − 1) grid, reading the s1 end from the sample and sampling only
    s2. `domain` lists the domains to scan (see `PlaneBoundary`), all in that
    one sample and one solve.
    """
    s1 = np.atleast_1d(np.asarray(s1, dtype=float))
    n = len(s1)
    if np.any(np.abs(np.diff(s1) - TWO_PI / n) > 1e-9):
        raise ValueError("s1 slices must be spaced 2pi/n apart")
    per = max(1, -(-n_scan // n))  # nodes per slice
    nodes = (s1[:, None] + TWO_PI * np.arange(per) / (n * per)).ravel()
    dom = np.atleast_1d(domain)
    m, d = len(nodes), len(dom)
    s = curve.sample(np.broadcast_to(nodes, (d, m)), dom[:, None])
    # centred per domain: h is translation-invariant, and its expansion
    # rounds at |P|
    p, t = s.position - np.mean(s.position, axis=1, keepdims=True), s.tangent
    a, at = np.einsum("xij,xij->xi", p, t), np.arange(n) * per

    def turn(x, shift=0.0):
        """Domain i, row k, column c: x at node k·per + 1 + c, counted
        around the turn."""
        x = np.concatenate([x, x + shift], axis=1)[:, 1:]
        return sliding_window_view(x, m - 1, axis=1)[:, ::per][:, :n]

    # h_kj = a_k + a_j − P_k·T_j − T_k·P_j, with a = P·T
    vals = np.einsum("xkd,xkdc->xkc", p[:, at], turn(t))
    vals += np.einsum("xkd,xkdc->xkc", t[:, at], turn(p))
    np.subtract(turn(a), vals, out=vals)
    vals += a[:, at, None]

    def h(x, row):  # at (s1[k], x) on domain j, the s1 end read from the sample
        j, k = np.divmod(row, n)
        end = curve.sample(x, dom[j])
        i = j, at[k]
        return _dot(s.position[i] - end.position, s.tangent[i] - end.tangent)

    row, s2 = sign_change_roots(h, turn(nodes[None], TWO_PI)[0],
                                vals.reshape(d * n, m - 1), 1e-13)
    # an exact zero at a node also ends the cell before it
    keep = (np.diff(row, prepend=-1) != 0) | (np.diff(s2, prepend=-np.inf) > 1e-9)
    return row[keep], s2[keep]


def is_circle(curve: PlaneBoundary) -> bool:
    """Every endpoint pair is perfect: max |f| over a coarse 24 × 24 pair
    grid stays below CIRCLE_RESIDUAL_TOL·√(|Ω|/π). f is a length, so the
    test is scale-free; the factor is 1 on area-π domains. A sign change of
    f on a circle is rounding noise, so the root scan cannot be used there."""
    t = np.linspace(0.0, TWO_PI, 24, endpoint=False)[:, None]
    vals = two_point_f_many(curve, t, t + np.linspace(0.3, TWO_PI - 0.3, 24))
    return float(np.max(np.abs(vals))) < CIRCLE_RESIDUAL_TOL * curve.length_scale()


# --------------------------------------------------------------------------
# continuation
# --------------------------------------------------------------------------

def _correct_s2(curve: PlaneBoundary, s1, s2_guess, domain=0) -> np.ndarray:
    """Newton on s2 holding f(s1, ·) = 0.

    s1, s2_guess and the domain index `domain` broadcast, and each element
    stops on its own. Returns an array of their broadcast shape, NaN where an
    element fails: |f| is still above NEWTON_F_TOL after NEWTON_MAX_ITER
    steps, or s2 meets s1 mod 2π, where f vanishes without an arc.

    Convergence is judged on the Newton step, not only on |f|: near a vertex
    ∂f/∂s2 scales like the cube of the endpoint offset, so a fixed |f| floor
    alone would leave the root orders of magnitude less accurate than it.
    An element stops at the point it has just evaluated once the step from
    there is below 1e-14·max(1, |s2|), or |f| is below NEWTON_F_TOL and the
    step no longer shrinks: f then only random-walks at its rounding floor.
    It returns its evaluated point of smallest |f|.
    """
    s1_b, guess, dom = np.broadcast_arrays(np.asarray(s1, dtype=float),
                                           np.asarray(s2_guess, dtype=float), domain)
    s1_v, s2, dom = s1_b.ravel(), guess.ravel().copy(), dom.ravel()
    best_f, best_s2 = np.full(s2.shape, np.inf), s2.copy()
    prev_step = np.full(s2.shape, np.inf)
    active = np.ones(s2.shape, dtype=bool)
    coincident = np.zeros(s2.shape, dtype=bool)
    for _ in range(NEWTON_MAX_ITER):
        gap = (s1_v - s2) % TWO_PI
        coincident |= active & (np.minimum(gap, TWO_PI - gap) < 1e-14)
        active &= ~coincident
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        f, _, g2, _, w2 = two_point_eval(curve, s1_v[idx], s2[idx], dom[idx])
        g2 = g2 * w2  # to a parameter derivative
        better = np.abs(f) < best_f[idx]
        best_f[idx[better]], best_s2[idx[better]] = np.abs(f[better]), s2[idx[better]]
        step = f / np.where(np.abs(g2) < 1e-300, np.inf, g2)  # flat: no step
        stop = np.abs(step) < 1e-14 * np.maximum(1.0, np.abs(s2[idx]))
        stop |= (np.abs(f) < NEWTON_F_TOL) & (np.abs(step) >= prev_step[idx])
        go = idx[~stop]
        s2[go] -= step[~stop]
        prev_step[go] = np.abs(step[~stop])
        active[idx[stop]] = False
    out = np.where((best_f < NEWTON_F_TOL) & ~coincident, best_s2, np.nan)
    return out.reshape(s1_b.shape)


def continue_family(curve: PlaneBoundary, s1: float, s2: float, steps: int,
                    ds: float) -> list:
    """Predictor-corrector continuation of the arc family through the
    perfect endpoint pair (s1, s2).

    Steps s1 by ds and corrects s2 along f = 0, then builds every arc in one
    `arc_batch`. On a disk every pair satisfies f = 0 and the gradient
    vanishes identically, so the family is generated by the closed-form arcs
    instead (fixed midpoint, growing half-angle).
    """
    if isinstance(curve, SupportCurve) and _is_disk_coeffs(curve):
        return _disk_route(curve, s1, s2, steps, ds)

    if abs(two_point_f(curve, s1, s2)) > 1e-8:
        raise NotPerfect("seed does not satisfy the two-point condition")
    # both arclength partials vanish (to 1e-9; they are scale-free)
    if max(map(abs, two_point_grad(curve, s1, s2))) < 1e-9:
        raise DegenerateGradient("seed gradient vanishes; family not unique")

    ends = []
    for _ in range(steps):
        _, g1, g2, w1, w2 = two_point_eval(curve, s1, s2)
        g1, g2 = float(g1 * w1), float(g2 * w2)  # to parameter derivatives
        if abs(g1) < 1e-12 and abs(g2) < 1e-12:
            break  # degenerate: stop early
        s1_next = s1 + ds
        slope = -g1 / g2 if abs(g2) > 1e-12 else 0.0
        s2_next = _correct_s2(curve, s1_next, s2 + slope * ds)
        if np.isnan(s2_next):
            raise NoConvergence(f"corrector failed at s1={s1_next:.6f}")
        s1, s2 = s1_next, float(s2_next)
        sep = (s2 - s1) % TWO_PI
        if min(sep, TWO_PI - sep) < abs(ds) / 2.0:
            break  # family collapsed to a point
        lo, hi = (s1, s2) if s1 < s2 else (s2, s1)
        if hi - lo >= TWO_PI:
            break
        ends.append((lo, hi))
    return build_arcs(curve, *np.reshape(ends, (-1, 2)).T)


def _disk_route(curve: SupportCurve, s1: float, s2: float, steps: int,
                ds: float) -> list:
    # h = r + a cos θ + b sin θ is the disk of radius r centered at (a, b)
    radius, a = (curve.cos_coeffs + (0.0,))[:2]
    center = np.array([a, (curve.sin_coeffs + (0.0,))[0]])
    u = 0.5 * (s1 + s2)
    half = 0.5 * abs(s1 - s2)
    arcs = []
    for j in range(1, steps + 1):
        theta = half + j * ds
        if not 0.0 < theta < np.pi / 2.0:
            break
        base = diskmod.arc(u, theta)
        arcs.append(replace(
            base, center=center + base.center * radius,
            radius=base.radius * radius, curvature=base.curvature / radius,
            length=base.length * radius,
            enclosed_area=base.enclosed_area * radius ** 2))
    return arcs


# --------------------------------------------------------------------------
# vertex families
# --------------------------------------------------------------------------

def _vertex_partners(curve: SupportCurve, vertex_theta: float,
                     offsets) -> tuple:
    """Endpoint parameters (t1, t2), as two arrays, of the arcs at arclength
    offsets s1 > 0 from a non-degenerate vertex (κ' = 0, κ'' ≠ 0).

    The partner offset solves f = 0, seeded by the quadratic expansion
    s2 ≈ −s1 − (κ'''/(5κ''))·s1².
    """
    _, k_s, k_ss, k_sss = _curvature_jet(curve, vertex_theta)
    if abs(k_s) > 1e-8:
        raise NotAVertex(f"kappa'({vertex_theta:.6f}) = {k_s:.3e} != 0")
    if abs(k_ss) < 1e-8:
        raise DegenerateVertex(f"kappa'' = {k_ss:.3e} at the vertex")
    a2 = -k_sss / (5.0 * k_ss)
    s1 = np.asarray(offsets, dtype=float)
    if np.any(s1 <= 0.0):
        raise ValueError("s1 offsets must be positive")
    t1 = curve.theta_at_arclength(vertex_theta, s1)
    t2 = _correct_s2(curve, t1,
                     curve.theta_at_arclength(vertex_theta, -s1 + a2 * s1 * s1))
    failed = np.flatnonzero(np.isnan(t2))
    if failed.size:
        raise NoConvergence(f"corrector failed at vertex offset "
                            f"s1={s1[failed[0]]:.6g}")
    return t1, t2


def vertex_family(curve: SupportCurve, vertex_theta: float,
                  s1_grid: Sequence[float]) -> list:
    """Arcs shrinking to a non-degenerate vertex (κ' = 0, κ'' ≠ 0), built in
    one `arc_batch`.

    s1_grid holds arclength offsets of the upper endpoint from the vertex.
    """
    curve.require_convex()
    offsets = sorted(float(x) for x in s1_grid)
    t1, t2 = _vertex_partners(curve, vertex_theta, offsets)
    return build_arcs(curve, np.fmin(t1, t2), np.fmax(t1, t2))


def vertex_partner_offset(curve: SupportCurve, vertex_theta: float,
                          s1: float) -> float:
    """Solved arclength offset s2 of the partner endpoint (for testing)."""
    _, [t2] = _vertex_partners(curve, vertex_theta, [float(s1)])
    return curve.arclength_between(vertex_theta, float(t2))
