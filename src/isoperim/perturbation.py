"""Area-preserving perturbations of the unit circle and their effect on
the isoperimetric profile.

A perturbation field f(u) (a zero-mean Fourier series) moves the circle
radially; the first variation of the length of the arc with lower contact
point u and half-angle b is

    l(u) = -cot b ∫_u^{u+2b} f + f(u) + f(u + 2b),

closed form for Fourier data. Modes cos(nu), sin(nu) give l ≡ 0 exactly
when cos b sin nb − n sin b cos nb = 0; the zero set of
F(x, y) = cos y sin xy − x sin y cos xy catalogs all such pairs (x carries
the mode, y the half-angle). `profile_decrease_experiment` measures the
induced change of the profile itself through the arc-search oracle and
fits its first and second order in the perturbation size.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import disk as diskmod
from . import profile as profilemod
from ._roots import sign_change_roots
from .errors import (AreaNormalizationFailure, FitIllConditioned, IsoperimError,
                     NonConvexPerturbation, OracleFailure, OutOfRange)
from .geometry import RadialCurve, TWO_PI
from .trig import TrigSeries, fit_periodic

HALF_PI = np.pi / 2.0
# find_mode_roots' scan nodes with their cos b and sin b, which do not depend on
# n: computed once, they halve the trig work of every scan
_ROOT_GRID = np.linspace(1e-6, HALF_PI - 1e-6, 10_000)[None]
_ROOT_COS, _ROOT_SIN = np.cos(_ROOT_GRID), np.sin(_ROOT_GRID)
# accuracy of one oracle value; sets the experiment's noise floor and flatness
ORACLE_TOL = 1e-6


@dataclass(frozen=True)
class PerturbationField:
    """Zero-mean real Fourier series f(u) = Σ_{n≥1} a_n cos nu + b_n sin nu."""

    fourier_cos: tuple = ()
    fourier_sin: tuple = ()

    @staticmethod
    def mode(n: int, phase: str = "cos") -> "PerturbationField":
        """cos(nu), or sin(nu) for phase="sin"."""
        if n < 1:
            raise ValueError("mode index must be >= 1")
        if phase not in ("cos", "sin"):
            raise ValueError(f"phase must be 'cos' or 'sin', got {phase!r}")
        coeffs = (0.0,) * (n - 1) + (1.0,)
        if phase == "cos":
            return PerturbationField(coeffs, ())
        return PerturbationField((), coeffs)

    def _series(self) -> TrigSeries:
        return TrigSeries(np.concatenate([[0.0], np.asarray(self.fourier_cos, float)]),
                          np.concatenate([[0.0], np.asarray(self.fourier_sin, float)]))

    def __call__(self, u):
        return self._series()(u)

    def integral_between(self, u0, u1):
        return self._series().integral_between(u0, u1)

    def power(self) -> float:
        """∫_0^{2π} f² du by Parseval."""
        a = np.asarray(self.fourier_cos, float)
        b = np.asarray(self.fourier_sin, float)
        return float(np.pi * (np.sum(a * a) + np.sum(b * b)))


# --------------------------------------------------------------------------
# first variation
# --------------------------------------------------------------------------

def first_variation_l(f: PerturbationField, b: float, u) -> np.ndarray | float:
    """l(u) = -cot b ∫_u^{u+2b} f + f(u) + f(u+2b); exact for Fourier f."""
    b = float(b)
    if not 0.0 < b < HALF_PI:
        raise OutOfRange(f"contact half-angle must lie in (0, pi/2), got {b}")
    u_arr = np.asarray(u, dtype=float)
    integral = f.integral_between(u_arr, u_arr + 2.0 * b)
    out = -integral / np.tan(b) + f(u_arr) + f(u_arr + 2.0 * b)
    return out if u_arr.ndim else float(out)


def mean_l(f: PerturbationField, b: float) -> float:
    """∫_0^{2π} l(u) du by spectral trapezoid; identically 0 for zero-mean f."""
    u = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    return float(np.mean(first_variation_l(f, b, u)) * TWO_PI)


def mode_condition(n: int, b) -> np.ndarray | float:
    """cos b sin nb − n sin b cos nb; its zeros make mode n profile-critical."""
    if n == 0:
        raise ValueError("mode index must be nonzero")
    b = np.asarray(b, dtype=float)
    out = np.cos(b) * np.sin(n * b) - n * np.sin(b) * np.cos(n * b)
    return out if b.ndim else float(out)


@dataclass(frozen=True)
class ModeRoot:
    """Half-angle b where the Fourier mode n satisfies l ≡ 0."""

    n: int
    b: float
    theta: float
    area: float


def find_mode_roots(n: int) -> list:
    """All roots of the mode condition in [1e-6, π/2 − 1e-6]: a 10,000-point
    grid scan, refined to 1e-13 by `sign_change_roots`."""
    if n < 2:
        raise ValueError("nontrivial modes start at n = 2 (n = 1 is translation)")
    nb = n * _ROOT_GRID  # mode_condition(n, b) on the nodes, term by term
    vals = _ROOT_COS * np.sin(nb) - n * _ROOT_SIN * np.cos(nb)
    _, roots = sign_change_roots(lambda b, _: mode_condition(n, b), _ROOT_GRID,
                                 vals, 1e-13)
    areas = diskmod.theta_to_area(roots).tolist()
    return [ModeRoot(n=n, b=r, theta=r, area=a) for r, a in zip(roots.tolist(), areas)]


# --------------------------------------------------------------------------
# implicit zero-set of the mode condition
# --------------------------------------------------------------------------

def implicit_curve_sample(x_range, y_range, resolution: int = 400) -> np.ndarray:
    """Zero set of F(x, y) = cos y sin xy − x sin y cos xy by marching squares.

    Returns an (m, 2) array of edge-crossing points (unordered point cloud,
    deterministic cell-scan order). The vertical lines x ∈ {−1, 0, 1} lie in
    the zero set and show up as sign changes across them.
    """
    x_lo, x_hi = map(float, x_range)
    y_lo, y_hi = map(float, y_range)
    nx = ny = int(resolution)
    xs = np.linspace(x_lo, x_hi, nx)
    ys = np.linspace(y_lo, y_hi, ny)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    vals = np.cos(yg) * np.sin(xg * yg) - xg * np.sin(yg) * np.cos(xg * yg)

    if nx < 2 or ny < 2:
        return np.zeros((0, 2))
    # Points come in cell-scan order: cell (i, j) emits its edge to (i+1, j)
    # (edge 0), to (i, j+1) (edge 1), then in the last column the edge
    # (i+1, j)→(i+1, j+1) (edge 2) and in the last row (i, j+1)→(i+1, j+1)
    # (edge 3). Every grid edge thus belongs to one cell. An edge emits its
    # first node on an exact zero and the linear crossing on a sign change.
    pts, keys = [], []
    for di, dj in ((1, 0), (0, 1)):
        v0, v1 = vals[:nx - di, :ny - dj], vals[di:, dj:]
        i, j = np.nonzero((v0 == 0.0) | ((v0 < 0.0) != (v1 < 0.0)))
        a0, a1 = v0[i, j], v1[i, j]
        x0, y0, x1, y1 = xs[i], ys[j], xs[i + di], ys[j + dj]
        cross = a0 != 0.0
        t = a0[cross] / (a0[cross] - a1[cross])
        x0[cross] += t * (x1[cross] - x0[cross])
        y0[cross] += t * (y1[cross] - y0[cross])
        edge = np.where((i > nx - 2) | (j > ny - 2), 2 + di, 1 - di)
        pts.append(np.column_stack([x0, y0]))
        keys.append((np.minimum(i, nx - 2) * (ny - 1) + np.minimum(j, ny - 2)) * 4
                    + edge)
    return np.concatenate(pts)[np.argsort(np.concatenate(keys))]


# --------------------------------------------------------------------------
# perturbed domains
# --------------------------------------------------------------------------

def build_perturbed_domain(f: PerturbationField, s: float) -> RadialCurve:
    """Radial domain λ(s)·(1 + s f(u)) with area exactly π.

    The uniform factor λ(s) = √(π/area) preserves the field's shape; the
    curve must stay convex (r² + 2r'² − r r'' > 0), which bounds |s|.
    """
    s = float(s)
    series = f._series()
    cos_c = s * series.cos_c
    cos_c[0] = 1.0
    curve = RadialCurve(TrigSeries(cos_c, s * series.sin_c))
    if curve.min_curvature() <= 0.0:
        raise NonConvexPerturbation(f"radial curve not convex at s = {s}")
    lam = np.sqrt(np.pi / curve.area())
    scaled = curve.scaled(lam)
    if abs(scaled.area() - np.pi) > 1e-12:
        raise AreaNormalizationFailure(
            f"area after rescaling off by {scaled.area() - np.pi:.3e}")
    return scaled


def translated_disk(offset: float) -> RadialCurve:
    """Unit disk centered at (offset, 0) in radial form (rigid-motion control)."""
    if not -1.0 < offset < 1.0:
        raise OutOfRange("offset must keep the origin inside the disk")
    fn = lambda u: offset * np.cos(u) + np.sqrt(1.0 - (offset * np.sin(u)) ** 2)
    return RadialCurve(fit_periodic(fn, 2048))


def aggregate_second_variation(f: PerturbationField) -> float:
    """−2∫_0^{2π} f² du = −2π Σ(a_n² + b_n²); strictly negative for f ≠ 0."""
    return -2.0 * f.power()


# --------------------------------------------------------------------------
# profile-decrease experiment
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """The s-grid of the profile-decrease fit and the oracle's s1 slices."""

    s_grid: tuple = (1e-3, 2e-3, 3e-3, 4e-3, 5e-3)
    n_s1: int = profilemod.N_S1


@dataclass(frozen=True)
class ExperimentReport:
    """Fitted profile response I(s) ≈ I(0) + αs + βs² and its verdict."""

    area: float
    s_values: tuple
    profile_values: tuple
    alpha: float
    beta: float
    verdict: str            # first_order_decrease | second_order_decrease | no_decrease
    noise_floor: float
    intercept: float

    def to_dict(self) -> dict:
        return asdict(self)


def profile_decrease_experiment(f: PerturbationField, area: float,
                                config: ExperimentConfig = ExperimentConfig(),
                                domain_builder=None) -> ExperimentReport:
    """Measure I_{Ω_s}(area) over an s-grid and fit the leading orders.

    The profile at s = 0 is included in the fit and must agree with the
    closed-form disk profile within ORACLE_TOL. The verdict is
    first_order_decrease when α clears the noise floor 10·ORACLE_TOL/s_max,
    second_order_decrease when the profile moved but α does not clear it
    and β < 0, and no_decrease when the profile is flat within
    5·ORACLE_TOL (rigid motions).
    """
    if not 0.0 < area < np.pi:
        raise OutOfRange(f"target area must lie in (0, pi), got {area}")
    s_values = (0.0,) + tuple(float(s) for s in config.s_grid)
    if not all(s > 0.0 for s in s_values[1:]):
        raise FitIllConditioned(f"s values must be positive, got {s_values[1:]}")
    if len(set(s_values[1:])) < 3:
        raise FitIllConditioned("need at least three distinct nonzero s values")
    builder = domain_builder or (lambda s: build_perturbed_domain(f, s))

    def profile_at(s):
        curve = builder(s)
        try:
            return profilemod.general_profile_oracle(curve, area, config.n_s1)
        except IsoperimError as exc:
            raise OracleFailure(f"profile oracle failed at s={s}: {exc}") from exc

    values = tuple(profile_at(s) for s in s_values)

    i_disk = diskmod.profile(area)
    if abs(values[0] - i_disk) > ORACLE_TOL:
        raise OracleFailure(
            f"oracle at s=0 deviates from the disk profile by "
            f"{values[0] - i_disk:.3e} (tol {ORACLE_TOL:.1e})")

    s_arr = np.asarray(s_values)
    design = np.stack([np.ones_like(s_arr), s_arr, s_arr ** 2], axis=-1)
    coef, *_ = np.linalg.lstsq(design, np.asarray(values), rcond=None)
    intercept, alpha, beta = (float(c) for c in coef)

    s_max = float(np.max(s_arr))
    noise_floor = 10.0 * ORACLE_TOL / s_max
    flat = float(np.max(np.abs(np.asarray(values) - values[0])))
    if flat <= 5.0 * ORACLE_TOL:
        verdict = "no_decrease"
    elif alpha < -noise_floor:
        verdict = "first_order_decrease"
    elif beta < 0.0:
        verdict = "second_order_decrease"
    else:
        verdict = "no_decrease"

    return ExperimentReport(
        area=float(area),
        s_values=s_values,
        profile_values=values,
        alpha=alpha,
        beta=beta,
        verdict=verdict,
        noise_floor=noise_floor,
        intercept=intercept,
    )
