"""Seeded workloads of the isoperim benchmark.

Each workload turns a seed into an endless sequence of rounds; a round is a
short, fixed list of operations whose parameters come from a per-dimension
Kronecker sequence frac(x0 + r·α) with a seeded start x0. Every prefix of
rounds therefore covers the parameter ranges evenly, so a run that stops
after any whole round sees the same mix of easy and hard inputs whatever the
seed. Each operation is one call into the library's public entry points; its
output is checked afterwards, outside the timed region, against a route that
does not share the code path being timed.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np
from scipy.optimize import brentq

from isoperim import cli, disk, geometry, perturbation, profile

HALF_PI = math.pi / 2.0

# Quadratic irrationals with well-spread 1-D Kronecker sequences; one per
# input dimension so that dimensions do not move in lock-step.
ALPHAS = (0.6180339887498949, 0.41421356237309515, 0.30277563773199456,
          0.7320508075688772, 0.2360679774997898, 0.5615528128088303,
          0.1622776601683795)

# Oracle areas start here. Below it the seed oracle refuses near-disk domains
# (NoArcAtArea at A = 1e-3 for the aspect-1.05 ellipse); the traced run probes
# that region separately (see SMALL_AREA_PROBE) instead of timing it.
ORACLE_AREA_LO = 5e-3
SMALL_AREA_PROBE = (1e-4, 3e-4)


class CheckFailed(Exception):
    """An operation returned, but its output disagrees with the reference."""


@dataclass
class Op:
    """One timed library call and the check applied to its result."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    output_path: Optional[str] = None


@dataclass
class Workload:
    name: str
    unit: str                      # what one operation is
    dims: int                      # Kronecker dimensions per round
    make_round: Callable[["Draws", int, "Context"], list]
    trace_rounds: int              # whole rounds in a traced run


@dataclass
class Context:
    """Per-run state that inputs need: a scratch directory for CLI outputs
    and the critical half-angle of cos 4u."""

    tmp_dir: Optional[str] = None
    counter: int = 0
    mode4_root: Optional[tuple] = None

    def out_path(self, suffix: str) -> str:
        self.counter += 1
        return os.path.join(self.tmp_dir, f"op{self.counter:05d}{suffix}")


class Draws:
    """Seeded low-discrepancy draws: round r gives frac(x0 + (r+1)·α)."""

    def __init__(self, workload: str, seed: int, dims: int):
        rng = random.Random(f"{workload}:{seed}")
        self.x0 = [rng.random() for _ in range(dims)]
        self.rng = rng

    def round(self, r: int) -> list:
        return [(x + (r + 1) * a) % 1.0 for x, a in zip(self.x0, ALPHAS)]


def _lerp(lo: float, hi: float, q: float) -> float:
    return lo + (hi - lo) * q


def _log_lerp(lo: float, hi: float, q: float) -> float:
    return math.exp(_lerp(math.log(lo), math.log(hi), q))


# --------------------------------------------------------------------------
# domains
# --------------------------------------------------------------------------

def ellipse_domain(aspect: float) -> geometry.SupportCurve:
    """Ellipse of the given aspect ratio, normalised to area π."""
    a = math.sqrt(aspect)
    return geometry.SupportCurve.ellipse(a, 1.0 / a).normalized_to(math.pi)


def two_mode_domain(a2: float, a4: float) -> geometry.SupportCurve:
    """h = 1 + a2 cos 2θ + a4 cos 4θ normalised to area π.

    ρ' = 6 sin 2θ (a2 + 20 a4 cos 2θ) vanishes only on the axes when
    |a4| < a2/20, so the domain is class A by construction.
    """
    if not abs(a4) < a2 / 20.0:
        raise ValueError("two-mode domain needs |a4| < a2/20")
    return geometry.SupportCurve((1.0, 0.0, a2, 0.0, a4)).normalized_to(math.pi)


def _ellipse_aspect(q: float, skew: float = 1.0) -> float:
    return _log_lerp(1.05, 6.0, q ** skew)


def _two_mode_params(q_a2: float, q_a4: float) -> tuple:
    a2 = _lerp(0.03, 0.2, q_a2)
    return a2, (a2 / 20.0) * _lerp(-0.9, 0.9, q_a4)


# --------------------------------------------------------------------------
# oracle: general_profile_oracle(curve, A)
# --------------------------------------------------------------------------

def _oracle_target(q_area: float, q_comp: float, total: float) -> float:
    a = _log_lerp(ORACLE_AREA_LO, total / 2.0, q_area)
    return total - a if q_comp < 0.5 else a


def _check_oracle_class_a(curve, target):
    total = curve.area()

    def check(value):
        if not (math.isfinite(value) and value > 0.0):
            raise CheckFailed(f"oracle value {value!r} is not a positive number")
        theta = profile.family_theta_at_area(curve, min(target, total - target))
        family = profile.arcsmod.build_arc(curve, -theta, theta).length
        if value > family + 1e-9:
            raise CheckFailed(f"oracle {value:.15g} exceeds the symmetric "
                              f"family {family:.15g} at area {target:.6g}")
    return check


def _check_oracle_disk(radius, target):
    def check(value):
        exact = radius * disk.profile(target / radius ** 2)
        if not abs(value - exact) <= 1e-6:
            raise CheckFailed(f"disk oracle {value!r} != closed form {exact!r}")
    return check


def _oracle_op(label, curve, target, check):
    return Op(f"{label} A={target:.6g}",
              lambda: profile.general_profile_oracle(curve, target), check)


def oracle_round(draws: Draws, r: int, ctx: Context) -> list:
    q = draws.round(r)
    ops = []
    if r == 0:
        # one scaled disk per run: the circle route (_circle_profile_value)
        radius = _lerp(0.5, 2.0, draws.rng.random())
        total = math.pi * radius ** 2
        a = _log_lerp(ORACLE_AREA_LO * radius ** 2, total / 2.0, draws.rng.random())
        target = total - a if draws.rng.random() < 0.5 else a
        ops.append(_oracle_op(f"disk R={radius:.4f}",
                              geometry.SupportCurve.disk(radius), target,
                              _check_oracle_disk(radius, target)))
    aspect = _ellipse_aspect(q[0])
    curve = ellipse_domain(aspect)
    target = _oracle_target(q[1], q[2], curve.area())
    ops.append(_oracle_op(f"ellipse aspect={aspect:.4f}", curve, target,
                          _check_oracle_class_a(curve, target)))
    # two two-mode domains per ellipse, the second drawn half a period away,
    # so the median operation falls inside one cost cluster
    for shift in (0.0, 0.5):
        qa2, qa4, qa, qc = ((x + shift) % 1.0 for x in q[3:7])
        a2, a4 = _two_mode_params(qa2, qa4)
        curve = two_mode_domain(a2, a4)
        target = _oracle_target(qa, qc, curve.area())
        ops.append(_oracle_op(f"two-mode a2={a2:.4f} a4={a4:.5f}", curve, target,
                              _check_oracle_class_a(curve, target)))
    return ops


def small_area_probes(draws: Draws) -> list:
    """(label, curve, area) below ORACLE_AREA_LO, where the oracle is known to
    refuse; counted in the traced run, never timed."""
    q = draws.round(0)
    lo, hi = SMALL_AREA_PROBE
    aspect = _ellipse_aspect(q[0])
    a2, a4 = _two_mode_params(q[3], q[4])
    return [(f"ellipse aspect={aspect:.4f}", ellipse_domain(aspect),
             _log_lerp(lo, hi, q[1])),
            (f"two-mode a2={a2:.4f}", two_mode_domain(a2, a4),
             _log_lerp(lo, hi, q[5]))]


# --------------------------------------------------------------------------
# experiment: profile_decrease_experiment(cos(n u), area)
# --------------------------------------------------------------------------

def min_first_variation(n: int, b: float, nodes: int = 20000) -> float:
    """min_u l(u) for f = cos(n u), from the closed form of ∫ cos(n t) dt."""
    u = np.linspace(0.0, 2.0 * math.pi, nodes, endpoint=False)
    integral = (np.sin(n * (u + 2.0 * b)) - np.sin(n * u)) / n
    l = -integral / math.tan(b) + np.cos(n * u) + np.cos(n * (u + 2.0 * b))
    return float(np.min(l))


def _check_experiment(n, b, critical):
    def check(report):
        if critical:
            if report.verdict != "second_order_decrease":
                raise CheckFailed(f"cos({n}u) at critical b={b:.6f}: verdict "
                                  f"{report.verdict}")
            return
        if report.verdict != "first_order_decrease":
            raise CheckFailed(f"cos({n}u) at b={b:.6f}: verdict {report.verdict}")
        ref = min_first_variation(n, b)
        if not abs(report.alpha - ref) <= 0.05 * abs(ref):
            raise CheckFailed(f"cos({n}u) at b={b:.6f}: alpha {report.alpha:.6g}"
                              f" vs min l {ref:.6g}")
    return check


def _experiment_op(n, b, area, critical):
    field_n = perturbation.PerturbationField.mode(n)
    kind = "critical" if critical else "seeded"
    return Op(f"cos({n}u) {kind} b={b:.6f}",
              lambda: perturbation.profile_decrease_experiment(field_n, area),
              _check_experiment(n, b, critical))


def experiment_round(draws: Draws, r: int, ctx: Context) -> list:
    # Each experiment takes 7-25 s on the seed code, so a round is one
    # first-order case (cos 2u never has l ≡ 0) and one second-order case
    # (cos 4u at its critical half-angle): both verdict branches, criterion 9.
    # b stays in (0.8, 1.3), where the cos 2u experiment's cost is flat
    # (about 7-8 s; 11 s at b = 0.3), so a two-operation run does not swing
    # with the seed.
    q = draws.round(r)
    b2 = _lerp(0.8, 1.3, q[0])
    if ctx.mode4_root is None:
        root = perturbation.find_mode_roots(4)[0]
        ctx.mode4_root = (root.b, root.area)
    b4, area4 = ctx.mode4_root
    return [_experiment_op(2, b2, disk.theta_to_area(b2), False),
            _experiment_op(4, b4, area4, True)]


# --------------------------------------------------------------------------
# family: conjecture_check(curve, 256)
# --------------------------------------------------------------------------

def _check_family(report):
    if not report.passed:
        raise CheckFailed(f"conjecture check did not pass: {report.to_dict()}")
    if not 0.0 < report.sup_ratio < 1.0:
        raise CheckFailed(f"sup_ratio {report.sup_ratio!r} outside (0, 1)")


def _family_op(label, curve):
    return Op(label, lambda: profile.conjecture_check(curve, 256), _check_family)


def family_round(draws: Draws, r: int, ctx: Context) -> list:
    # square-root skew puts most ellipses at high aspect, i.e. many modes
    q = draws.round(r)
    ops = []
    for qi in (q[0], q[1]):
        aspect = _ellipse_aspect(qi, skew=0.5)
        ops.append(_family_op(f"ellipse aspect={aspect:.4f}",
                              ellipse_domain(aspect)))
    a2, a4 = _two_mode_params(q[2], q[3])
    ops.append(_family_op(f"two-mode a2={a2:.4f} a4={a4:.5f}",
                          two_mode_domain(a2, a4)))
    return ops


# --------------------------------------------------------------------------
# zero_set: cli.main(["implicit-curve" | "perturb roots", ...])
# --------------------------------------------------------------------------

def mode_condition_ref(n, b):
    return np.cos(b) * np.sin(n * b) - n * np.sin(b) * np.cos(n * b)


def mode_roots_ref(n: int) -> list:
    """Roots of the mode condition in (0, π/2) by a dense scan and brentq."""
    grid = np.linspace(1e-6, HALF_PI - 1e-6, 20001)
    vals = mode_condition_ref(n, grid)
    idx = np.nonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))[0]
    return [brentq(lambda b: mode_condition_ref(n, b), grid[i], grid[i + 1],
                   xtol=1e-15) for i in idx]


KNOWN_ROOTS = {4: math.acos(1.0 / math.sqrt(6.0)),
               5: math.atan(math.sqrt(5.0 / 3.0))}


def _check_roots(n, path):
    def check(rc):
        if rc != 0:
            raise CheckFailed(f"perturb roots --n {n} exited {rc}")
        try:
            with open(path, encoding="utf-8") as fh:
                roots = [row["b"] for row in json.load(fh)]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CheckFailed(f"perturb roots output unreadable: {exc}") from exc
        ref = mode_roots_ref(n)
        if len(roots) != len(ref):
            raise CheckFailed(f"n={n}: {len(roots)} roots, reference has {len(ref)}")
        for b, b_ref in zip(roots, ref):
            # |F| / |∂F/∂b| bounds the distance to the true root; the library
            # bisects b to 1e-13, and |∂F/∂b| = (n²−1)|sin b sin nb| grows with n
            slope = (n * n - 1) * math.sin(b) * math.sin(n * b)
            if not abs(mode_condition_ref(n, b)) < 1e-12 * max(1.0, abs(slope)):
                raise CheckFailed(f"n={n}: residual at b={b!r} too large")
            if not abs(b - b_ref) < 1e-11:
                raise CheckFailed(f"n={n}: root {b!r} vs reference {b_ref!r}")
        if n in KNOWN_ROOTS:
            if not (abs(roots[0] - KNOWN_ROOTS[n]) < 1e-12
                    and abs(mode_condition_ref(n, roots[0])) < 1e-12):
                raise CheckFailed(f"n={n}: root {roots[0]!r} != {KNOWN_ROOTS[n]!r}")
    return check


def _check_implicit(box, resolution, path):
    x_lo, x_hi, y_lo, y_hi = box
    dx = (x_hi - x_lo) / (resolution - 1)
    dy = (y_hi - y_lo) / (resolution - 1)

    def check(rc):
        if rc != 0:
            raise CheckFailed(f"implicit-curve exited {rc}")
        try:
            with open(path, encoding="utf-8") as fh:
                header = fh.readline().strip()
                pts = np.loadtxt(fh, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"implicit-curve output unreadable: {exc}") from exc
        if header != "x,y" or pts.shape[1] != 2:
            raise CheckFailed("implicit-curve CSV is malformed")
        eps = 1e-9 * max(1.0, abs(x_lo), abs(x_hi))
        if not (np.all(pts[:, 0] >= x_lo - eps) and np.all(pts[:, 0] <= x_hi + eps)
                and np.all(pts[:, 1] >= y_lo - eps) and np.all(pts[:, 1] <= y_hi + eps)):
            raise CheckFailed("implicit-curve emitted a point outside the box")
        for n in range(math.ceil(x_lo + dx), math.floor(x_hi - dx) + 1):
            if abs(n) < 2:
                continue
            for b in mode_roots_ref(abs(n)):
                if not y_lo + dy <= b <= y_hi - dy:
                    continue
                near = ((np.abs(pts[:, 0] - n) <= dx * (1 + 1e-9))
                        & (np.abs(pts[:, 1] - b) <= dy * (1 + 1e-9)))
                if not np.any(near):
                    raise CheckFailed(f"no zero-set point within a cell of "
                                      f"(n={n}, b={b:.6f})")
    return check


def _cli_op(label, argv, path, check):
    return Op(label, lambda: cli.main(argv), check, output_path=path)


def zero_set_round(draws: Draws, r: int, ctx: Context) -> list:
    # one 160k-cell marching-squares sweep per two mode-root scans
    q = draws.round(r)
    x_lo = _lerp(-12.0, 1.0, q[0])
    x_hi = x_lo + _lerp(3.0, 12.0, q[1])
    y_lo = _lerp(0.01, 0.3, q[2])
    y_hi = _lerp(1.2, 1.56, q[3])
    resolution = 400
    path = ctx.out_path(".csv")
    argv = ["implicit-curve", f"--xmin={x_lo!r}", f"--xmax={x_hi!r}",
            f"--ymin={y_lo!r}", f"--ymax={y_hi!r}",
            "--resolution", str(resolution), "-o", path]
    ops = [_cli_op(f"implicit-curve x=[{x_lo:.3f},{x_hi:.3f}] "
                   f"y=[{y_lo:.3f},{y_hi:.3f}]", argv, path,
                   _check_implicit((x_lo, x_hi, y_lo, y_hi), resolution, path))]
    for qk in (q[4], q[5]):
        n = 2 + min(10, int(qk * 11))
        path = ctx.out_path(".json")
        ops.append(_cli_op(f"perturb roots --n {n}",
                           ["perturb", "roots", "--n", str(n), "-o", path],
                           path, _check_roots(n, path)))
    return ops


WORKLOADS = {
    "oracle": Workload("oracle", "one general_profile_oracle(curve, A) call",
                       7, oracle_round, trace_rounds=2),
    "experiment": Workload("experiment",
                           "one profile_decrease_experiment(cos(nu), area) call",
                           1, experiment_round, trace_rounds=1),
    "family": Workload("family", "one conjecture_check(curve, 256) call",
                       4, family_round, trace_rounds=6),
    "zero_set": Workload("zero_set", "one in-process cli.main([...]) call",
                         6, zero_set_round, trace_rounds=6),
}
