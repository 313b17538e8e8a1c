"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not calibrated elsewhere.
"""

import time

import numpy as np
import pytest

from isoperim import arcs, disk
from isoperim import perturbation as pert
from isoperim import profile as prof


SQRT2 = np.sqrt(2.0)
HALF_PI = np.pi / 2.0
TWO_PI = 2.0 * np.pi


def _report(line):
    print(f"\n[PASS] {line}")


# --------------------------------------------------------------------------
# 1. disk closed-form consistency
# --------------------------------------------------------------------------

def test_criterion_01_disk_oracle_matches_closed_form(unit_disk):
    start = time.monotonic()
    areas = np.linspace(0.05, HALF_PI, 20)
    worst = 0.0
    for a in areas:
        got = prof.general_profile_oracle(unit_disk, float(a))
        worst = max(worst, abs(got - disk.profile(float(a))))
    elapsed = time.monotonic() - start
    assert worst < 1e-6
    assert elapsed < 10.0
    _report(f"criterion 1: disk oracle vs closed form, 20 areas, "
            f"max |diff| = {worst:.2e} (< 1e-6), {elapsed:.1f}s (< 10s)")


# --------------------------------------------------------------------------
# 2. half-area bound
# --------------------------------------------------------------------------

def test_criterion_02_half_area_bound(ellipse_main):
    value = prof.general_profile_oracle(ellipse_main, HALF_PI)
    assert value <= SQRT2 + 1e-6
    assert value < 2.0
    _report(f"criterion 2: I(pi/2) = {value:.12f} <= sqrt2 + 1e-6 "
            f"and < 2 (half-area bound, strict for non-disks)")


# --------------------------------------------------------------------------
# 3. conjecture check across the suite
# --------------------------------------------------------------------------

def test_criterion_03_conjecture_suite(class_a_suite):
    reports = {}
    for name, curve in class_a_suite.items():
        reports[name] = prof.conjecture_check(curve, 256)
        assert reports[name].passed, name
        assert reports[name].sup_ratio < 1.0, name
    m = {eps: reports[f"ellipse_eps_{eps}"].margin for eps in (0.3, 0.1, 0.01)}
    assert m[0.3] > m[0.1] > m[0.01] > 0.0
    listing = ", ".join(f"{k}: sup={v.sup_ratio:.6f}" for k, v in reports.items())
    _report(f"criterion 3: sup L/L* < 1 on all 5 domains; margins "
            f"{m[0.3]:.4f} > {m[0.1]:.4f} > {m[0.01]:.4f} > 0 ({listing})")


# --------------------------------------------------------------------------
# 4. small-area asymptotic slope
# --------------------------------------------------------------------------

def test_criterion_04_small_area_slope(ellipse_main):
    want_disk = -4.0 / (3.0 * np.pi)
    got_disk = prof.richardson_slope(disk.profile)
    assert got_disk == pytest.approx(want_disk, rel=0.02)

    def ellipse_profile(a):
        theta = prof.family_theta_at_area(ellipse_main, a)
        return float(prof._family_length(ellipse_main, np.array([theta]))[0])

    want_ell = -8.0 * SQRT2 / (3.0 * np.pi)
    got_ell = prof.richardson_slope(ellipse_profile)
    assert got_ell == pytest.approx(want_ell, rel=0.02)
    _report(f"criterion 4: slopes {got_disk:.5f} vs {want_disk:.5f} (disk), "
            f"{got_ell:.5f} vs {want_ell:.5f} (ellipse), both within 2%")


# --------------------------------------------------------------------------
# 5. dL = k dA along the symmetric family
# --------------------------------------------------------------------------

def test_criterion_05_dl_equals_k_da(unit_disk, class_a_suite):
    domains = {"disk": unit_disk, **class_a_suite}
    worst_overall = 0.0
    for name, curve in domains.items():
        n = 512
        theta = np.arange(1, n + 1) * (HALF_PI / (n + 1))
        h = theta[1] - theta[0]
        length = prof._family_length(curve, theta)
        kappa = prof._family_curvature(curve, theta)
        batch = arcs.arc_batch(curve, -theta, theta)
        batch.raise_first()
        area = batch.area
        # fourth-order central differences on the uniform grid
        dl = (length[:-4] - 8 * length[1:-3] + 8 * length[3:-1] - length[4:]) / (12 * h)
        da = (area[:-4] - 8 * area[1:-3] + 8 * area[3:-1] - area[4:]) / (12 * h)
        resid = np.abs(dl / da - kappa[2:-2]) / kappa[2:-2]
        worst = float(np.max(resid))
        assert worst < 1e-5, name
        worst_overall = max(worst_overall, worst)
    _report(f"criterion 5: dL = k dA, 512-point grid, max relative "
            f"residual {worst_overall:.2e} (< 1e-5) over {len(domains)} domains")


# --------------------------------------------------------------------------
# 6. structural checks on class-A domains
# --------------------------------------------------------------------------

def test_criterion_06_structural_checks(class_a_suite):
    thetas = np.linspace(1e-3, HALF_PI - 1e-3, 400)
    for name, curve in class_a_suite.items():
        # radius monotone between the vertices: C.T < 0 on (0, pi/2)
        s = curve.sample(thetas)
        assert np.all(np.einsum("ij,ij->i", s.position, s.tangent) < 0.0), name
        # symmetric arcs stay inside
        for t in np.linspace(0.05, HALF_PI, 10):
            assert arcs.build_arc(curve, -t, t).contained, (name, t)
        # strict monotonicity of length and area
        table = prof.symmetric_profile(curve, 128)
        assert np.all(np.diff(table.area) > 0.0), name
        assert np.all(np.diff(table.length) > 0.0), name
        # pointwise comparison against the disk family at equal half-angle
        disk_len = np.array([disk.theta_to_length(t) for t in thetas])
        assert np.all(prof._family_length(curve, thetas) < disk_len), name
    _report("criterion 6: structural checks (radius monotonicity, arc "
            "containment, monotone L and A, L(theta) < L*(theta)) on all "
            "class-A domains")


# --------------------------------------------------------------------------
# 7. two-point gradients and vertex families
# --------------------------------------------------------------------------

def test_criterion_07_gradients_and_vertex_families(ellipse_main):
    rng = np.random.default_rng(2024)
    h = 1e-5
    worst = 0.0
    checked = 0
    while checked < 100:
        t1, t2 = rng.uniform(0.0, TWO_PI, 2)
        gap = min(abs(t1 - t2) % TWO_PI, TWO_PI - abs(t1 - t2) % TWO_PI)
        if gap < 0.3 or abs(gap - np.pi) < 0.3:
            continue
        g1, g2 = arcs.two_point_grad(ellipse_main, t1, t2)
        fd1 = (arcs.two_point_f(ellipse_main, t1 + h, t2)
               - arcs.two_point_f(ellipse_main, t1 - h, t2)) \
            / (2 * h) / float(ellipse_main.rho(t1))
        fd2 = (arcs.two_point_f(ellipse_main, t1, t2 + h)
               - arcs.two_point_f(ellipse_main, t1, t2 - h)) \
            / (2 * h) / float(ellipse_main.rho(t2))
        scale = max(abs(fd1), abs(fd2))
        worst = max(worst, abs(g1 - fd1) / scale, abs(g2 - fd2) / scale)
        checked += 1
    assert worst < 1e-6

    worst_sym = 0.0
    for vertex in (0.0, HALF_PI):
        for s1 in (0.05, 0.1, 0.2, 0.3):
            s2 = arcs.vertex_partner_offset(ellipse_main, vertex, s1)
            worst_sym = max(worst_sym, abs(s2 + s1))
    assert worst_sym < 1e-10
    _report(f"criterion 7: analytic gradients vs finite differences, 100 "
            f"pairs, max rel err {worst:.2e} (< 1e-6); vertex families "
            f"symmetric to {worst_sym:.2e} (< 1e-10)")


# --------------------------------------------------------------------------
# 8. mode roots and the critical first variation
# --------------------------------------------------------------------------

def test_criterion_08_mode_roots():
    assert pert.find_mode_roots(2) == []
    assert pert.find_mode_roots(3) == []
    roots4 = pert.find_mode_roots(4)
    roots5 = pert.find_mode_roots(5)
    assert len(roots4) == 1 and len(roots5) == 1
    b4, b5 = roots4[0].b, roots5[0].b
    assert b4 == pytest.approx(np.arccos(1.0 / np.sqrt(6.0)), abs=1e-12)
    assert b5 == pytest.approx(np.arctan(np.sqrt(5.0 / 3.0)), abs=1e-12)
    assert abs(pert.mode_condition(4, b4)) < 1e-12
    assert abs(pert.mode_condition(5, b5)) < 1e-12
    u = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
    sup_l = float(np.max(np.abs(
        pert.first_variation_l(pert.PerturbationField.mode(4), b4, u))))
    assert sup_l < 1e-10
    _report(f"criterion 8: mode roots [] for n=2,3; b4 = {b4:.12f}, "
            f"b5 = {b5:.12f}; sup|l| = {sup_l:.2e} (< 1e-10) at the n=4 root")


# --------------------------------------------------------------------------
# 9. profile-decrease dichotomy
# --------------------------------------------------------------------------

def test_criterion_09_dichotomy():
    start = time.monotonic()
    area_first = disk.theta_to_area(np.pi / 4.0)  # b = pi/4
    rep1 = pert.profile_decrease_experiment(pert.PerturbationField.mode(2),
                                            area_first)
    assert rep1.verdict == "first_order_decrease"
    assert rep1.alpha < 0.0
    assert rep1.alpha == pytest.approx(-1.0, rel=0.05)

    roots4 = pert.find_mode_roots(4)
    area_second = roots4[0].area
    assert area_second == pytest.approx(1.01687, abs=1e-5)
    rep2 = pert.profile_decrease_experiment(pert.PerturbationField.mode(4),
                                            area_second)
    assert rep2.verdict == "second_order_decrease"
    assert abs(rep2.alpha) < rep2.noise_floor
    assert rep2.beta < 0.0

    agg = pert.aggregate_second_variation(pert.PerturbationField.mode(4))
    assert agg == -2.0 * np.pi

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(f"criterion 9: dichotomy verified — alpha = {rep1.alpha:.4f} "
            f"(~ -1, first order) at b=pi/4; alpha = {rep2.alpha:.1e} below "
            f"floor {rep2.noise_floor:.1e} with beta = {rep2.beta:.3f} < 0 "
            f"(second order) at the n=4 critical area; aggregate = -2pi "
            f"exactly; {elapsed:.0f}s (< 120s)")


# --------------------------------------------------------------------------
# 10. acknowledgment of the property-based acceptance
# --------------------------------------------------------------------------

def test_criterion_10_property_based_acceptance():
    # There are no published tables or measured values to reproduce: every
    # check above is either a closed form evaluated independently, a
    # derived constant (recomputed here), or a property with an in-suite
    # oracle. This criterion records that explicitly.
    derived = {
        "theta_to_area(pi/4)": (disk.theta_to_area(np.pi / 4.0), np.pi / 2.0 - 1.0),
        "arccos(1/sqrt6)": (pert.find_mode_roots(4)[0].b,
                            np.arccos(1.0 / np.sqrt(6.0))),
    }
    for name, (got, want) in derived.items():
        assert got == pytest.approx(want, abs=1e-10), name
    _report("criterion 10: acceptance is property- and oracle-based; all "
            "expected values recomputed from closed forms or independent "
            "routes inside the suite")
