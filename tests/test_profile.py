import logging

import numpy as np
import pytest

from isoperim import arcs, disk
from isoperim import perturbation as pert
from isoperim import profile as prof
from isoperim.errors import (IsDisk, NoArcAtArea, NoConvergence, NotClassA,
                             NotNormalized)
from isoperim._roots import invert_monotone
from isoperim.geometry import SupportCurve

SQRT2 = np.sqrt(2.0)
HALF_PI = np.pi / 2.0


@pytest.fixture(scope="module")
def disk_table(unit_disk):
    return prof.symmetric_profile(unit_disk, 128)


@pytest.fixture(scope="module")
def ellipse_table(ellipse_main):
    return prof.symmetric_profile(ellipse_main, 128)


# --- symmetric family ---------------------------------------------------------

def test_disk_table_matches_closed_form(disk_table):
    for theta, area, length, curv in zip(disk_table.theta, disk_table.area,
                                         disk_table.length,
                                         disk_table.arc_curvature):
        if theta >= HALF_PI:
            continue
        assert length == pytest.approx(disk.theta_to_length(theta), abs=1e-12)
        assert area == pytest.approx(disk.theta_to_area(theta), abs=1e-12)
        assert curv == pytest.approx(disk.theta_to_curvature(theta), rel=1e-12)


def test_tables_monotone(class_a_suite):
    for name, curve in class_a_suite.items():
        table = prof.symmetric_profile(curve, 96)
        assert np.all(np.diff(table.area) > 0.0), name
        assert np.all(np.diff(table.length) > 0.0), name


def test_table_ends_at_half_area(ellipse_table, ellipse_main):
    assert ellipse_table.theta[-1] == pytest.approx(HALF_PI, abs=1e-15)
    # A(π/2) lands ~1e-16 below |Ω|/2 in rounding; the inverse must still
    # return the end of the family
    theta = prof.family_theta_at_area(ellipse_main, ellipse_main.area() / 2.0)
    assert theta == pytest.approx(HALF_PI, abs=1e-12)
    assert ellipse_table.length[-1] == pytest.approx(SQRT2, abs=1e-10)
    assert ellipse_table.area[-1] == pytest.approx(HALF_PI, abs=1e-10)
    assert ellipse_table.arc_curvature[-1] == pytest.approx(0.0, abs=1e-12)


def test_length_squared_concave(class_a_suite):
    for name, curve in class_a_suite.items():
        table = prof.symmetric_profile(curve, 96)
        l2 = table.length ** 2
        slopes = np.diff(l2) / np.diff(table.area)
        assert np.all(np.diff(slopes) <= 1e-8), name


def test_family_length_below_disk_pointwise(class_a_suite):
    for name, curve in class_a_suite.items():
        thetas = np.linspace(0.02, HALF_PI - 1e-9, 300)
        ours = prof._family_length(curve, thetas)
        disk_ref = np.array([disk.theta_to_length(t) for t in thetas])
        assert np.all(ours < disk_ref), name


def test_height_gap_dips_once_at_unit_curvature(ellipse_main):
    """y − y* decreases, then increases, crossing slope sign at κ(θ̄) = 1."""
    thetas = np.linspace(1e-3, HALF_PI, 500)
    gap = prof._upper_endpoint_height(ellipse_main, thetas) - np.sin(thetas)
    d = np.diff(gap)
    sign_changes = np.nonzero(np.diff(np.signbit(d)))[0]
    assert len(sign_changes) == 1
    theta_bar = thetas[sign_changes[0] + 1]
    kappa_at_bar = 1.0 / float(ellipse_main.rho(theta_bar))
    assert kappa_at_bar == pytest.approx(1.0, abs=5e-2)
    assert np.all(gap <= 1e-12)  # the minor semi-axis stays below 1


def test_area_cross_check_runs_tight(ellipse_main):
    # symmetric_profile raises if Green vs dA=(1/k)dL disagree beyond 1e-7;
    # the two routes actually agree an order of magnitude better
    prof.symmetric_profile(ellipse_main, 64, cross_check_tol=1e-8)


def test_profile_preconditions(unit_disk, ellipse_main):
    with pytest.raises(NotNormalized):
        prof.symmetric_profile(SupportCurve.disk(2.0), 32)
    with pytest.raises(NotClassA):
        prof.symmetric_profile(SupportCurve((1.0, 0.0, 0.05), (0.0, 0.02)), 32)
    # rotated ellipse: major axis on y
    rotated = SupportCurve.ellipse(1.0 / SQRT2, SQRT2)
    with pytest.raises(NotClassA):
        prof.symmetric_profile(rotated, 32)


def test_csv_round_trip(ellipse_table, tmp_path):
    text = ellipse_table.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "theta,area,length,curvature"
    assert len(lines) == len(ellipse_table.theta) + 1
    row = lines[1].split(",")
    assert float(row[0]) == pytest.approx(ellipse_table.theta[0])


def test_grid_contains_quarter_pi():
    grid = prof.profile_grid(256)
    assert np.min(np.abs(grid - np.pi / 4.0)) < 1e-15
    assert grid[-1] == pytest.approx(HALF_PI, abs=1e-15)
    assert grid[0] > 0.0


# --- conjecture check ----------------------------------------------------------

def test_conjecture_on_suite(class_a_suite):
    for name, curve in class_a_suite.items():
        report = prof.conjecture_check(curve, 128)
        assert report.passed, name
        assert 0.0 < report.sup_ratio < 1.0, name
        assert report.margin == pytest.approx(1.0 - report.sup_ratio)


def test_conjecture_margin_shrinks_toward_disk(ellipse_family):
    margins = {eps: prof.conjecture_check(c, 128).margin
               for eps, c in ellipse_family.items()}
    assert margins[0.3] > margins[0.1] > margins[0.01] > 0.0


def test_conjecture_rejects_disk(unit_disk):
    with pytest.raises(IsDisk):
        prof.conjecture_check(unit_disk, 64)


def test_family_stationarity_identity(ellipse_main):
    """(π − 2θ) = k·L along the family (the argmax relation's ingredients)."""
    thetas = np.linspace(0.1, 1.4, 25)
    lengths = prof._family_length(ellipse_main, thetas)
    curvatures = prof._family_curvature(ellipse_main, thetas)
    assert np.allclose(np.pi - 2.0 * thetas, curvatures * lengths, atol=1e-12)
    # and for the disk family
    for t in thetas:
        assert np.pi - 2.0 * t == pytest.approx(
            disk.theta_to_curvature(t) * disk.theta_to_length(t), abs=1e-12)


def test_conjecture_stationarity_residual_when_interior(ellipse_main):
    report = prof.conjecture_check(ellipse_main, 128)
    if report.stationarity_residual is not None:
        assert report.stationarity_residual < 1e-4
    else:
        # boundary argmax: the ratio is monotone down in area, so the
        # maximum hugs the certified small-area floor
        span = HALF_PI - report.area_floor
        assert report.argmax_area - report.area_floor <= 2e-3 * span


# --- oracle -------------------------------------------------------------------

def test_oracle_disk_against_closed_form(unit_disk):
    for a in (0.3, HALF_PI - 1.0, 1.2, HALF_PI):
        got = prof.general_profile_oracle(unit_disk, a)
        assert got == pytest.approx(disk.profile(a), abs=1e-8)


def test_oracle_envelope_below_family(ellipse_main):
    for a in (0.4, 1.0, 1.4):
        got = prof.general_profile_oracle(ellipse_main, a)
        theta = prof.family_theta_at_area(ellipse_main, a)
        fam = float(prof._family_length(ellipse_main, np.array([theta]))[0])
        assert got <= fam + 1e-6
        assert abs(got - fam) < 1e-12  # the refinement converged


def test_oracle_profile_symmetry(ellipse_main):
    for a in (0.5, 1.2):
        lo = prof.general_profile_oracle(ellipse_main, a)
        hi = prof.general_profile_oracle(ellipse_main, np.pi - a)
        assert lo == pytest.approx(hi, abs=1e-9)


def refine_one(curve, s1_a, s2_a, s1_b, s2_b, target):
    """Reference: one segment at a time, Brent's method on the corrected arc."""
    def arc_at(s1):
        s2_seed = np.interp(s1, (s1_a, s1_b), (s2_a, s2_b))
        s2 = arcs._correct_s2(curve, s1, s2_seed, 0.2)
        lo, hi = (s1, s2) if s1 < s2 else (s2, s1)
        if not 0.0 < hi - lo < 2.0 * np.pi:
            raise NoArcAtArea("branch left the parameter window")
        return arcs.build_arc(curve, lo, hi, check_containment=False)

    s1 = invert_monotone(lambda s: arc_at(s).enclosed_area - target,
                         s1_a, s1_b, 1e-14)
    return arc_at(s1).length


@pytest.mark.parametrize("name, areas", [
    ("ellipse", (0.4, 1.0, np.pi - 0.4)),
    ("two-mode", (0.05, 0.8, 1.5)),
    ("perturbed", (0.3, 1.0, 1.5)),
])
def test_batched_refinement_matches_per_segment_brent(monkeypatch, name, areas,
                                                      ellipse_main, fourier_domain):
    curve = {"ellipse": ellipse_main, "two-mode": fourier_domain,
             "perturbed": pert.build_perturbed_domain(
                 pert.PerturbationField.mode(3), 5e-3)}[name]
    batches = []

    def spy(*args):
        batches.append((args, prof_refine(*args)))
        return batches[-1][1]

    prof_refine = prof._refine_on_branch
    monkeypatch.setattr(prof, "_refine_on_branch", spy)
    for a in areas:
        prof.general_profile_oracle(curve, a)
    assert len(batches) == len(areas)
    for (_, *segments), (length, failures) in batches:
        assert len(length) == len(failures) == len(segments[0]) > 1
        for i, seg in enumerate(zip(*segments)):
            # the oracle value bound: both solvers stop at 1e-14 in s1, and
            # the corrector leaves s2 ill-conditioned near vertices
            assert failures[i] is None
            assert length[i] == pytest.approx(refine_one(curve, *seg), abs=1e-11)


def test_oracle_rejects_bad_area(unit_disk):
    with pytest.raises(NoArcAtArea):
        prof.general_profile_oracle(unit_disk, 4.0)


def test_oracle_logs_dropped_refinements(caplog):
    # cos 4u at its critical area: four straddling segments leave the window
    area = pert.find_mode_roots(4)[0].area
    curve = pert.build_perturbed_domain(pert.PerturbationField.mode(4), 1e-3)
    with caplog.at_level(logging.DEBUG, logger="isoperim"):
        value = prof.general_profile_oracle(curve, area)
    assert np.isfinite(value)
    dropped = [r.getMessage() for r in caplog.records
               if r.name == "isoperim" and "refinement dropped" in r.getMessage()]
    assert len(dropped) == 4
    assert all(m.startswith("refinement dropped: NoArcAtArea on s1 in [")
               for m in dropped)


def test_oracle_refusal_counts_failed_refinements(monkeypatch, ellipse_main):
    def fail(*args):
        raise NoConvergence("forced")

    monkeypatch.setattr(prof, "_refine_on_branch", fail)
    with pytest.raises(NoArcAtArea, match=r"\((\d+) refinements tried, \1 failed, "
                                          r"\1 NoConvergence\)"):
        prof.general_profile_oracle(ellipse_main, 1.0)


# --- small-area asymptotics -----------------------------------------------------

def test_richardson_slope_disk():
    slope = prof.richardson_slope(disk.profile)
    assert slope == pytest.approx(-4.0 / (3.0 * np.pi), rel=1e-4)


def test_richardson_slope_ellipse(ellipse_main):
    def family_profile(a):
        theta = prof.family_theta_at_area(ellipse_main, a)
        return float(prof._family_length(ellipse_main, np.array([theta]))[0])

    slope = prof.richardson_slope(family_profile)
    assert slope == pytest.approx(-8.0 * SQRT2 / (3.0 * np.pi), rel=1e-3)
