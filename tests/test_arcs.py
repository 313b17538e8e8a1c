import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isoperim import arcs, disk
from isoperim import perturbation as pert
from isoperim.errors import (CoincidentPoints, DegenerateGradient,
                             DegenerateVertex, NoConvergence,
                             NormalsParallelButNotAligned, NotAVertex,
                             NotPerfect)
from isoperim.geometry import CurveSamples, SupportCurve, find_vertices

SQRT2 = np.sqrt(2.0)
TWO_PI = 2.0 * np.pi


@st.composite
def class_a_domains(draw):
    """Random area-pi bi-symmetric domains with exactly four vertices."""
    a2 = draw(st.floats(0.02, 0.12))
    a4 = draw(st.floats(-a2 / 25.0, a2 / 25.0))
    return SupportCurve((1.0, 0.0, a2, 0.0, a4)).normalized_to(np.pi)


# --- two-point function -----------------------------------------------------

def test_f_vanishes_on_disk(unit_disk):
    rng = np.random.default_rng(7)
    for _ in range(50):
        t1, t2 = rng.uniform(0.0, TWO_PI, 2)
        if min(abs(t1 - t2) % TWO_PI, TWO_PI - abs(t1 - t2) % TWO_PI) < 0.1:
            continue
        assert abs(arcs.two_point_f(unit_disk, t1, t2)) < 1e-13
        g = arcs.two_point_grad(unit_disk, t1, t2)
        # under continue_family's 1e-9 degeneracy test at every pair
        assert abs(g[0]) < 1e-13 and abs(g[1]) < 1e-13


def test_f_symmetric_pair_is_zero(ellipse_main):
    for t in (0.2, 0.7, 1.3):
        assert abs(arcs.two_point_f(ellipse_main, t, -t)) < 1e-13


def test_f_matches_direct_evaluation(ellipse_main):
    # brute-force oracle: recompute from sampled points
    t1, t2 = 0.05, 0.15
    s = ellipse_main.sample(np.array([t1, t2]))
    want = float(np.dot(s.position[0] - s.position[1],
                        s.normal[0] + s.normal[1]))
    got = arcs.two_point_f(ellipse_main, t1, t2)
    assert got == pytest.approx(want, abs=1e-15)
    assert got != 0.0  # generic nearby pair is not perfect


def test_f_coincident_rejected(ellipse_main):
    with pytest.raises(CoincidentPoints):
        arcs.two_point_f(ellipse_main, 0.3, 0.3)
    with pytest.raises(CoincidentPoints):
        arcs.two_point_f(ellipse_main, 0.3, 0.3 + TWO_PI)
    # the gradient stays defined there, under the 1e-9 degeneracy test
    g = arcs.two_point_grad(ellipse_main, 0.3, 0.3)
    assert abs(g[0]) < 1e-15 and abs(g[1]) < 1e-15


def test_grad_finite_difference_100_pairs(ellipse_main):
    rng = np.random.default_rng(42)
    h = 1e-5
    checked = 0
    worst = 0.0
    while checked < 100:
        t1, t2 = rng.uniform(0.0, TWO_PI, 2)
        gap = abs(t1 - t2) % TWO_PI
        gap = min(gap, TWO_PI - gap)
        if gap < 0.3 or abs(gap - np.pi) < 0.3:
            continue
        g1, g2 = arcs.two_point_grad(ellipse_main, t1, t2)
        fd1 = (arcs.two_point_f(ellipse_main, t1 + h, t2)
               - arcs.two_point_f(ellipse_main, t1 - h, t2)) / (2 * h)
        fd2 = (arcs.two_point_f(ellipse_main, t1, t2 + h)
               - arcs.two_point_f(ellipse_main, t1, t2 - h)) / (2 * h)
        # FD is taken in the normal angle; convert to arclength partials
        fd1 /= float(ellipse_main.rho(t1))
        fd2 /= float(ellipse_main.rho(t2))
        scale = max(abs(fd1), abs(fd2), 1e-6)
        worst = max(worst, abs(g1 - fd1) / scale, abs(g2 - fd2) / scale)
        checked += 1
    assert worst < 1e-6


def test_degeneracy_detector_matches_gradient(ellipse_main, unit_disk):
    # circle: both partials below 1e-9 everywhere; ellipse generic pair: not
    g = arcs.two_point_grad(unit_disk, 0.4, 2.2)
    assert max(abs(g[0]), abs(g[1])) < 1e-9
    g = arcs.two_point_grad(ellipse_main, 0.4, -0.4)
    assert max(abs(g[0]), abs(g[1])) > 1e-3


def test_degenerate_at_perfect_chord(ellipse_main):
    # the branch crosses the spurious line s2 = s1 + pi at a perfect chord,
    # so both partials vanish there and no family is unique
    g = arcs.two_point_grad(ellipse_main, -np.pi / 2.0, np.pi / 2.0)
    assert max(abs(g[0]), abs(g[1])) < 1e-9
    with pytest.raises(DegenerateGradient):
        arcs.continue_family(ellipse_main, -np.pi / 2.0, np.pi / 2.0,
                             steps=3, ds=0.05)


@pytest.mark.parametrize("name", ["ellipse", "perturbed"])
def test_two_point_eval_partials_and_speeds(name, ellipse_main):
    curve = (ellipse_main if name == "ellipse" else
             pert.build_perturbed_domain(pert.PerturbationField.mode(3), 0.05))
    s1 = np.array([[0.1], [1.3], [4.0]])
    s2 = np.array([[0.9, 2.5, 3.3, 5.6]])
    f, g1, g2, w1, w2 = arcs.two_point_eval(curve, s1, s2)
    assert f.shape == g1.shape == g2.shape == (3, 4)
    assert np.allclose(w1, curve.sample(s1.ravel()).speed.reshape(s1.shape),
                       rtol=1e-14, atol=0.0)
    assert np.allclose(w2, curve.sample(s2.ravel()).speed.reshape(s2.shape),
                       rtol=1e-14, atol=0.0)
    assert np.array_equal(arcs.two_point_f_many(curve, s1, s2), f)
    h = 1e-6
    fd1 = (arcs.two_point_f_many(curve, s1 + h, s2)
           - arcs.two_point_f_many(curve, s1 - h, s2)) / (2.0 * h)
    fd2 = (arcs.two_point_f_many(curve, s1, s2 + h)
           - arcs.two_point_f_many(curve, s1, s2 - h)) / (2.0 * h)
    # finite differences are in the parameter; the partials in arclength
    assert np.allclose(g1 * w1, fd1, rtol=0.0, atol=1e-8)
    assert np.allclose(g2 * w2, fd2, rtol=0.0, atol=1e-8)
    for i, j in ((0, 0), (2, 3)):
        assert f[i, j] == pytest.approx(
            arcs.two_point_f(curve, s1[i, 0], s2[0, j]), abs=1e-15)


# --- arc construction --------------------------------------------------------

def test_disk_symmetric_arc_matches_closed_form(unit_disk):
    for theta in (0.3, np.pi / 4.0, 1.1):
        built = arcs.build_arc(unit_disk, -theta, theta)
        ref = disk.arc(0.0, theta)
        assert built.kind == "circular"
        assert np.allclose(built.center, ref.center, atol=1e-12)
        assert built.radius == pytest.approx(ref.radius, abs=1e-12)
        assert built.curvature == pytest.approx(ref.curvature, rel=1e-12)
        assert built.length == pytest.approx(ref.length, rel=1e-13)
        assert built.enclosed_area == pytest.approx(ref.enclosed_area, abs=1e-13)
        assert built.contained
        assert built.ortho_residual < 1e-9


def test_arc_area_against_shoelace(ellipse_main):
    """Green-theorem area versus a dense polygon shoelace oracle."""
    t_lo, t_hi = -0.8, 0.8
    arc = arcs.build_arc(ellipse_main, t_lo, t_hi)
    n = 200_000
    ts = np.linspace(t_lo, t_hi, n)
    boundary = ellipse_main.sample(ts).position
    center, radius = arc.center, arc.radius
    va = boundary[-1] - center
    vb = boundary[0] - center
    pa = np.arctan2(va[1], va[0])
    pb = np.arctan2(vb[1], vb[0])
    dphi = (pb - pa + np.pi) % TWO_PI - np.pi
    phis = pa + np.linspace(0.0, 1.0, n) * dphi
    arc_pts = center + radius * np.stack([np.cos(phis), np.sin(phis)], axis=-1)
    loop = np.vstack([boundary, arc_pts])
    x, y = loop[:, 0], loop[:, 1]
    shoelace = 0.5 * np.sum(x * np.roll(y, -1) - y * np.roll(x, -1))
    assert arc.enclosed_area == pytest.approx(shoelace, abs=1e-8)


def test_area_plus_complement(unit_disk, ellipse_main, fourier_domain):
    for curve in (unit_disk, ellipse_main, fourier_domain):
        for theta in (0.4, 1.0, 1.4):
            direct = arcs.build_arc(curve, -theta, theta)
            complement = arcs.build_arc(curve, theta, TWO_PI - theta)
            assert direct.enclosed_area + complement.enclosed_area == \
                pytest.approx(curve.area(), abs=1e-9)
            assert direct.ortho_residual < 1e-9
            assert complement.ortho_residual < 1e-9


def test_endpoints_on_circle(ellipse_main):
    arc = arcs.build_arc(ellipse_main, -0.9, 0.9)
    s = ellipse_main.sample(np.array(arc.endpoint_thetas))
    for p in s.position:
        assert np.hypot(*(p - arc.center)) == pytest.approx(arc.radius,
                                                            abs=1e-10)


def test_segment_at_half_area(ellipse_main):
    seg = arcs.build_arc(ellipse_main, -np.pi / 2.0, np.pi / 2.0)
    assert seg.kind == "segment"
    assert seg.curvature == 0.0
    assert seg.length == pytest.approx(SQRT2, abs=1e-12)
    assert seg.enclosed_area == pytest.approx(np.pi / 2.0, abs=1e-12)
    assert seg.contained


def test_area_continuous_across_segment_band(ellipse_main):
    # the arcs near the major-axis chord turn by about s1 − π; inside
    # |N1 + N2| < SEGMENT_NORMAL_TOL they are kept as segments, and their area
    # still follows the circular arcs' across the band's edge at 5e-9
    d = np.array([-5.1e-9, -4.9e-9, 0.0, 4.9e-9, 5.1e-9])
    s1 = np.pi + d
    batch = arcs.arc_batch(ellipse_main, s1, TWO_PI - s1 + np.pi)
    batch.raise_first()
    assert batch.segment.tolist() == [False, True, True, True, False]
    # dA/ds1 = 1/3 here: the area of the circular branch, to rounding
    assert np.max(np.abs(batch.area - np.pi / 2.0 - d / 3.0)) < 1e-14


def scalar_arc(curve, t_lo, t_hi, f_tol):
    """Reference: build_arc's chord-frame math one pair at a time, as scalars.

    Returns (exception type, message) for a rejected pair, else
    (kind, curvature, length, area, ortho residual).
    """
    wrap = lambda x: (x + np.pi / 2.0) % np.pi - np.pi / 2.0
    cross = lambda a, b: a[0] * b[1] - a[1] * b[0]
    s = curve.sample(np.array([t_lo, t_hi]))
    a_pt, b_pt = s.position
    n_sum = s.normal[0] + s.normal[1]
    chord = a_pt - b_pt
    chord_len = float(np.hypot(*chord))
    c_hat = chord / chord_len
    f_val = float(np.dot(chord, n_sum))
    if abs(f_val) > f_tol * max(chord_len, 1.0):
        return NotPerfect, f"two-point residual {f_val:.3e} exceeds {f_tol:.1e}"
    moment = curve.moment_between(t_lo, t_hi)
    chord_ang = np.arctan2(c_hat[1], c_hat[0])
    alpha_a = wrap(np.arctan2(s.normal[0][1], s.normal[0][0]) - chord_ang)
    alpha_b = wrap(chord_ang - np.arctan2(s.normal[1][1], s.normal[1][0]))
    mismatch = wrap(alpha_a - alpha_b)
    alpha = wrap(alpha_a - 0.5 * mismatch)
    sin_a = np.sin(alpha)
    x = 2.0 * alpha
    two_alpha_minus_sin = (x ** 3 / 6.0 * (1.0 - x * x / 20.0 + x ** 4 / 840.0)
                           if abs(x) < 0.05 else x - np.sin(x))
    bulge = chord_len ** 2 * two_alpha_minus_sin / (8.0 * sin_a ** 2) if alpha else 0.0
    if float(np.hypot(*n_sum)) < arcs.SEGMENT_NORMAL_TOL:
        if abs(cross(c_hat, s.normal[0])) > arcs.SEGMENT_NORMAL_TOL:
            return (NormalsParallelButNotAligned,
                    "normals anti-parallel but chord not aligned with them")
        ortho = max(abs(np.dot(s.tangent[0], c_hat)), abs(np.dot(s.tangent[1], c_hat)))
        # a near-segment keeps the sliver its tiny turning encloses
        return ("segment", 0.0, chord_len,
                0.5 * (moment + cross(b_pt, a_pt)) + bulge, float(ortho))
    if abs(mismatch) > 1e-5:
        return NotPerfect, f"endpoint turning angles differ by {mismatch:.3e}"
    if abs(alpha) < 1e-12:
        return (NormalsParallelButNotAligned,
                "vanishing turning angle outside the segment branch")
    t_arc_a = np.array([np.cos(chord_ang + alpha), np.sin(chord_ang + alpha)])
    t_arc_b = np.array([np.cos(chord_ang - alpha), np.sin(chord_ang - alpha)])
    ortho = max(abs(np.dot(t_arc_a, s.tangent[0])), abs(np.dot(t_arc_b, s.tangent[1])))
    return ("circular", 2.0 * sin_a / chord_len, chord_len * abs(alpha / sin_a),
            0.5 * (moment + cross(b_pt, a_pt)) + bulge, float(ortho))


class _Frames:
    """Boundary stub with given points and normals, to reach the failure no
    convex curve produces: normals along the chord that are not opposite."""

    def __init__(self, position, normal):
        self.position, self.normal = np.asarray(position), np.asarray(normal)

    def sample(self, theta):
        idx = np.asarray(theta, dtype=int)
        n = self.normal[idx]
        return CurveSamples(theta, self.position[idx], np.stack(
            [-n[:, 1], n[:, 0]], axis=-1), n, np.ones(len(idx)), np.ones(len(idx)))

    def moment_between(self, t0, t1):
        return np.zeros(np.shape(t0))


def _kernel_pairs(curve, rng):
    """Random endpoint pairs over every branch of build_arc: generic pairs
    (non-perfect), mirror pairs (circular arcs, and straight chords at π/2),
    axis chords (segments) and antipodal pairs (misaligned chords)."""
    t = rng.uniform(0.02, np.pi / 2.0 - 0.02, 40)
    lo = rng.uniform(0.0, TWO_PI, 40)
    pairs = [(lo, lo + rng.uniform(0.05, TWO_PI - 0.05, 40)),
             (-t, t), (t, np.pi - t), (np.pi / 2.0 - t, np.pi / 2.0 + t),
             (np.array([-np.pi / 2.0, 0.0, np.pi / 2.0]),
              np.array([np.pi / 2.0, np.pi, 3.0 * np.pi / 2.0])),
             (lo, lo + np.pi)]
    return (np.concatenate([p[0] for p in pairs]),
            np.concatenate([p[1] for p in pairs]))


def test_arc_kernel_matches_scalar_math(monkeypatch, ellipse_main, fourier_domain):
    # one float64 evaluation differs from another only in the summation order
    # of the closed-form boundary moment and of 2-vector dot products: allow
    # 64 ulps of the quantity's scale
    tol = 64.0 * np.finfo(float).eps
    rng = np.random.default_rng(2024)
    seen = set()
    curves = (ellipse_main, fourier_domain,
              pert.build_perturbed_domain(pert.PerturbationField.mode(3), 5e-3))
    for curve in curves:
        t_lo, t_hi = _kernel_pairs(curve, rng)
        for f_tol in (1e-8, 10.0):   # 10: non-perfect pairs reach the turning test
            monkeypatch.setattr(arcs, "ARC_F_TOL", f_tol)
            batch = arcs.arc_batch(curve, t_lo, t_hi)
            for i, (a, b) in enumerate(zip(t_lo, t_hi)):
                want = scalar_arc(curve, a, b, f_tol)
                got = batch.error(i)
                if got is not None or isinstance(want[0], type):
                    assert (type(got), str(got)) == want
                    seen.add((want[0].__name__, want[1].split()[0]))
                    continue
                kind, curvature, length, area, ortho = want
                seen.add(kind)
                assert ("segment" if batch.segment[i] else "circular") == kind
                for value, ref in ((batch.curvature[i], curvature),
                                   (batch.length[i], length),
                                   (batch.area[i], area), (batch.ortho[i], ortho)):
                    assert abs(value - ref) <= tol * max(1.0, abs(ref))
    stub = _Frames([[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]])
    monkeypatch.setattr(arcs, "ARC_F_TOL", 10.0)
    flat = arcs.arc_batch(stub, [0], [1])
    assert str(flat.error(0)) == "vanishing turning angle outside the segment branch"
    with pytest.raises(NormalsParallelButNotAligned, match="vanishing"):
        flat.raise_first()
    seen.add(type(flat.error(0)).__name__)
    assert seen == {"circular", "segment", ("NotPerfect", "two-point"),
                    ("NotPerfect", "endpoint"),
                    ("NormalsParallelButNotAligned", "normals"),
                    "NormalsParallelButNotAligned"}


def test_arc_kernel_empty(ellipse_main):
    batch = arcs.arc_batch(ellipse_main, [], [])
    assert batch.area.shape == (0,)
    batch.raise_first()


def test_non_perfect_pair_rejected(ellipse_main):
    with pytest.raises(NotPerfect):
        arcs.build_arc(ellipse_main, 0.1, 0.9)


def test_diameter_limit(unit_disk):
    eps = 1e-7
    arc = arcs.build_arc(unit_disk, -(np.pi / 2.0 - eps), np.pi / 2.0 - eps)
    assert arc.length == pytest.approx(2.0, abs=1e-6)
    assert arc.enclosed_area == pytest.approx(np.pi / 2.0, abs=1e-6)


def test_symmetric_arcs_contained_on_class_a(class_a_suite):
    for name, curve in class_a_suite.items():
        for theta in np.linspace(0.05, np.pi / 2.0, 12):
            arc = arcs.build_arc(curve, -theta, theta)
            assert arc.contained, (name, theta)


@settings(max_examples=20)
@given(class_a_domains(), st.floats(0.05, np.pi / 2.0 - 0.05))
def test_arc_invariants_on_random_class_a(curve, theta):
    arc = arcs.build_arc(curve, -theta, theta)
    complement = arcs.build_arc(curve, theta, TWO_PI - theta)
    assert arc.ortho_residual < 1e-9
    assert 0.0 < arc.enclosed_area < curve.area()
    assert arc.enclosed_area + complement.enclosed_area == \
        pytest.approx(curve.area(), abs=1e-9)
    assert arc.contained
    s = curve.sample(np.array(arc.endpoint_thetas))
    for p in s.position:
        assert np.hypot(*(p - arc.center)) == pytest.approx(arc.radius,
                                                            abs=1e-10)


# --- root scanning -----------------------------------------------------------

def test_scan_finds_both_families(ellipse_main):
    roots = arcs.scan_arc_roots(ellipse_main, 0.3)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(np.pi - 0.3, abs=1e-10)
    assert roots[1] == pytest.approx(TWO_PI - 0.3, abs=1e-10)


def test_scan_drops_spurious_antipodal(ellipse_main):
    # the line s2 = s1 + pi zeroes f identically but is not a perfect chord;
    # the scan's function h = f·tan(Δ/2) does not vanish there
    roots = arcs.scan_arc_roots(ellipse_main, 0.3)
    assert all(abs((r - 0.3) - np.pi) > 1e-3 for r in roots)


def _dense_crossings(curve, s1_grid, exclusion, n=16384):
    """Per slice, sign changes of f(s1, ·) on one fine uniform grid of the
    boundary, by direct differences of raw samples: (genuine, spurious) lower
    cell ends, in s2 ∈ (s1 + exclusion, s1 + 2π − exclusion).

    A cell across which N1 + N2 reverses holds the spurious crossing where
    the normals are anti-parallel; the other crossings are genuine roots. The
    nodes sit at half steps, 2π(j + ½)/n: for the half-step slicings below
    that keeps s1 + π, and the symmetric partners of an ellipse, at least a
    sixth of a cell from every node, so no crossing falls on a node.
    """
    t = TWO_PI * (np.arange(n) + 0.5) / n
    dense, ends = curve.sample(t), curve.sample(s1_grid)
    out = []
    for s1, c1, n1 in zip(s1_grid, ends.position, ends.normal):
        n_sum = n1 + dense.normal
        f = np.einsum("ij,ij->i", c1 - dense.position, n_sum)
        change = np.sign(f) != np.sign(np.roll(f, -1))
        flip = np.einsum("ij,ij->i", n_sum, np.roll(n_sum, -1, axis=0)) < 0.0
        # cell j runs from node j to node j + 1, counted around the turn
        off = (t - s1) % TWO_PI
        inside = (off > exclusion) & (off + TWO_PI / n < TWO_PI - exclusion)
        out.append(tuple(np.sort(s1 + off[inside & change & keep])
                         for keep in (~flip, flip)))
    return out


@pytest.mark.parametrize("name", ["ellipse", "fourier", "perturbed"])
def test_batched_scan_matches_dense_scan(name, ellipse_main, fourier_domain):
    curve = {"ellipse": ellipse_main, "fourier": fourier_domain,
             "perturbed": pert.build_perturbed_domain(
                 pert.PerturbationField.mode(3), 5e-3)}[name]
    fine = TWO_PI / 16384
    # at 768 slices the default scan has one node per slice (N = 768, 0.0082
    # apart); near s1 = 0.53 + kπ/3 the perturbed disk has two near-diametral
    # roots 0.0042 apart, so that slicing scans 1536 nodes
    for n_s1, n_scan in ((96, arcs.SCAN_POINTS), (192, arcs.SCAN_POINTS),
                         (768, 1536)):
        s1_grid = (np.arange(n_s1) + 0.5) * TWO_PI / n_s1
        batched = arcs.scan_arc_roots(curve, s1_grid, n_scan)
        assert len(batched) == n_s1
        # a scalar s1 scans its own node set and finds the same roots; the
        # slice near s1 = 0.35 keeps its partners away from the vertices,
        # where h's sign is rounding noise over ~1e-11 of s2
        k = 5 * n_s1 // 96
        single = arcs.scan_arc_roots(curve, float(s1_grid[k]))
        assert isinstance(single, list) and all(type(r) is float for r in single)
        assert single == pytest.approx(batched[k], abs=1e-12)
        counts = [len(r) for r in batched]
        f = arcs.two_point_f_many(curve, np.repeat(s1_grid, counts),
                                  np.concatenate(batched))
        assert np.max(np.abs(f)) <= 1e-12
        # compare where both scans can bracket a root: two scan cells in
        # from the chord's own zero at s2 = s1, less one dense cell
        edge = 2.0 * TWO_PI / (n_s1 * -(-n_scan // n_s1))
        dense = _dense_crossings(curve, s1_grid, edge)
        for s1, roots, (genuine, _) in zip(s1_grid, batched, dense):
            roots = np.array(roots)
            # every root lies in a genuine dense cell, and every genuine cell
            # holds a root: none is missed, including the near-diametral arcs
            # of the perturbed disk next to the spurious crossing
            for r in roots[(roots - s1 > edge + fine)
                           & (roots - s1 < TWO_PI - edge - fine)]:
                assert np.any((genuine <= r) & (r <= genuine + fine))
            for g in genuine[(genuine - s1 > edge + fine)
                             & (genuine - s1 < TWO_PI - edge - 2.0 * fine)]:
                assert np.any((g <= roots) & (roots <= g + fine))


def test_scan_memory_stays_at_two_grids():
    # h on the (s1, s2) grid is assembled from one boundary sample without
    # gathered (n_s1, N, 2) temporaries: at n_s1 = 768 (N = 768) the scan's
    # peak allocation stays below three n_s1·N float64 arrays
    curve = pert.build_perturbed_domain(pert.PerturbationField.mode(3), 5e-3)
    s1_grid = (np.arange(768) + 0.5) * TWO_PI / 768
    arcs.scan_arc_roots(curve, s1_grid)
    tracemalloc.start()
    try:
        arcs.scan_arc_roots(curve, s1_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 768 * 768 * 8


@pytest.mark.parametrize("name, circle", [
    ("disk", True), ("disk r=1.7", True),
    ("translated 0.3", True), ("translated -0.6", True),
    ("ellipse", False), ("ellipse aspect 1.05", False),
    ("perturbed s=1e-6", False),
])
def test_is_circle(name, circle, unit_disk, ellipse_main):
    # max |f| on the pair grid: ≤ 3.4e-14 on the circles, 2.6e-6 on the
    # perturbed disk
    aspect = np.sqrt(1.05)
    curve = {"disk": unit_disk, "disk r=1.7": SupportCurve.disk(1.7),
             "translated 0.3": pert.translated_disk(0.3),
             "translated -0.6": pert.translated_disk(-0.6),
             "ellipse": ellipse_main,
             "ellipse aspect 1.05": SupportCurve.ellipse(aspect, 1.0 / aspect),
             "perturbed s=1e-6": pert.build_perturbed_domain(
                 pert.PerturbationField.mode(2), 1e-6)}[name]
    assert arcs.is_circle(curve) is circle


def test_scan_without_cells_finds_nothing(ellipse_main):
    for n_scan in (0, 1):
        assert arcs.scan_arc_roots(ellipse_main, 0.3, n_scan) == []
        assert arcs.scan_arc_roots(ellipse_main, [0.3, 0.3 + np.pi],
                                   n_scan) == [[], []]


def test_scan_refuses_uneven_slices(ellipse_main):
    # the shared node set holds every s1 only for evenly spaced slices
    with pytest.raises(ValueError, match="spaced"):
        arcs.scan_arc_roots(ellipse_main, [0.3, 1.0])


def test_corrector_marks_failed_elements_nan(monkeypatch, fourier_domain):
    root = arcs.scan_arc_roots(fourier_domain, 0.3)[0]
    got = arcs._correct_s2(fourier_domain, 0.3, root + 0.05)
    assert got.shape == () and got == pytest.approx(root, abs=1e-12)
    # the coincidence guard: f vanishes at s2 = s1 mod 2pi, where no arc is
    got = arcs._correct_s2(fourier_domain, 0.3, [root + 0.05, 0.3 + TWO_PI])
    assert got[0] == pytest.approx(root, abs=1e-12) and np.isnan(got[1])
    # no Newton step: no element converges, and every caller refuses
    monkeypatch.setattr(arcs, "NEWTON_MAX_ITER", 0)
    assert np.isnan(arcs._correct_s2(fourier_domain, 0.3, root))
    with pytest.raises(NoConvergence, match="offset s1=0.05"):
        arcs.vertex_family(fourier_domain, 0.0, [0.15, 0.05])
    with pytest.raises(NoConvergence):
        arcs.vertex_partner_offset(fourier_domain, 0.0, 0.1)
    with pytest.raises(NoConvergence, match="corrector failed"):
        arcs.continue_family(fourier_domain, 0.3, root, steps=3, ds=0.05)


def test_corrector_stops_at_rounding_floor(monkeypatch):
    # near a vertex ∂f/∂s2 ≈ 6e-6, so f random-walks at ~1e-16 once the root
    # is reached and the 1e-14 step test alone never passes
    curve = SupportCurve((1.0, 0.0, 0.0327, 0.0, -0.00057)).normalized_to(np.pi)
    s1 = 0.0327
    [partner] = [r for r in arcs.scan_arc_roots(curve, s1) if r > np.pi]
    assert partner - TWO_PI == pytest.approx(-0.033, abs=1e-3)
    calls = []
    real_eval = arcs.two_point_eval

    def counted(*args):
        calls.append(np.size(args[1]))
        return real_eval(*args)

    monkeypatch.setattr(arcs, "two_point_eval", counted)
    for offset in (0.0, 1e-4, -1e-3, 1e-2):
        calls.clear()
        s2 = arcs._correct_s2(curve, s1, partner + offset)
        assert len(calls) <= 15 < arcs.NEWTON_MAX_ITER
        assert abs(real_eval(curve, s1, s2)[0]) < arcs.NEWTON_F_TOL
    # the array form stops each element on its own
    calls.clear()
    offsets = np.array([0.0, 1e-4, -1e-3, 1e-2])
    got = arcs._correct_s2(curve, np.full(4, s1), partner + offsets)
    assert got.shape == (4,) and len(calls) <= 15
    assert np.all(np.abs(real_eval(curve, s1, got)[0]) < arcs.NEWTON_F_TOL)


# --- continuation ------------------------------------------------------------

def test_continuation_on_disk_routes_to_closed_form(unit_disk):
    fam = arcs.continue_family(unit_disk, 0.3, -0.3, steps=6, ds=0.1)
    assert len(fam) == 6
    for j, arc in enumerate(fam, start=1):
        ref = disk.arc(0.0, 0.3 + 0.1 * j)
        assert abs(arc.length - ref.length) < 1e-10
        assert abs(arc.enclosed_area - ref.enclosed_area) < 1e-10


def test_continuation_on_scaled_disk_scales_unit_arcs(unit_disk):
    unit = arcs.continue_family(unit_disk, 0.3, -0.3, steps=6, ds=0.1)
    fam = arcs.continue_family(SupportCurve.disk(1.7), 0.3, -0.3, steps=6,
                               ds=0.1)
    assert len(fam) == len(unit) == 6
    for arc, ref in zip(fam, unit):
        assert arc.endpoint_thetas == ref.endpoint_thetas
        assert np.allclose(arc.center, 1.7 * ref.center, rtol=1e-15, atol=0.0)
        assert arc.radius == pytest.approx(1.7 * ref.radius, rel=1e-15)
        assert arc.curvature == pytest.approx(ref.curvature / 1.7, rel=1e-15)
        assert arc.length == pytest.approx(1.7 * ref.length, rel=1e-15)
        assert arc.enclosed_area == pytest.approx(1.7 ** 2 * ref.enclosed_area,
                                                  rel=1e-15)


@pytest.mark.parametrize("a, b", [(0.3, 0.0), (0.0, 0.3), (0.2, -0.25)])
def test_continuation_on_translated_disk_matches_build_arc(a, b):
    curve = SupportCurve((1.0, a), (b,))
    fam = arcs.continue_family(curve, 0.3, -0.3, steps=6, ds=0.1)
    assert len(fam) == 6
    for arc in fam:
        ref = arcs.build_arc(curve, *arc.endpoint_thetas)
        assert arc.kind == ref.kind == "circular" and ref.contained
        assert np.max(np.abs(arc.center - ref.center)) < 1e-12
        for key in ("radius", "curvature", "length", "enclosed_area"):
            assert abs(getattr(arc, key) - getattr(ref, key)) < 1e-12, key


def test_continuation_preserves_symmetry(ellipse_main):
    fam = arcs.continue_family(ellipse_main, 0.2, -0.2, steps=12, ds=0.05)
    assert len(fam) == 12
    for arc in fam:
        lo, hi = arc.endpoint_thetas
        assert lo + hi == pytest.approx(0.0, abs=1e-10)


def test_continuation_dl_equals_k_da(ellipse_main):
    """ΔL ≈ k ΔA between consecutive arcs, second order in the step."""
    def worst_residual(ds, steps):
        fam = arcs.continue_family(ellipse_main, 0.3, -0.3, steps=steps, ds=ds)
        worst = 0.0
        for a, b in zip(fam, fam[1:]):
            dl = b.length - a.length
            da = b.enclosed_area - a.enclosed_area
            k_mid = 0.5 * (a.curvature + b.curvature)
            worst = max(worst, abs(dl / da - k_mid) / k_mid)
        return worst

    coarse = worst_residual(0.04, 8)
    fine = worst_residual(0.02, 16)
    assert fine < 5e-3
    assert coarse / fine > 3.0  # one halving gains ~4x


def test_continuation_needs_perfect_seed(ellipse_main):
    with pytest.raises(NotPerfect):
        arcs.continue_family(ellipse_main, 0.1, 0.9, steps=3, ds=0.05)


# --- vertex families ----------------------------------------------------------

def test_vertex_family_symmetry(ellipse_main):
    offsets = (0.05, 0.1, 0.2, 0.3)
    for vertex in (0.0, np.pi / 2.0):
        for s1 in offsets:
            s2 = arcs.vertex_partner_offset(ellipse_main, vertex, s1)
            assert s2 + s1 == pytest.approx(0.0, abs=1e-10)


def test_vertex_family_shrinks(ellipse_main):
    fam = arcs.vertex_family(ellipse_main, 0.0, [0.05, 0.1, 0.2, 0.3])
    areas = [a.enclosed_area for a in fam]
    assert all(x > 0.0 for x in areas)
    assert np.all(np.diff(areas) > 0.0)  # monotone to zero as s1 -> 0
    assert areas[0] < 0.01
    for arc in fam:
        assert arc.contained and arc.ortho_residual < 1e-9


def test_vertex_family_on_asymmetric_vertex(fourier_domain):
    fam = arcs.vertex_family(fourier_domain, 0.0, [0.05, 0.15])
    assert len(fam) == 2
    assert fam[0].enclosed_area < fam[1].enclosed_area


def test_vertex_family_rejects_non_vertex(ellipse_main, unit_disk):
    with pytest.raises(NotAVertex):
        arcs.vertex_family(ellipse_main, 0.3, [0.1])
    with pytest.raises(DegenerateVertex):
        arcs.vertex_family(unit_disk, 0.0, [0.1])


# --- batched families against per-pair arcs -----------------------------------

def _sum_spread(cos_c, sin_c, weight=1.0):
    """Largest gap between two summation orders of Σ w(a cos kt + b sin kt).

    Each order lies within γ_n·Σ|terms| of the exact sum (γ_n = nu/(1 − nu),
    u the unit roundoff); n = 2M + 3 counts the 2(M + 1) products, the last
    bit of their cos/sin entries and the final addition."""
    n, u = 2 * len(cos_c) + 1, np.finfo(float).eps / 2.0
    terms = np.abs(cos_c) + np.abs(sin_c)
    return 2.0 * n * u / (1.0 - n * u) * float(np.sum(weight * terms))


def assert_matches_per_pair(curve, fam):
    """Each arc of a batched family against `build_arc` at its endpoints.

    A batch of n pairs and a one-pair call differ only in the order in which
    BLAS sums the trig series of the boundary sample (h, h′) and of the
    moment's antiderivative m. With R ≥ |P| and c the chord:
    - positions move by δP ≤ δh + δh′ (+ u·R for the cos/sin of θ);
    - area A = ½(m(t_hi) − m(t_lo) + b × a) + c²g(τ), |g| ≤ π/8, c ≤ 2R:
      δA ≤ δm + R·δP + 4c|g|·δP ≤ δm + (1 + π)R·δP;
    - curvature 2 sin α/c and length cα/sin α, relatively:
      2δP/c + (|cot α| + 1)·δα. The chord angle's own spread cancels between
      the two endpoint angles, so δα ≤ 16πu is the angle arithmetic's
      rounding in either run.
    """
    h, m, u = curve.h_series, curve._moment_series, np.finfo(float).eps / 2.0
    k_h, k_m = np.arange(h.order + 1), np.arange(1, m.order + 1)
    radius = float(np.sum((1 + k_h) * (np.abs(h.cos_c) + np.abs(h.sin_c))))
    d_pos = (_sum_spread(h.cos_c, h.sin_c) + _sum_spread(h.cos_c, h.sin_c, k_h)
             + u * radius)
    d_area = (_sum_spread(m.cos_c[1:], m.sin_c[1:], 1.0 / k_m)
              + (1.0 + np.pi) * radius * d_pos)
    d_alpha = 16.0 * np.pi * u
    assert len(fam) > 1
    for arc in fam:
        ref = arcs.build_arc(curve, *arc.endpoint_thetas)
        assert (arc.kind, arc.endpoint_thetas, arc.contained) == \
            (ref.kind, ref.endpoint_thetas, ref.contained)
        alpha = 0.5 * ref.length * abs(ref.curvature)
        chord = (2.0 * np.sin(alpha) / abs(ref.curvature) if ref.curvature
                 else ref.length)
        cot = 1.0 / np.tan(alpha) if alpha else 0.0
        rel = 2.0 * d_pos / chord + (cot + 1.0) * d_alpha
        assert abs(arc.enclosed_area - ref.enclosed_area) <= d_area
        assert abs(arc.curvature - ref.curvature) <= rel * abs(ref.curvature)
        assert abs(arc.length - ref.length) <= rel * ref.length


ASYMMETRIC = SupportCurve((1.0, 0.05, 0.03), (0.0, 0.02)).normalized_to(np.pi)


def test_continued_family_matches_per_pair_arcs(ellipse_main):
    assert_matches_per_pair(ellipse_main, arcs.continue_family(
        ellipse_main, 0.3, -0.3, steps=12, ds=0.05))
    [s2] = arcs.scan_arc_roots(ASYMMETRIC, 0.3)
    assert_matches_per_pair(ASYMMETRIC, arcs.continue_family(
        ASYMMETRIC, 0.3, s2, steps=10, ds=0.03))


def test_vertex_family_matches_per_pair_arcs(ellipse_main, fourier_domain):
    offsets = [0.02, 0.05, 0.1, 0.2, 0.3]
    for curve, vertex in ((ellipse_main, 0.0), (ellipse_main, np.pi / 2.0),
                          (fourier_domain, 0.0),
                          (ASYMMETRIC, find_vertices(ASYMMETRIC)[0])):
        assert_matches_per_pair(curve, arcs.vertex_family(curve, vertex, offsets))
