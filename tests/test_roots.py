"""`invert_monotone_many` against scipy's `find_root`, which runs the same
Chandrupatla iteration inside scipy's elementwise framework, and
`sign_change_roots` against scipy's `brentq` on each cell."""

import numpy as np
import pytest
from scipy.optimize import brentq

from isoperim._roots import invert_monotone_many, sign_change_roots
from isoperim.geometry import SCAN_NODES, TWO_PI, SupportCurve
from isoperim.trig import TrigSeries


@pytest.fixture
def check(find_root_solver):
    def check(fn, lo, hi, xtol, args=()):
        """Assert the same x and status as `find_root`; return them with the
        iterations each element took."""
        x, status = invert_monotone_many(fn, lo, hi, xtol, args=args)
        x_ref, status_ref, nit = find_root_solver(fn, lo, hi, xtol, args=args)
        assert np.array_equal(x, x_ref, equal_nan=True)
        assert np.array_equal(status, status_ref)
        return x, status, nit
    return check


def test_cubic_per_lane_args(check):
    c = np.linspace(-5.0, 5.0, 23)
    _, status, nit = check(lambda x, c: x ** 3 - 2.0 * x - c,
                           np.full(23, -3.0), np.full(23, 3.0), 1e-14, args=(c,))
    assert np.all(status == 0) and len(set(nit)) > 2


def test_exact_zero_at_an_end(check):
    x, status, nit = check(lambda x: x - 1.0, np.array([1.0, 0.0, 0.5]),
                           np.array([2.0, 1.0, 3.0]), 1e-13)
    assert list(status) == [0, 0, 0] and list(nit[:2]) == [0, 0]
    assert list(x[:2]) == [1.0, 1.0]


def test_sign_error_lanes_return_the_nearer_end(check):
    # |fn| ties at ±2 on the first lane, so lo wins
    x, status, _ = check(lambda x: x * x + 1.0, np.array([-2.0, 2.5, -3.0, 0.0]),
                         np.array([2.0, 3.0, 1.0, 3.0]), 1e-13)
    assert list(status) == [-1, -1, -1, -1]
    assert list(x) == [-2.0, 2.5, 1.0, 0.0]


def test_nan_lanes_stop_with_status_minus_3(check):
    _, status, _ = check(lambda x: np.where(x > 0.3, np.nan, x - 0.5),
                         np.array([0.0, 0.6, 0.0]), np.array([1.0, 1.0, 2.0]), 1e-13)
    assert list(status) == [-3, -3, -3]


def test_integer_args_index_lanes(check):
    roots = np.array([0.1, 0.7, 0.35, 0.9])

    def fn(x, lane):
        assert lane.dtype.kind == "i"
        return np.tanh(8.0 * (x - roots[lane]))

    _, status, _ = check(fn, np.zeros(4), np.ones(4), 1e-14, args=(np.arange(4),))
    assert np.all(status == 0)


def test_ends_in_one_call_and_no_call_on_a_closed_lane(check):
    # lane 0 hits its root exactly at the first bisection, but its NaN end
    # turns find_root's |f| test off, so it runs on to the x test
    c = np.array([np.sinh(1.5), 1.0, 2.0, 3.0, 4.0, 100.0])
    lo, hi, lanes = np.zeros(6), np.full(6, 3.0), np.arange(6)
    calls = []

    def f(x, c, lane):
        return np.where((lane == 0) & (x > 2.9), np.nan, np.sinh(x) - c)

    def spy(x, c, lane):
        calls.append(lane.copy())
        return f(x, c, lane)

    _, status, nit = check(f, lo, hi, 1e-14, args=(c, lanes))
    invert_monotone_many(spy, lo, hi, 1e-14, args=(c, lanes))
    assert list(status) == [0, 0, 0, 0, 0, -1] and nit[0] > 1
    assert list(calls[0]) == list(lanes) * 2
    # lane i is evaluated in exactly the nit[i] calls after the ends
    for i in lanes:
        assert [i in lane for lane in calls[1:]] == [k < nit[i]
                                                     for k in range(len(calls) - 1)]


def test_sign_change_roots_match_brentq():
    def fn(x, row):
        return np.where(row == 0, x * (x * x - 2.0), np.cos(3.0 * x))

    # row 0 has an exact zero at the node x = 0 (step 1/8)
    grid = np.tile(np.linspace(-2.0, 2.0, 33), (2, 1))
    vals = fn(grid, np.arange(2)[:, None])
    row, roots = sign_change_roots(fn, grid, vals, 1e-12)
    sqrt2, pi = np.sqrt(2.0), np.pi
    assert list(row) == [0, 0, 0, 1, 1, 1, 1]
    assert np.allclose(roots, [-sqrt2, 0.0, sqrt2, -pi / 2, -pi / 6, pi / 6, pi / 2],
                       rtol=0.0, atol=1e-12)
    assert roots[1] == 0.0
    for k, x in zip(row, roots):
        i = np.searchsorted(grid[k], x, side="right") - 1
        if x != grid[k, i]:
            ref = brentq(fn, grid[k, i], grid[k, i + 1], xtol=1e-12, args=(k,))
            assert abs(x - ref) <= 1e-12

    # rows without a sign change give no roots
    row, roots = sign_change_roots(fn, grid[:, 8:25], vals[:, 8:25] ** 2 + 1.0, 1e-12)
    assert row.size == roots.size == 0


def test_sign_change_roots_on_a_cell_the_scan_alone_brackets():
    """find_vertices' wrap cell on this domain: the FFT scan reads ρ' = 0
    exactly at 2π, where ρ' itself reads −2.6e-16, so ρ' keeps one sign on
    the cell; the root is the end with the smaller |ρ'|."""
    rho1 = SupportCurve((1.0, 0.0, 0.05, 0.0, 0.002)).rho_series.derivative()
    vals = TrigSeries.on_grid(SCAN_NODES, rho1)[0]
    grid = np.array([[TWO_PI * (SCAN_NODES - 1) / SCAN_NODES, TWO_PI]])
    ends = rho1(grid[0])
    assert vals[-1] < 0.0 == vals[0] and np.all(ends < 0.0)
    with pytest.raises(ValueError):
        brentq(rho1, *grid[0], xtol=1e-12)
    row, roots = sign_change_roots(lambda x, _: rho1(x), grid,
                                   np.array([[vals[-1], vals[0]]]), 1e-12)
    assert list(row) == [0] and list(roots) == [TWO_PI]
