import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from isoperim._roots import XRTOL
from isoperim.geometry import SupportCurve

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

SQRT2 = np.sqrt(2.0)


@pytest.fixture(scope="session")
def unit_disk():
    return SupportCurve.disk()


@pytest.fixture(scope="session")
def ellipse_main():
    """Area-pi ellipse with semi-axes sqrt(2) and 1/sqrt(2)."""
    return SupportCurve.ellipse(SQRT2, 1.0 / SQRT2)


def make_ellipse(eps: float) -> SupportCurve:
    """Area-pi ellipse with semi-axes (1+eps, 1/(1+eps))."""
    return SupportCurve.ellipse(1.0 + eps, 1.0 / (1.0 + eps))


@pytest.fixture(scope="session")
def ellipse_family():
    return {eps: make_ellipse(eps) for eps in (0.3, 0.1, 0.01)}


@pytest.fixture(scope="session")
def fourier_domain():
    """Non-elliptic bi-symmetric four-vertex domain, normalized to area pi."""
    raw = SupportCurve((1.0, 0.0, 0.1, 0.0, 0.004))
    return raw.normalized_to(np.pi)


@pytest.fixture(scope="session")
def class_a_suite(ellipse_main, ellipse_family, fourier_domain):
    suite = {"ellipse_sqrt2": ellipse_main, "fourier": fourier_domain}
    for eps, curve in ellipse_family.items():
        suite[f"ellipse_eps_{eps}"] = curve
    return suite


@pytest.fixture(scope="session")
def find_root_solver():
    """`invert_monotone_many` as one scipy `find_root` call, the reference
    for its in-house loop; also returns the iterations each element took."""
    elementwise = pytest.importorskip("scipy.optimize.elementwise")

    def solve(fn, lo, hi, xtol, args=()):
        res = elementwise.find_root(fn, (lo, hi), args=args,
                                    tolerances=dict(xatol=xtol, xrtol=XRTOL))
        (x_l, x_r), (f_l, f_r) = res.bracket, res.f_bracket
        ends = np.where(np.abs(f_l) <= np.abs(f_r), x_l, x_r)
        return np.where(res.status == -1, ends, res.x), res.status, res.nit

    return solve
