import math

import numpy as np
import pytest

from numrad import minimize_over_t, radius
from numrad.optimize import golden_max, golden_min

from conftest import ginibre

TOL = 1e-10
# the bracket of a refined sweep on the default grid: [theta - 2h, theta + 2h]
H = math.pi / 720


def searched(f, a, b, tol=TOL, search=golden_min):
    """search(f, a, b, tol) and the points where it evaluated f."""
    points = []

    def counted(x):
        points.append(x)
        return f(x)
    return search(counted, a, b, tol), points


CASES = {
    "cos": (lambda x: -math.cos(x), -2 * H, 2 * H),
    "cos off the grid angle": (lambda x: -math.cos(x - 0.3 * H), -2 * H,
                               2 * H),
    "smooth, no rounding plateau": (
        lambda x: 2 * math.sin((x - 0.3 * H) / 2) ** 2, -2 * H, 2 * H),
    "kink": (lambda x: abs(x - 0.7 * H), -2 * H, 2 * H),
    "minimum at an end": (lambda x: x, 0.0, 1.0),
    "flat": (lambda x: 1.0, 0.0, 1.0),
    "inf on the left": (lambda x: math.inf if x < 0.3 else (x - 0.4) ** 2,
                        0.0, 1.0),
    "nan": (lambda x: math.nan, 0.0, 1.0),
    "nan on the right": (lambda x: math.nan if x > 0.6 else (x - 0.5) ** 2,
                         0.0, 1.0),
}


@pytest.mark.parametrize("case", CASES)
def test_search_ends_in_a_bracket_at_most_tol(case):
    f, a, b = CASES[case]
    (x, fx, width), points = searched(f, a, b)
    assert 0 < width <= TOL
    assert a <= x <= b
    # f is evaluated once per point, and x is the point evaluated best
    assert len(set(points)) == len(points) < 100
    assert x in points
    values = [f(p) for p in points if not math.isnan(f(p))]
    assert fx == min(values) if values else math.isnan(fx)


def test_a_smooth_peak_takes_few_steps():
    # golden section takes 41 evaluations on this bracket at 1e-10
    (x, fx, width), points = searched(math.cos, -2 * H, 2 * H,
                                      search=golden_max)
    assert fx == 1.0 and abs(x) <= TOL and len(points) <= 25
    # with the peak between grid angles: cos rounds to 1 within 1e-8 of
    # its peak, where the parabolic steps stall and golden ones go on
    for offset in np.linspace(-1, 1, 9):
        (x, fx, width), points = searched(
            lambda th: math.cos(th - offset * H), -2 * H, 2 * H,
            search=golden_max)
        assert fx == 1.0 and abs(x - offset * H) < 1e-8
        assert len(points) < 41, offset
        # the same peak without the rounding plateau
        (x, fx, width), points = searched(
            lambda th: -2 * math.sin((th - offset * H) / 2) ** 2,
            -2 * H, 2 * H, search=golden_max)
        assert abs(x - offset * H) <= TOL and len(points) <= 10, offset


def test_a_kink_is_found_within_tol():
    for c in (-1.3 * H, 0.0, 0.2 * H, 1.9 * H):
        (x, fx, width), _ = searched(lambda x: abs(x - c), -2 * H, 2 * H)
        assert abs(x - c) <= TOL and width <= TOL


def test_a_bracket_at_most_tol_gives_its_midpoint():
    for a, b in ((0.0, TOL), (TOL / 2, 0.0), (0.3, 0.3)):
        (x, fx, width), points = searched(lambda x: (x - 0.2) ** 2, a, b)
        assert points == [x] and x == (a + b) / 2
        assert width == abs(b - a) and fx == (x - 0.2) ** 2


def test_golden_max_mirrors_golden_min():
    def f(x):
        return math.sin(3 * x) + 0.1 * x

    for a, b in ((0.0, 1.0), (1.0, 0.0), (0.2, 0.2 + TOL / 2)):
        x, fx, width = golden_max(f, a, b, 1e-9)
        y, fy, w = golden_min(lambda t: -f(t), a, b, 1e-9)
        assert (x, fx, width) == (y, -fy, w)


def test_aluthge_t_minimisation_takes_few_refinement_steps(monkeypatch):
    # single-matrix steps of the theta-refinements of the sweeps of A_t
    # and A_t^2 (2,788 with golden-section search in theta and t, 497
    # with Brent's method in both)
    steps = [0]
    step = radius._lambda_max_rotated

    def counted(a, theta):
        steps[0] += 1
        return step(a, theta)

    monkeypatch.setattr(radius, "_lambda_max_rotated", counted)
    minimize_over_t("aluthge-t", ginibre(np.random.default_rng(2026), 8))
    assert steps[0] <= 1000, steps[0]
