import math

import numpy as np
import pytest

from numrad import minimize_over_t, radius
from numrad.optimize import (SECANT_STEPS_MAX, golden_max, golden_min,
                             secant_min)

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
    # and A_t^2, Brent's and Newton's (2,788 with golden-section search in
    # theta and t, 497 with Brent's method in both, 48 with Newton's steps
    # in theta and Brent's method in t, 18 with secant steps in t)
    steps = [0]
    for name in ("_lambda_max_rotated", "_newton_step"):
        def counted(a, theta, *args, step=getattr(radius, name)):
            steps[0] += 1
            return step(a, theta, *args)

        monkeypatch.setattr(radius, name, counted)
    minimize_over_t("aluthge-t", ginibre(np.random.default_rng(2026), 8))
    assert steps[0] <= 18, steps[0]


def traced(f, calls):
    """f, recording each point where it is called in calls."""
    def g(t):
        calls.append(t)
        return f(t)
    return g


def test_secant_min_steps_to_a_smooth_minimum():
    # f = cosh(t - c), convex, with f' = sinh(t - c) changing sign at c
    for c in (0.21, 0.27, 0.3001, 0.39):
        calls = []
        t, v = secant_min(traced(lambda t: (math.cosh(t - c),
                                            math.sinh(t - c)), calls),
                          0.3, 0.2, 0.4, 1e-8)
        # cosh rounds to 1 within 1e-8 of c: the secant stops on that plateau
        assert v == 1.0 and abs(t - c) < 1e-7 and t in calls, c
        assert len(calls) <= 6, (c, calls)
        assert all(0.2 <= p <= 0.4 for p in calls)


def test_secant_min_scales_the_slope_it_keeps():
    # f' = expm1(40 (t - 0.3)) is steep above its root and flat below, so
    # the steps come from below: plain regula falsi, and Illinois's halving
    # of the slope kept above, do not converge in SECANT_STEPS_MAX steps
    calls = []
    t, v = secant_min(traced(lambda t: (math.exp(40 * (t - 0.3)) / 40 - t,
                                        math.expm1(40 * (t - 0.3))), calls),
                      0.5, 0.25, 0.75, 1e-8)
    assert abs(t - 0.3) < 1e-9 and len(calls) <= 12, (t, calls)


def test_secant_min_returns_the_best_point_met():
    # the last point met is not the best where f' is ahead of f
    values = {}

    def f(t):
        values[t] = (t - 0.3) ** 2 + (1e-3 if 0.3 < t < 0.31 else 0.0)
        return values[t], 2 * (t - 0.3)

    t, v = secant_min(f, 0.35, 0.25, 0.45, 1e-8)
    assert v == min(values.values()) and values[t] == v


def test_secant_min_stops_at_once_where_the_slope_is_at_rounding_level():
    # |f'(t0)| (hi - lo) against one ulp of f(t0): 4 * 0.2 ulps
    ulp = math.ulp(2.0)
    calls = []
    got = secant_min(traced(lambda t: (2.0, 4 * ulp), calls), 0.5, 0.4,
                     0.6, 1e-8)
    assert got == (0.5, 2.0) and calls == [0.5]
    # above that level, it evaluates the end that f' points to
    calls.clear()
    secant_min(traced(lambda t: (2.0, 6 * ulp), calls), 0.5, 0.4, 0.6, 1e-8)
    assert calls[:2] == [0.5, 0.4]


@pytest.mark.parametrize("t0, slope", [(0.2, 1.0), (0.4, -1.0)])
def test_secant_min_stops_at_an_end_whose_slope_points_out(t0, slope):
    calls = []
    got = secant_min(traced(lambda t: (slope * t, slope), calls), t0, 0.2,
                     0.4, 1e-8)
    assert got == (t0, slope * t0) and calls == [t0]


def test_secant_min_gives_none_where_the_ends_slopes_share_a_sign():
    # f' > 0 at t0 and at lo: the minimum is not in the bracket
    calls = []
    got = secant_min(traced(lambda t: (t * t, 2 * t), calls), 0.3, 0.2, 0.4,
                     1e-8)
    assert got is None and calls == [0.3, 0.2]


def test_secant_min_gives_none_at_a_kink():
    # f' jumps from -1 to 2 at the kink: the secant creeps up on it, and
    # stops after its last step, short of a point as good as Brent's
    calls = []
    got = secant_min(traced(lambda t: (max(0.3 - t, 2 * (t - 0.3)),
                                       -1.0 if t < 0.3 else 2.0), calls),
                     0.31, 0.2, 0.4, 1e-8)
    assert got is None and len(calls) == SECANT_STEPS_MAX + 2


def test_secant_min_gives_none_where_a_slope_is_none():
    for none_at in (0.3, 0.2, 0.25):
        calls = []
        got = secant_min(traced(lambda t: ((t - 0.25) ** 2, None if abs(
            t - none_at) < 0.02 else 2 * (t - 0.25)), calls), 0.3, 0.2, 0.4,
            1e-8)
        assert got is None, none_at
