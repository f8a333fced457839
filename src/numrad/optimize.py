"""One-dimensional minimisation without derivatives: Brent's method."""

from __future__ import annotations

import math

INV_PHI_SQ = (3 - math.sqrt(5)) / 2


def golden_min(f, a: float, b: float, tol: float):
    """Minimize f on [a, b] assuming a single local minimum there.

    Brent's method (R. P. Brent, Algorithms for Minimization Without
    Derivatives, 1973, ch. 5): a golden-section search that steps to the
    vertex of the parabola through its three best points where that
    vertex lies inside the bracket and the step is under half the one
    before last.  No step is shorter than tol / 4, so f is evaluated at
    most once per point, and the search stops once the best point lies
    within tol / 2 of both ends of the bracket.  tol is absolute and
    must exceed the spacing of floats near [a, b].

    Returns (x, f(x), width) where x is the best point evaluated (of equal
    values, the first found) and width is the final bracket width, at
    most tol; a bracket at most tol wide returns its midpoint.
    """
    a, b = min(a, b), max(a, b)
    if b - a <= tol:
        x = (a + b) / 2
        return x, f(x), b - a
    step = tol / 4
    x = w = v = a + INV_PHI_SQ * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0  # the last step and the one before it
    while max(x - a, b - x) > 2 * step:
        m = (a + b) / 2
        # the parabola's vertex is x + p / q
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2 * (q - r)
        p, q = (-p, q) if q > 0 else (p, -q)
        if (abs(e) > step and abs(p) < abs(q * e / 2)
                and q * (a - x) < p < q * (b - x)):
            e, d = d, p / q
            if min(x + d - a, b - x - d) < 2 * step:
                d = math.copysign(step, m - x)
        else:
            e = (a if x >= m else b) - x
            d = INV_PHI_SQ * e
        u = x + (d if abs(d) >= step else math.copysign(step, d))
        fu = f(u)
        if fu < fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx, b - a


def golden_max(f, a: float, b: float, tol: float):
    """Maximize f on [a, b]; see golden_min."""
    x, y, w = golden_min(lambda t: -f(t), a, b, tol)
    return x, -y, w
