"""One-dimensional minimisation: Brent's method, which uses values only,
and a secant on the derivative, whose callers fall back to Brent's method
where it gives up."""

from __future__ import annotations

import math

INV_PHI_SQ = (3 - math.sqrt(5)) / 2
# The most secant steps secant_min takes before it gives up.
SECANT_STEPS_MAX = 12


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


def secant_min(f, t0: float, lo: float, hi: float, tol: float):
    """Minimize f on [lo, hi] from t0 by a regula falsi on f', f(t) giving
    (f(t), f'(t) or None): the end that f'(t0) points to closes the
    bracket, and where two steps in a row move one end, the slope kept at
    the other is scaled by 1 - f'(new)/f'(old) of the moved end (Anderson
    and Bjorck), or by 1/2 (Illinois) where that is not positive.  It stops
    once |f'| at the last point met, times the next step, is at most one
    ulp of f there (a convex f falls by no more), or after a step in a
    bracket at most tol wide: at t0 at once where |f'(t0)| (hi - lo) is,
    or where f' points out of [lo, hi] at its end t0.  Returns (t, f(t))
    for the best point met (the first of equal values), or None where the
    ends' slopes share a sign, a slope is None, a step leaves the bracket
    or SECANT_STEPS_MAX steps do not converge."""
    v0, s0 = f(t0)
    if s0 is None:
        return None
    end = lo if s0 > 0 else hi
    if abs(s0) * (hi - lo) <= math.ulp(v0) or end == t0:
        return t0, v0
    last = (end, *f(end))
    if last[2] is None or (last[2] > 0) == (s0 > 0):
        return None
    best = min((t0, v0), last[:2], key=lambda p: p[1])
    # [t, f'] at the bracket's ends a < b, f' < 0 at a; the end last moved
    ends, moved = sorted([[t0, s0], [end, last[2]]]), int(last[2] > 0)
    for _ in range(SECANT_STEPS_MAX):
        (a, sa), (b, sb) = ends
        c = b - sb * (b - a) / (sb - sa)
        if abs(last[2] * (c - last[0])) <= math.ulp(last[1]):
            return best
        if not a < c < b:
            return None
        last = (c, *f(c))
        if last[2] is None:
            return None
        best = min(best, last[:2], key=lambda p: p[1])
        if b - a <= tol:
            return best
        side = int(last[2] > 0)  # the end that c takes the place of
        if moved == side:
            m = 1 - last[2] / ends[side][1]
            ends[1 - side][1] *= m if m > 0 else 0.5
        ends[side] = [c, last[2]]
        moved = side
    return None
