"""Catalog of numerical-radius upper bounds and their t-optimization.

Throughout, X = |A| and Y = |A*|.  Fractional powers of both are cheap
because they share the singular value decomposition of A, which is
computed once per context, and those of exponent 1/2, 1 and 2 are kept.
All bound evaluators return a BoundValue whose value is directly
comparable to omega(A); bounds stated in the squared form record the
pre-square-root quantity under detail["inner"].

Every catalog bound is one function of (ctx, t) giving (value, detail),
registered in one table, _BOUNDS, with None for a fixed bound, which
ignores t or is a weighted bound at one weight, and for a weighted bound,
evaluated at a float t, its _Weighted row: how minimize_over_t minimises
it.  All six are quasi-convex in t, with the proofs in their docstrings,
and share one certified scan, _quasi_convex_scan.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NonFinite, NumradError
from .matrix import fits, float_power, frobenius, gnorm, hnorm
from .optimize import golden_min, secant_min
from .polar import T_MIN, _check_weight, _Spectral
from .radius import (BRACKET_REL, DEFAULT_GRID, THETA_GRID_MIN, RadiusEstimate,
                     check_count, warm_sweep)

# Grid of the t-scan: its default size, and the smallest it accepts.
DEFAULT_T_GRID = 1001
T_GRID_MIN = 1
# Width in t at which the refinement of the t-scan (Brent's method) stops.
REFINE_TOL = 1e-8


@dataclass(frozen=True)
class WeightParams:
    t: float

    def __post_init__(self):
        _check_weight(self.t)


def weight_params(t: float) -> WeightParams:
    return WeightParams(t=float(t))


@dataclass(frozen=True)
class BoundValue:
    id: str
    t_used: float | None
    value: float
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BoundReport:
    omega: RadiusEstimate
    bounds: list
    slacks: dict


class BoundContext(_Spectral):
    """The spectral core of one matrix, or the core it is given, with the
    sweep settings and caches of its bounds' values by (id, t) (see
    _evaluate), of the matrices swept as sorted records (see sweep and
    near), and of ||X^s Y^s||; refine
    refines both its sweeps in theta and minimize_over_t in t.  Its sweeps
    are radius.warm_sweep's: radius_sweep's, bit for bit, with refine off,
    and refined by Newton steps with it on.  Its matrix (in the core) and
    theta_grid are validated here, once: its sweeps trust them."""

    def __init__(self, a, theta_grid: int = DEFAULT_GRID,
                 refine: bool = True):
        check_count("theta_grid", theta_grid, THETA_GRID_MIN)
        super().__init__(a)
        self.theta_grid = theta_grid
        self.refine = refine
        self._values: dict = {}
        # per kind: [(t, matrix, upper ends, peak angle, value)], sorted by t
        self._swept: dict = {}
        self._xy_norm: dict = {}

    def xy_norm(self, s: float) -> float:
        """||X^s Y^s|| for the float s, cached under s: product's t-scan
        meets 1 - t as a grid point of its own at about half the grid."""
        if s not in self._xy_norm:
            self._xy_norm[s] = gnorm(self.xpow(s) @ self.ypow(s))
        return self._xy_norm[s]

    def sweep(self, kind: str, t: float, m) -> float:
        """omega(m) by the context's sweep for the matrix m of kind at t,
        such as A_t of kind "alu"; inf if m does not fit (matrix.fits: its
        entries or norm overflow), with no record.  Its sweep is
        radius.warm_sweep, warm-started from the record that near(kind, t)
        gives, and its record is kept for the next sweep, for _omega_lower
        and to answer the same (kind, t) again.  A zero m's record
        warm-starts nothing that a cold sweep would not: its upper ends
        are 0, so a neighbour warm-started from it would solve every angle,
        and goes cold (or solves the cold subgrid's stack, where that is
        every angle), with the same bits.
        """
        record = self.near(kind, t)
        if record and record[0] == t:
            return record[4]
        if not fits(m):
            return math.inf
        est, upper = warm_sweep(m, self.theta_grid, self.refine,
                                record and record[1:3])
        bisect.insort(self._swept.setdefault(kind, []),
                      (t, m, upper, est.theta_star, est.value),
                      key=lambda r: r[0])
        return est.value

    def near(self, kind: str, t: float):
        """The record (t', matrix, upper ends, peak angle, value) of kind
        whose t' is nearest to t, and of two at the same distance the one
        at the larger t'; None if none is kept.  The rounded distance does
        not fall as t' moves away from t, so the nearest is a neighbour of
        t's place in the sorted records."""
        records = self._swept.get(kind, [])
        i = bisect.bisect_left(records, t, key=lambda r: r[0])
        return min(reversed(records[max(i - 1, 0):i + 1]),
                   key=lambda r: abs(r[0] - t), default=None)


def _classic(ctx: BoundContext, t):
    return ctx.norm_a, {"lower": ctx.norm_a / 2}


def _kitt_sum(ctx: BoundContext, t):
    return 0.5 * hnorm(ctx.xpow(1.0) + ctx.ypow(1.0)), {}


def _kitt_mixed(ctx: BoundContext, t):
    norm_sq = gnorm(ctx.a @ ctx.a)
    value = 0.5 * (ctx.norm_a + math.sqrt(norm_sq))
    return value, {"norm_a_squared": norm_sq}


def _integral_operand(ctx: BoundContext) -> np.ndarray:
    x, y = ctx.xpow(1.0), ctx.ypow(1.0)
    xy = x @ y
    return (ctx.xpow(2.0) + ctx.ypow(2.0)) / 3 + (xy + xy.conj().T) / 6


def _integral(ctx: BoundContext, t):
    inner = hnorm(_integral_operand(ctx))
    return math.sqrt(inner), {"inner": inner}


def _integral_refined(ctx: BoundContext, t):
    d = ctx.xpow(1.0) - ctx.ypow(1.0)
    inner = hnorm(_integral_operand(ctx) - d @ d / 48)
    return math.sqrt(inner), {"inner": inner}


def _yamazaki(ctx: BoundContext, t):
    wa = ctx.sweep("alu", 0.5, ctx.aluthge(0.5))
    return 0.5 * (ctx.norm_a + wa), {"omega_aluthge": wa}


def _aluthge_weighted(ctx: BoundContext, t):
    """sqrt(||X^4t + X^4(1-t)||/4 + ||A||^2/2 + ||A_t*A_t + A_tA_t*||/4 +
    omega(A_t^2)/2 + ||X^2t + X^2(1-t)|| omega(A_t))/2, A_t = ctx.aluthge(t),
    quasi-convex in t.

    At t = 1/2, where X^(4t) = X^(4(1-t)) = X^2 and X^(2t) = X^(2(1-t)) =
    X, term_pow4 = term_norm = ||A||^2/2 and term_cross = 2||A|| omega(A~)
    for the Aluthge transform A~ = A_(1/2): the bound is aluthge-half,
    sqrt(||A||^2 + ||A~*A~ + A~A~*||/4 + omega(A~^2)/2 + 2||A|| omega(A~))/2.

    Every term is unitarily invariant.  With A = W S V*, S = diag(sigma),
    V* A_t V is B(t) = S^(1-t) K S^t for K = V* U V.  B(z) = S^(1-z) K S^z
    (0^z = 0) is analytic and bounded on 0 <= Re z <= 1, and B(a + iy) =
    S^(-iy) B(a) S^(iy), where S^(iy) is a partial isometry.  The
    three-lines theorem bounds an analytic F at t by its suprema on the
    lines Re z = a, b around t, which gives:
    - log omega(A_t) convex, from F(z) = <B(z)x, x> for a unit x: on
      Re z = a, F = <B(a)x', x'> with x' = S^(iy) x.  B(t)^2 =
      S^(1-t) (K S K) S^t has the same form, so log omega(A_t^2) too.
    - log lambda_max(A_t*A_t + A_tA_t*) convex, from F(z) = <B(z)x, u> +
      <B(z)^T conj(x), v>, ||u||^2 + ||v||^2 = 1, whose supremum over u, v
      is sqrt(||B x||^2 + ||B* x||^2): on Re z = a, B(a + iy)^T conj(x) =
      S^(iy) B(a)^T conj(x'), and B(a)^T conj(x') = conj(B(a)* x'), so
      both phases act on x alike.
    The X-only norms are maxima over sigma of sums of exponentials in t:
    term_pow4 is convex, and the factor of term_cross log-convex.  So the
    sum under the root is convex (a log-convex function is convex, and a
    product of two is log-convex), and the bound is quasi-convex.

    Where A_(1/2) = 0 its minimum is at t = 1/2 (its row's t_star).  The
    entries of B(t) are sigma_i^(1-t) K_ij sigma_j^t over the singular
    directions kept, so outside underflow B(t) is zero at every t in
    (0, 1) or at none, and it is zero exactly where A^2 = W S K S V* is
    (A^2 = 0).
    Then term_mod, term_sq and term_cross vanish, and the bound is
    sqrt(max_i(sigma_i^4t + sigma_i^4(1-t))/4 + ||A||^2/2)/2.  Each
    sigma^4t + sigma^4(1-t) = 2 sigma^2 cosh((4t - 2) ln sigma) is at
    least 2 sigma^2, with equality at t = 1/2, where the bound is ||A||/2,
    which is omega(A) for a square-zero A.
    """
    alu = ctx.aluthge(t)
    wa = ctx.sweep("alu", t, alu)
    wa2 = ctx.sweep("alu2", t, alu @ alu)
    term_pow4 = 0.25 * hnorm(ctx.xpow(4 * t) + ctx.xpow(4 * (1 - t)))
    cross = hnorm(ctx.xpow(2 * t) + ctx.xpow(2 * (1 - t)))
    term_norm = 0.5 * float_power(ctx.norm_a, 2)
    term_mod = 0.25 * hnorm(alu.conj().T @ alu + alu @ alu.conj().T)
    term_sq = 0.5 * wa2
    term_cross = cross * wa
    inner = term_pow4 + term_norm + term_mod + term_sq + term_cross
    # NaN where term_cross is inf * 0: X's powers overflow and A_t = 0
    return 0.5 * (math.sqrt(inner) if math.isfinite(inner) else math.inf), {
        "inner": inner, "term_pow4": term_pow4, "term_norm": term_norm,
        "term_mod": term_mod, "term_sq": term_sq, "term_cross": term_cross,
        "omega_aluthge": wa, "omega_aluthge_sq": wa2}


def _top_slope(h, dh, width: float):
    """y* Re(dh) y for the top eigenvector y of Re(h), the slope of
    lambda_1(Re(h + s dh)) at s = 0; None where its gap to lambda_2 is
    below ||Re(dh)||_F width, so that lambda_1 may not be simple (and its
    slope may jump) for |s| <= width."""
    h, dh = (h + h.conj().T) / 2, (dh + dh.conj().T) / 2
    w, v = np.linalg.eigh(h)
    if w.size > 1 and w[-1] - w[-2] < frobenius(dh) * width:
        return None
    return float((v[:, -1].conj() @ dh @ v[:, -1]).real)


def _aluthge_slope(ctx: BoundContext, t: float, width: float):
    """aluthge-t's slope at a t it was evaluated at, for a search within
    width of t; None where it is not finite or a _top_slope is None.  With
    L = V diag(ln sigma) V* (0 where sigma = 0), A_t' = A_t L - L A_t.  An
    omega term's slope is x* Re(e^{i theta} M') x at its sweep's peak angle
    (Danskin), term_mod's y* H' y (Hellmann-Feynman), and the X-only norms
    are taken at their argmax sigma."""
    detail = ctx._values["aluthge-t", t].detail
    if not 0 < detail["inner"] < math.inf:
        return None
    s, alu = ctx.sigma, ctx.aluthge(t)
    log = np.log(s, out=np.zeros_like(s), where=s > 0)
    ell = (ctx.right * log) @ ctx.right.conj().T
    d_alu = alu @ ell - ell @ alu
    # term_mod's H' is K + K* = 2 Re(K)
    k_mod = d_alu.conj().T @ alu + alu @ d_alu.conj().T
    slopes = [_top_slope(alu.conj().T @ alu + alu @ alu.conj().T, 2 * k_mod,
                         width)]
    for kind, m, dm in (("alu", alu, d_alu),
                        ("alu2", alu @ alu, d_alu @ alu + alu @ d_alu)):
        record = ctx.near(kind, t)
        p = np.exp(1j * (record[3] if record else 0.0))
        slopes.append(_top_slope(p * m, p * dm, width))
    if None in slopes:
        return None
    root = math.sqrt(detail["inner"])
    x = []  # over root: max(sigma^kt + sigma^k(1-t)) and its slope, k = 4, 2
    for k in (4, 2):
        i = (s ** (k * t) + s ** (k * (1 - t))).argmax()
        a, b = s[i] ** (k * t) / root, s[i] ** (k * (1 - t)) / root
        x += [a + b, k * log[i] * (a - b)]
    # f' = inner' / (4 root), inner' = pow4'/4 + mod'/4 + wa2'/2 + (cross wa)'
    d_mod, d_wa, d_wa2 = slopes
    slope = (x[1] / 4 + (d_mod / 4 + d_wa2 / 2) / root
             + x[3] * detail["omega_aluthge"] + x[2] * d_wa) / 4
    return float(slope) if math.isfinite(slope) else None


def _weighted_power(ctx: BoundContext, t):
    """sqrt ||(1 - t) X^(1/(1-t)) + t Y^(1/t)||, quasi-convex in t.

    For a PSD P = V diag(sigma) V* and a > 0, t P^(a/t) is
    V diag(t sigma_i^(a/t)) V*, and t sigma^(a/t) = t exp(a ln(sigma) / t)
    is the perspective of the convex u -> exp(a ln(sigma) u), so convex in
    t > 0 (and 0 where sigma = 0).  A family diagonal in one basis with
    convex entries is convex in the Loewner order, and sums keep that, so
    the PSD operand M(t) is Loewner-convex (its X part in 1 - t).
    lambda_max, which hnorm gives on a PSD operand, is monotone and convex
    on Hermitian matrices, so lambda_max(M(t)) is convex in t, and the
    bound, an increasing function of it, is quasi-convex.
    """
    m = (1 - t) * ctx.xpow(1 / (1 - t)) + t * ctx.ypow(1 / t)
    inner = hnorm(m)
    return math.sqrt(inner), {"inner": inner}


def _weighted_r(ctx: BoundContext, t):
    """sqrt(||X^2 + Y^2 - c (X - Y)^2|| / 2) with c = min(t, 1 - t),
    quasi-convex in t.

    The operand is (1 - 2c)(X^2 + Y^2) + c (X + Y)^2, PSD for c in
    [0, 1/2], and its derivative in c is -(X - Y)^2, so it is
    non-increasing in c in the Loewner order, and so is the bound, as
    lambda_max is monotone.  c rises on (0, 1/2] and falls on [1/2, 1),
    so the bound falls and then rises: it is quasi-convex in t.
    """
    c = t * (1 - t) / max(t, 1 - t)
    d = ctx.xpow(1.0) - ctx.ypow(1.0)
    m = ctx.xpow(2.0) + ctx.ypow(2.0) - c * (d @ d)
    inner = 0.5 * hnorm(m)
    return math.sqrt(inner), {"inner": inner}


def _product(ctx: BoundContext, t):
    """(||A|| + sqrt(f(t) f(1 - t))) / 2 with f(s) = ||X^s Y^s||,
    quasi-convex in t and symmetric about 1/2.

    log f is convex by the three-lines theorem: for unit vectors u, v,
    z -> <X^z Y^z u, v> is analytic and bounded on a strip a <= Re z <= b,
    and X^(iy), Y^(iy) are partial isometries, so log f at a point of
    [a, b] is at most the interpolation of log f(a) and log f(b).  So
    log f(t) + log f(1 - t) is convex and symmetric about 1/2, and the
    bound, an increasing function of it, is quasi-convex (f = 0 at one s
    only if X^s Y^s = 0 at every s, where the bound is constant).
    """
    n1, n2 = ctx.xy_norm(t), ctx.xy_norm(1 - t)
    value = 0.5 * (ctx.norm_a + math.sqrt(n1 * n2))
    return value, {"norm_t": n1, "norm_one_minus_t": n2}


def _fourth_power(ctx: BoundContext, t):
    """sqrt ||(X^(4(1-t)) + Y^(4t))/4 + ((1 - t) X^2 + t Y^2)/2||,
    quasi-convex in t.

    sigma^(4t) = exp(4t ln sigma) is convex in t, and the last term is
    affine, so the PSD operand is Loewner-convex in t, and the bound is an
    increasing function of its convex lambda_max, as for weighted-power.
    """
    m = ((ctx.xpow(4 * (1 - t)) + ctx.ypow(4 * t)) / 4
         + ((1 - t) * ctx.xpow(2.0) + t * ctx.ypow(2.0)) / 2)
    inner = hnorm(m)
    return math.sqrt(inner), {"inner": inner}


def _schwarz_radius(ctx: BoundContext, t):
    """sqrt((sqrt ||t X^(2/t) + (1 - t) Y^(2/(1-t))|| + omega(A^2)) / 2),
    quasi-convex in t.

    The PSD operand is Loewner-convex in t by the perspective argument of
    weighted-power, and the bound is an increasing function of its
    lambda_max, omega(A^2) being fixed.
    """
    m = t * ctx.xpow(2 / t) + (1 - t) * ctx.ypow(2 / (1 - t))
    # A^2 = A_1^2, the one matrix of its kind
    wa2 = ctx.sweep("a2", 1.0, ctx.a @ ctx.a)
    inner = 0.5 * (math.sqrt(hnorm(m)) + wa2)
    return math.sqrt(inner), {"inner": inner, "omega_a_squared": wa2}


# ---------------------------------------------------------------------------
# the certified t-scan: it visits grid points through value_at(i), the bound
# at ts[i] (evaluated once), until those not visited lie above a value met

def _above(v: float, low: float, norm: float) -> bool:
    """Whether v lies above low when each is widened by
    BRACKET_REL * (its magnitude + norm) towards the other; +inf lies
    above every finite value, and NaN above none."""
    if v == math.inf:
        return low < math.inf
    return (v - BRACKET_REL * (abs(v) + norm)
            > low + BRACKET_REL * (abs(low) + norm))


def _omega_lower(ctx: BoundContext, kind, t: float, m) -> float:
    """||Re(e^{i theta} m)|| <= omega(m), by one eigensolve, at the peak
    angle theta of the record that ctx.near(kind, t) gives (0 if none is
    kept); 0 where m does not fit."""
    record = ctx.near(kind, t)
    theta = record[3] if record else 0.0
    return hnorm(np.exp(1j * theta) * m) if fits(m) else 0.0


def _aluthge_lower(ctx: BoundContext, t: float) -> float:
    """A lower end of aluthge-t's exact value at t, up to the rounding that
    BRACKET_REL covers, with no sweep: its X-only norms in closed form
    (X^r = V diag(sigma^r) V*), its term_mod, and _omega_lower for
    omega(A_t) and omega(A_t^2), with the sum under the root lowered by
    n^2 * 2^-1072 for subnormal rounding; -inf, which certifies nothing,
    where that sum is not finite."""
    alu, s = ctx.aluthge(t), ctx.sigma
    inner = (0.25 * (s ** (4 * t) + s ** (4 * (1 - t))).max()
             + 0.5 * float_power(ctx.norm_a, 2)
             + 0.25 * hnorm(alu.conj().T @ alu + alu @ alu.conj().T)
             + 0.5 * _omega_lower(ctx, "alu2", t, alu @ alu)
             + (s ** (2 * t) + s ** (2 * (1 - t))).max()
             * _omega_lower(ctx, "alu", t, alu)
             - ctx.a.size * 2.0**-1072)
    if not math.isfinite(inner):
        return -math.inf
    return 0.5 * math.sqrt(max(inner, 0.0))


@dataclass(frozen=True)
class _Weighted:
    """How minimize_over_t minimises a weighted bound, the second slot of
    its _BOUNDS row: kappa(ctx), the factor by which its exact values may
    exceed its computed ones (_quasi_convex_scan); lower(ctx, t), a lower
    end of its exact value at t that the scan takes in place of the value
    (None: the value); t_star(ctx), its minimiser in closed form, or None;
    and slope(ctx, t, width), its slope at an evaluated t for a search
    within width of t, that the refinement takes secant steps on (None:
    Brent's method alone).  The bound's docstring proves its t_star."""
    kappa: Callable = lambda ctx: 1.0
    lower: Callable | None = None
    t_star: Callable = lambda ctx: None
    slope: Callable | None = None


def _quasi_convex_scan(ctx: BoundContext, ts: np.ndarray, value_at: Callable,
                       row: _Weighted) -> None:
    """The scan of a bound that is quasi-convex in t: for i < j < k, its
    exact value V at t_j is at most the larger of those at t_i and t_k.
    Its computed values V_c have V_c <= V <= kappa V_c, kappa =
    row.kappa(ctx), up to the rounding that BRACKET_REL covers, so any
    lower end of V(t_j), V_c(t_j) or other, over kappa is at most the
    larger of V_c(t_i) and V_c(t_k).

    The middle point is evaluated; if the lower ends row.lower (the
    values if None) of its neighbours, divided by kappa, lie above it
    (_above), the scan stops.  Else, on the lower ends, a gallop goes
    downhill from it in steps of 1, 2, 4, ... while they fall, and
    optimize.golden_min searches its last bracket if that is over 4
    indices wide.  From the best point b met, a walk goes outward on each
    side, keeping the smallest value v* it meets, up to the first point q
    that lies above v*: by a lower end taken so far or next to b, or else
    by its value.  Every point p beyond q has V_c(q) / kappa at most the
    larger of v* and V_c(p), so V_c(p) > v*: none can hold or tie the grid
    minimum.  A flat objective is walked end to end, one point at a time;
    so is one that is +inf everywhere.
    """
    size, lows, kappa = ts.size, {}, row.kappa(ctx)

    def lower(i: int) -> float:
        if i not in lows:
            lows[i] = (row.lower(ctx, float(ts[i])) if row.lower
                       else value_at(i))
        return lows[i]

    def above(i: int, v: float) -> bool:
        return (((i in lows or abs(i - b) == 1)
                 and _above(lower(i) / kappa, v, ctx.norm_a))
                or _above(value_at(i) / kappa, v, ctx.norm_a))

    a = b = mid = (size - 1) // 2
    v_mid = value_at(mid)
    near = [i for i in (mid - 1, mid + 1) if 0 <= i < size
            and not _above(lower(i) / kappa, v_mid, ctx.norm_a)]
    if not near:
        return
    c = min(near, key=lower)
    while lower(c) < lower(b):
        a, b, c = b, c, min(max(c + 2 * (c - b), 0), size - 1)
    if abs(c - a) > 4:
        b = min(b, round(golden_min(lambda x: lower(round(x)), a, c, 4)[0]),
                key=lower)
    for step in (-1, 1):
        low, i = value_at(b), b + step
        while 0 <= i < size:
            if above(i, low):
                break
            low = min(low, value_at(i))
            i += step


# Every catalog bound in the report's order, with None for a bound that is
# not minimised over t, or its _Weighted row.  aluthge-t's omega terms are
# sweeps on N angles: each an attained g(theta), so at most omega, and the
# grid's maximum, so at least omega cos(pi/N) (Johnson's outer polygon).
# The bound grows with both, so its kappa is cos(pi/N)^(-1/2).  Its lower
# ends, _aluthge_lower, solve no grid angle and lie below the exact value.
_BOUNDS = {
    "classic": (_classic, None),
    "kitt-sum": (_kitt_sum, None),
    "kitt-square": (lambda ctx, t: _weighted_power(ctx, 0.5), None),
    "kitt-mixed": (_kitt_mixed, None),
    "integral": (_integral, None),
    "integral-refined": (_integral_refined, None),
    "yamazaki": (_yamazaki, None),
    "aluthge-t": (_aluthge_weighted, _Weighted(
        kappa=lambda ctx: math.cos(math.pi / ctx.theta_grid) ** -0.5,
        lower=_aluthge_lower,
        t_star=lambda ctx: None if ctx.aluthge(0.5).any() else 0.5,
        slope=_aluthge_slope)),
    "aluthge-half": (lambda ctx, t: _aluthge_weighted(ctx, 0.5), None),
    "weighted-power": (_weighted_power, _Weighted()),
    "weighted-r": (_weighted_r, _Weighted(t_star=lambda ctx: 0.5)),
    "product": (_product, _Weighted(t_star=lambda ctx: 0.5)),
    "fourth-power": (_fourth_power, _Weighted()),
    "schwarz-radius": (_schwarz_radius, _Weighted()),
}
CATALOG_IDS = tuple(_BOUNDS)
T_DEPENDENT_IDS = frozenset(bid for bid, (_, row) in _BOUNDS.items() if row)


def _evaluate(bound_id: str, ctx: BoundContext,
              t: float | None = None) -> BoundValue:
    """The catalog bound bound_id at the weight t (None for a fixed bound),
    kept on ctx under (bound_id, t): compare_all's evaluation at the t*
    that minimize_over_t found, and a refinement step at a t already
    evaluated, look it up."""
    key = (bound_id, t)
    if key not in ctx._values:
        value, detail = _BOUNDS[bound_id][0](ctx, t)
        ctx._values[key] = BoundValue(bound_id, t, float(value),
                                      {k: float(v) for k, v in detail.items()})
    return ctx._values[key]


# ---------------------------------------------------------------------------
# public single-bound evaluators

def classic_envelope(a):
    """Classic envelope (||A||/2, ||A||) bracketing omega(A)."""
    ctx = BoundContext(a)
    return ctx.norm_a / 2, ctx.norm_a


def _on_matrix(bound_id: str) -> Callable:
    """The public evaluator of a catalog bound on a fresh context."""
    if bound_id in T_DEPENDENT_IDS:
        def bound(a, w: WeightParams) -> BoundValue:
            return _evaluate(bound_id, BoundContext(a), w.t)
    else:
        def bound(a) -> BoundValue:
            return _evaluate(bound_id, BoundContext(a))
    bound.__doc__ = f"The catalog bound {bound_id!r} on a matrix or its core."
    return np.errstate(over="ignore", invalid="ignore")(bound)


kittaneh_sum = _on_matrix("kitt-sum")
kittaneh_square = _on_matrix("kitt-square")
kittaneh_mixed = _on_matrix("kitt-mixed")
integral_bound = _on_matrix("integral")
integral_refined = _on_matrix("integral-refined")
yamazaki = _on_matrix("yamazaki")
aluthge_half = _on_matrix("aluthge-half")
aluthge_weighted = _on_matrix("aluthge-t")
weighted_power = _on_matrix("weighted-power")
weighted_R = _on_matrix("weighted-r")
product_bound = _on_matrix("product")
fourth_power = _on_matrix("fourth-power")
schwarz_radius = _on_matrix("schwarz-radius")


# ---------------------------------------------------------------------------
# t-optimization

@np.errstate(over="ignore", invalid="ignore")
def minimize_over_t(bound_id: str, a, grid_points: int = DEFAULT_T_GRID):
    """Minimize a t-dependent bound over the clamped weight window.

    a is a matrix, its core (polar._Spectral) or a BoundContext.  Grid
    scan over [T_MIN, 1 - T_MIN] followed, if the context's refine is on,
    by a refinement to the best value met between the best grid point's
    neighbours: secant steps on the slope where the bound's _BOUNDS row has
    one (optimize.secant_min), else or where they give up Brent's method,
    to REFINE_TOL.  With refine on and more than one grid point, a bound
    whose row gives its minimiser in closed form (t_star) returns it and
    its value after that one evaluation, with no scan and no refinement,
    unless that value is not finite; with refine off, it returns its grid
    minimum, as every bound does.
    Evaluations that overflow (the objective genuinely diverges when
    sigma_1 > 1 and the exponent blows up) are recorded as +inf and
    skipped.  Overflow and invalid-value warnings are off: exponents such
    as 1/t make the powers overflow near the ends of the grid, and the
    bound is inf there.

    The scan is certified: it visits the grid points until those it has
    not visited lie above the smallest value it has, so the first-index
    minimum over the points it visited, and hence the result, is that of
    the full scan (_quasi_convex_scan).  If no value is finite, every
    point is visited.  A NaN, which certifies nothing, raises NonFinite
    as soon as the scan meets it.  Where ||A|| = 0, every catalog bound
    is +0.0 at every t, so the full scan's result is the first grid point
    and its value, which is returned after that one evaluation, with no
    scan and no refinement.

    Returns (t_star, value) with value comparable to omega(A).
    """
    if bound_id not in T_DEPENDENT_IDS:
        raise ValueError(f"bound {bound_id!r} is not t-dependent")
    check_count("grid_points", grid_points, T_GRID_MIN)
    ctx = a if isinstance(a, BoundContext) else BoundContext(a)
    ts = np.linspace(T_MIN, 1 - T_MIN, grid_points)
    if ctx.norm_a == 0:
        return float(ts[0]), _evaluate(bound_id, ctx, float(ts[0])).value
    row = _BOUNDS[bound_id][1]
    t_star = row.t_star(ctx) if ctx.refine and grid_points > 1 else None
    if t_star is not None:
        value = _evaluate(bound_id, ctx, t_star).value
        if math.isfinite(value):
            return t_star, value
    seen: dict = {}

    def value_at(i: int) -> float:
        if i not in seen:
            seen[i] = _evaluate(bound_id, ctx, float(ts[i])).value
            if math.isnan(seen[i]):
                raise NonFinite(f"{bound_id}: NaN at t={ts[i]}")
        return seen[i]

    _quasi_convex_scan(ctx, ts, value_at, row)
    best = min(sorted(seen), key=seen.get)
    t_star, value = float(ts[best]), seen[best]
    if not math.isfinite(value):
        raise NonFinite(f"{bound_id}: all grid evaluations overflowed "
                        f"(e.g. t={ts[best]})")
    if ctx.refine:
        lo = float(ts[max(best - 1, 0)])
        hi = float(ts[min(best + 1, grid_points - 1)])

        def f(t):
            return _evaluate(bound_id, ctx, float(t)).value

        # the secant searches between t* and one of lo and hi
        slope, width = row.slope, max(t_star - lo, hi - t_star)
        t_ref, v_ref = slope and secant_min(
            lambda t: (f(t), slope(ctx, t, width)), t_star, lo, hi,
            REFINE_TOL) or golden_min(f, lo, hi, REFINE_TOL)[:2]
        if v_ref < value:
            t_star, value = float(t_ref), float(v_ref)
    return t_star, value


@np.errstate(over="ignore", invalid="ignore")
def compare_all(a, t_grid: int = DEFAULT_T_GRID,
                theta_grid: int = DEFAULT_GRID, refine: bool = True,
                ids=CATALOG_IDS) -> BoundReport:
    """Evaluate the bounds named by ids, minimizing t-dependent ones.

    a is a matrix or its core (polar._Spectral).  ids defaults to the full
    catalog; a string, or an id that is not in CATALOG_IDS, is a
    ValueError before any work.  A bound that fails with a NumradError or
    a numerical error from numpy is recorded as a NaN row with the message
    in detail["error"]; the report is still produced.  Bounds are sorted
    ascending by value.  refine=False disables both the t-refinement and
    the theta refinement inside sweeps, for bulk campaigns where grid
    accuracy suffices; with it on, a bound is taken at the closed-form
    minimum that its _BOUNDS row gives, or its t* is refined
    (minimize_over_t), and omega and the sweeps of the bounds are refined
    in theta by Newton steps, with Brent's method as their fallback
    (radius.warm_sweep).
    """
    if isinstance(ids, str):
        raise ValueError(f"ids is the string {ids!r}; pass a sequence of "
                         f"bound ids, such as ({ids!r},)")
    ids = tuple(ids)
    for bound_id in ids:
        if bound_id not in CATALOG_IDS:
            raise ValueError(f"unknown bound id {bound_id!r}; the catalog "
                             f"has {', '.join(CATALOG_IDS)}")
    ctx = BoundContext(a, theta_grid, refine)
    omega = warm_sweep(ctx.a, theta_grid, refine)[0]
    bounds = []
    for bound_id in ids:
        try:
            t = None
            if bound_id in T_DEPENDENT_IDS:
                t, _ = minimize_over_t(bound_id, ctx, t_grid)
            bv = _evaluate(bound_id, ctx, t)
        except (NumradError, np.linalg.LinAlgError, FloatingPointError) as exc:
            bv = BoundValue(bound_id, None, math.nan, {"error": str(exc)})
        bounds.append(bv)
        # no other bound looks these up, and a flat t-scan keeps thousands
        ctx._values.clear()
    slacks = {bv.id: bv.value - omega.value for bv in bounds
              if math.isfinite(bv.value)}
    bounds.sort(key=lambda bv: (math.isnan(bv.value), bv.value))
    return BoundReport(omega=omega, bounds=bounds, slacks=slacks)
