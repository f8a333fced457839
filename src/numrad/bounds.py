"""Catalog of numerical-radius upper bounds and their t-optimization.

Throughout, X = |A| and Y = |A*|.  Fractional powers of both are cheap
because they share the singular value decomposition of A, which is
computed once per context.  All bound evaluators return a BoundValue
whose value is directly comparable to omega(A); bounds stated in the
squared form record the pre-square-root quantity under detail["inner"].

Every catalog bound is one function of (ctx, t) giving (value, detail),
registered in one table, _BOUNDS, with the certificate of its t-scan (None
for a fixed bound).  A fixed bound ignores t, or is a weighted bound at one
weight.  A weighted bound is evaluated at a float t.  Five of the six are
quasi-convex in t, and their scan is certified by their own values; the
scan of aluthge-t is pruned by lower ends at the grid's vector of t, which
_lower computes from stacks in the singular basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NonFinite, NumradError
from .matrix import fits, float_power
from .optimize import golden_min
from .polar import T_MIN, _check_weight, _Spectral
from .radius import (BRACKET_CHUNK_BYTES, BRACKET_PROBES, BRACKET_REL,
                     DEFAULT_GRID, RadiusEstimate, check_count, pruned_sweep,
                     sweep_lower, warm_sweep)

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
    """The spectral core of one matrix, with the sweep settings and caches
    of pruned_sweep values (radius_sweep's, bit for bit) and of the norms
    ||X^s Y^s|| for its bounds; refine refines both its sweeps in theta
    and minimize_over_t in t."""

    def __init__(self, a, theta_grid: int = DEFAULT_GRID,
                 refine: bool = True):
        super().__init__(a)
        self.theta_grid = theta_grid
        self.refine = refine
        self._omega: dict = {}
        # per kind of a (kind, t) key: {t: (matrix, upper ends)}
        self._swept: dict = {}
        self._xy_norm: dict = {}

    def xy_norm(self, s: float) -> float:
        """||X^s Y^s|| for the float s, cached under s: product's t-scan
        meets 1 - t as a grid point of its own at about half the grid."""
        if s not in self._xy_norm:
            self._xy_norm[s] = gnorm(self.xpow(s) @ self.ypow(s))
        return self._xy_norm[s]

    def sweep(self, key, m):
        """omega(m) by the context's sweep for a matrix m, cached under key;
        inf if m does not fit (matrix.fits: its entries or norm overflow).
        A key (kind, t), such as ("alu", t), names a matrix of a family in
        t: its sweep is radius.warm_sweep, warm-started from the matrix of
        the same kind swept at the nearest t, and its upper ends are kept
        for the next.  For a (T, n, n) stack m, radius.sweep_lower's lower
        end of that value for each matrix, clamped at 0 (omega is not
        below 0), key unused; a matrix that does not fit is swept as zero
        and gets inf.
        """
        if m.ndim == 2:
            if key not in self._omega:
                self._omega[key] = self._sweep_matrix(key, m)
            return self._omega[key]
        ok = fits(m)
        lower = sweep_lower(np.where(ok[:, None, None], m, 0),
                            self.theta_grid)
        return np.where(ok, np.maximum(lower, 0), math.inf)

    def _sweep_matrix(self, key, m) -> float:
        """sweep's value for a matrix m, not cached."""
        if not fits(m):
            return math.inf
        if not isinstance(key, tuple):
            return pruned_sweep(m, self.theta_grid, self.refine).value
        kind, t = key
        family = self._swept.setdefault(kind, {})
        near = min(family, key=lambda s: abs(s - t), default=None)
        est, upper = warm_sweep(m, self.theta_grid, self.refine,
                                family.get(near))
        family[t] = (m, upper)
        return est.value


def _finite_norm(norm: Callable, m: np.ndarray) -> float:
    """norm(m) where the matrix m is finite; inf where it is not."""
    return float(norm(m)) if np.isfinite(m).all() else math.inf


def hnorm(m: np.ndarray) -> float:
    """Spectral norm of the Hermitian part (m + m*)/2 of an operand; inf
    where that part overflows."""
    return _finite_norm(lambda h: abs(np.linalg.eigvalsh(h)[[0, -1]]).max(),
                        (m + m.conj().T) / 2)


def gnorm(m: np.ndarray) -> float:
    """Spectral norm of a general operand; inf where it is not finite."""
    return _finite_norm(lambda g: np.linalg.svd(g, compute_uv=False)[0], m)


def _sqrt_or_inf(inner: float) -> float:
    """sqrt(inner) where inner is finite, inf where it is not."""
    return math.sqrt(inner) if math.isfinite(inner) else math.inf


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
    wa = ctx.sweep(("alu", 0.5), ctx.aluthge(0.5))
    return 0.5 * (ctx.norm_a + wa), {"omega_aluthge": wa}


def _aluthge_weighted(ctx: BoundContext, t):
    """sqrt(||X^4t + X^4(1-t)||/4 + ||A||^2/2 + ||A_t*A_t + A_tA_t*||/4 +
    omega(A_t^2)/2 + ||X^2t + X^2(1-t)|| omega(A_t))/2, A_t = ctx.aluthge(t).

    At t = 1/2, where X^(4t) = X^(4(1-t)) = X^2 and X^(2t) = X^(2(1-t)) =
    X, term_pow4 = term_norm = ||A||^2/2 and term_cross = 2||A|| omega(A~)
    for the Aluthge transform A~ = A_(1/2): the bound is aluthge-half,
    sqrt(||A||^2 + ||A~*A~ + A~A~*||/4 + omega(A~^2)/2 + 2||A|| omega(A~))/2.
    """
    alu = ctx.aluthge(t)
    wa = ctx.sweep(("alu", t), alu)
    wa2 = ctx.sweep(("alu2", t), alu @ alu)
    term_pow4 = 0.25 * hnorm(ctx.xpow(4 * t) + ctx.xpow(4 * (1 - t)))
    cross = hnorm(ctx.xpow(2 * t) + ctx.xpow(2 * (1 - t)))
    term_norm = 0.5 * float_power(ctx.norm_a, 2)
    term_mod = 0.25 * hnorm(alu.conj().T @ alu + alu @ alu.conj().T)
    term_sq = 0.5 * wa2
    term_cross = cross * wa
    inner = term_pow4 + term_norm + term_mod + term_sq + term_cross
    return 0.5 * _sqrt_or_inf(inner), {
        "inner": inner, "term_pow4": term_pow4, "term_norm": term_norm,
        "term_mod": term_mod, "term_sq": term_sq, "term_cross": term_cross,
        "omega_aluthge": wa, "omega_aluthge_sq": wa2}


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
    return _sqrt_or_inf(inner), {"inner": inner}


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
    return _sqrt_or_inf(inner), {"inner": inner}


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
    return _sqrt_or_inf(inner), {"inner": inner}


def _schwarz_radius(ctx: BoundContext, t):
    """sqrt((sqrt ||t X^(2/t) + (1 - t) Y^(2/(1-t))|| + omega(A^2)) / 2),
    quasi-convex in t.

    The PSD operand is Loewner-convex in t by the perspective argument of
    weighted-power, and the bound is an increasing function of its
    lambda_max, omega(A^2) being fixed.
    """
    m = t * ctx.xpow(2 / t) + (1 - t) * ctx.ypow(2 / (1 - t))
    wa2 = ctx.sweep("a2", ctx.a @ ctx.a)
    inner = 0.5 * (_sqrt_or_inf(hnorm(m)) + wa2)
    return _sqrt_or_inf(inner), {"inner": inner, "omega_a_squared": wa2}


# ---------------------------------------------------------------------------
# the certified t-scans
#
# Each visits the grid points of minimize_over_t through value_at(i), the
# bound at ts[i] (evaluated once), until the points it has not visited are
# certified to lie above the smallest value it has: so the grid's
# first-index minimum, and every tie of it, is among the visited points.

def _lower(ctx: BoundContext, ts: np.ndarray) -> np.ndarray:
    """Lower ends of aluthge-t at each t of ts, up to the rounding
    BRACKET_REL covers, from its unitarily invariant terms on aluthge_basis's
    stacks, in chunks of t in which 16 such complex stacks fill
    BRACKET_CHUNK_BYTES; lowered by n^2 * 2^-1072 for subnormal rounding."""
    size = max(1, BRACKET_CHUNK_BYTES // (16 * 16 * ctx.a.size))
    s, u = ctx.sigma, ts[:, None]
    term_pow4 = 0.25 * (s ** (4 * u) + s ** (4 * (1 - u))).max(axis=-1)
    cross = (s ** (2 * u) + s ** (2 * (1 - u))).max(axis=-1)
    wa, wa2, mod = np.zeros((3, ts.size))
    for i in range(0, ts.size, size):
        b, b2 = ctx.aluthge_basis(ts[i:i + size])
        wa[i:i + size] = ctx.sweep(None, b)
        wa2[i:i + size] = ctx.sweep(None, b2)
        mod[i:i + size] = _mod_lower(b)
    inner = (term_pow4 + 0.5 * float_power(ctx.norm_a, 2) + 0.25 * mod
             + 0.5 * wa2 + cross * wa)
    return 0.5 * np.sqrt(np.maximum(inner - ctx.a.size * 2.0**-1072, 0))


def _mod_lower(b: np.ndarray) -> np.ndarray:
    """A lower end of ||B*B + BB*|| for each B of the (T, n, n) stack b,
    inf where B is not finite: the largest ||Bx||^2 + ||B*x||^2 over the
    top eigenvectors x of the operands at every ceil(T / BRACKET_PROBES)-th
    row (0 if none is finite), so that those rows get their norm."""
    rows, n = b.shape[:2]
    probes = b[::-(-rows // BRACKET_PROBES)]
    op = probes.conj().swapaxes(-1, -2) @ probes
    op += probes @ probes.conj().swapaxes(-1, -2)
    ok = np.isfinite(op).all(axis=(-2, -1))
    x = np.linalg.eigh(np.where(ok[:, None, None], op, 0))[1][..., -1]
    both = np.concatenate([b, b.conj().swapaxes(1, 2)], axis=1)  # [B; B*]
    q = (abs(both.reshape(-1, n) @ x.T) ** 2).reshape(rows, 2 * n, -1)
    q = np.where(ok, q.sum(axis=1), 0).max(axis=-1)
    return np.where(np.isfinite(b).all(axis=(-2, -1)), q, math.inf)


def _lower_scan(ctx: BoundContext, ts: np.ndarray,
                value_at: Callable) -> None:
    """aluthge-t's scan, pruned by _lower's ends (no shape in t is known).

    The ends are widened by BRACKET_REL to cover the rounding of the
    stacked against the scalar arithmetic.  The points are visited in
    order of their lower ends, one that is not finite counting as -inf,
    up to the first whose lower end exceeds the smallest value so far.
    """
    lower = _lower(ctx, ts)
    lower = lower - BRACKET_REL * (abs(lower) + ctx.norm_a)
    key = np.where(np.isfinite(lower), lower, -math.inf)
    cap = math.inf
    for i in np.argsort(key, kind="stable"):
        if key[i] > cap:
            break
        cap = min(cap, value_at(int(i)))


def _above(v: float, low: float, norm: float) -> bool:
    """Whether v lies above low when each is widened by
    BRACKET_REL * (its magnitude + norm) towards the other; +inf lies
    above every finite value, and NaN above none."""
    if v == math.inf:
        return low < math.inf
    return (v - BRACKET_REL * (abs(v) + norm)
            > low + BRACKET_REL * (abs(low) + norm))


def _quasi_convex_scan(ctx: BoundContext, ts: np.ndarray,
                       value_at: Callable) -> None:
    """The scan of a bound that is quasi-convex in t: every sublevel set
    is an interval, so for i < j < k its value at t_j is at most the
    larger of those at t_i and t_k, up to the rounding that BRACKET_REL
    covers.

    The best of the middle point and its neighbours starts the search, by
    optimize.golden_min over the rounded indices up to the downhill end,
    for a small value v* to within 32 indices.  From v* a walk goes
    outward on each side, keeping the smallest value it meets, up to the
    first point q whose value lies above it (_above).  Every point beyond
    q is then at least the value at q, so above v*, and can neither hold
    nor tie the grid minimum.  A flat objective is walked end to end; so
    is one that is +inf everywhere.
    """
    size = ts.size
    mid = (size - 1) // 2
    best = min(range(max(mid - 1, 0), min(mid + 2, size)), key=value_at)
    end = 0 if best < mid else size - 1 if best > mid else mid
    x = golden_min(lambda x: value_at(round(x)), best, end, 32)[0]
    best = min(best, round(x), key=value_at)
    for step in (-1, 1):
        low, i = value_at(best), best + step
        while 0 <= i < size and not _above(value_at(i), low, ctx.norm_a):
            low = min(low, value_at(i))
            i += step


# Every catalog bound in the report's order, with the certified t-scan that
# minimize_over_t runs for it, or None for a bound that is not minimised
# over t.
_BOUNDS = {
    "classic": (_classic, None),
    "kitt-sum": (_kitt_sum, None),
    "kitt-square": (lambda ctx, t: _weighted_power(ctx, 0.5), None),
    "kitt-mixed": (_kitt_mixed, None),
    "integral": (_integral, None),
    "integral-refined": (_integral_refined, None),
    "yamazaki": (_yamazaki, None),
    "aluthge-t": (_aluthge_weighted, _lower_scan),
    "aluthge-half": (lambda ctx, t: _aluthge_weighted(ctx, 0.5), None),
    "weighted-power": (_weighted_power, _quasi_convex_scan),
    "weighted-r": (_weighted_r, _quasi_convex_scan),
    "product": (_product, _quasi_convex_scan),
    "fourth-power": (_fourth_power, _quasi_convex_scan),
    "schwarz-radius": (_schwarz_radius, _quasi_convex_scan),
}
CATALOG_IDS = tuple(_BOUNDS)
T_DEPENDENT_IDS = frozenset(bid for bid, (_, scan) in _BOUNDS.items()
                            if scan)


def _evaluate(bound_id: str, ctx: BoundContext,
              t: float | None = None) -> BoundValue:
    """The catalog bound bound_id at the weight t (None for a fixed bound)."""
    value, detail = _BOUNDS[bound_id][0](ctx, t)
    return BoundValue(bound_id, t, float(value),
                      {k: float(v) for k, v in detail.items()})


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
    bound.__doc__ = f"The catalog bound {bound_id!r} on the matrix a."
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

    a is a matrix or a BoundContext.  Grid scan over [T_MIN, 1 - T_MIN]
    followed, if the context's refine is on, by a refinement with
    Brent's method, to REFINE_TOL, around the best grid point.  Evaluations
    that overflow (the objective genuinely diverges when sigma_1 > 1 and
    the exponent blows up) are recorded as +inf and skipped.  Overflow and
    invalid-value warnings are off: exponents such as 1/t make the powers
    overflow near the ends of the grid, and the bound is inf there.

    The scan is certified: it visits the grid points until those it has
    not visited lie above the smallest value it has, so the first-index
    minimum over the grid, and hence the result, is that of the full scan.
    The certificate is the one that _BOUNDS names for the bound: its own
    values for the five bounds that are quasi-convex in t
    (_quasi_convex_scan), and lower ends from the grid's stacks for
    aluthge-t (_lower_scan).  If no value is finite, or a value is NaN,
    which certifies nothing, every point is visited.

    Returns (t_star, value) with value comparable to omega(A).
    """
    if bound_id not in T_DEPENDENT_IDS:
        raise ValueError(f"bound {bound_id!r} is not t-dependent")
    check_count("grid_points", grid_points, T_GRID_MIN)
    ctx = a if isinstance(a, BoundContext) else BoundContext(a)
    ts = np.linspace(T_MIN, 1 - T_MIN, grid_points)
    seen: dict = {}

    def value_at(i: int) -> float:
        if i not in seen:
            seen[i] = _evaluate(bound_id, ctx, float(ts[i])).value
        return seen[i]

    _BOUNDS[bound_id][1](ctx, ts, value_at)
    if any(math.isnan(v) for v in seen.values()):
        for i in range(grid_points):
            value_at(i)
    vals = np.full(grid_points, math.inf)
    vals[list(seen)] = list(seen.values())
    best = int(np.argmin(vals))
    if not math.isfinite(vals[best]):
        raise NonFinite(f"{bound_id}: all grid evaluations overflowed "
                        f"(e.g. t={ts[best]})")
    t_star, value = float(ts[best]), float(vals[best])
    if ctx.refine and grid_points > 1:
        lo = float(ts[max(best - 1, 0)])
        hi = float(ts[min(best + 1, grid_points - 1)])
        t_ref, v_ref, _ = golden_min(
            lambda t: _evaluate(bound_id, ctx, float(t)).value, lo, hi,
            REFINE_TOL)
        if v_ref < value:
            t_star, value = float(t_ref), float(v_ref)
    return t_star, value


@np.errstate(over="ignore", invalid="ignore")
def compare_all(a, t_grid: int = DEFAULT_T_GRID,
                theta_grid: int = DEFAULT_GRID, refine: bool = True,
                ids=CATALOG_IDS) -> BoundReport:
    """Evaluate the bounds named by ids, minimizing t-dependent ones.

    ids defaults to the full catalog; a string, or an id that is not in
    CATALOG_IDS, is a ValueError before any work.  A bound that fails
    with a NumradError or a numerical error from numpy is recorded as a
    NaN row with the message in detail["error"]; the report is still
    produced.  Bounds are sorted ascending by value.  refine=False
    disables both the t-refinement and the theta refinement inside
    sweeps, for bulk campaigns where grid accuracy suffices.
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
    omega = pruned_sweep(ctx.a, theta_grid, refine)
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
    slacks = {bv.id: bv.value - omega.value for bv in bounds
              if math.isfinite(bv.value)}
    bounds.sort(key=lambda bv: (math.isnan(bv.value), bv.value))
    return BoundReport(omega=omega, bounds=bounds, slacks=slacks)
