"""Catalog of numerical-radius upper bounds and their t-optimization.

Throughout, X = |A| and Y = |A*|.  Fractional powers of both are cheap
because they share the singular value decomposition of A, which is
computed once per context.  All bound evaluators return a BoundValue
whose value is directly comparable to omega(A); bounds stated in the
squared form record the pre-square-root quantity under detail["inner"].

Every catalog bound is one function of (ctx, t) giving (value, detail),
registered in one table, _BOUNDS, with whether it is minimised over t.
A fixed bound ignores t, or is a weighted bound at one weight.  A
weighted bound takes a float t or a vector of t: at a float it is the
t-scan's evaluator, and at the grid's vector it gives the lower ends
that prune the scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DomainError, NonFinite, NumradError
from .optimize import golden_min
from .polar import T_MIN, _check_weight, _Spectral
from .radius import (BRACKET_REL, DEFAULT_GRID, RadiusEstimate, check_count,
                     coarse_step, pruned_sweep, quotient_lower, sweep_subgrid)

# Bytes that a bracket's stacks are sized to, per chunk of t: 16 (t, n, n)
# stacks of complex, and apart from those, the (theta, n, n) rotations of
# the probe rows of a swept stack.  A sizing rule, not a cap: numpy's
# temporaries come on top.
BRACKET_CHUNK_BYTES = 1 << 24
# Largest number of probe rows in one swept stack: the rows where the
# sweep runs on a subgrid, whose top eigenvectors give the lower ends at
# the other rows.
BRACKET_PROBES = 16
# Grid of the t-scan: its default size, and the smallest it accepts.
DEFAULT_T_GRID = 1001
T_GRID_MIN = 1
# Width in t at which the golden-section refinement of the t-scan stops.
REFINE_TOL = 1e-8


@dataclass(frozen=True)
class WeightParams:
    t: float


def weight_params(t: float) -> WeightParams:
    _check_weight(t)
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
    """The spectral core of one matrix, with the sweep settings and a cache
    of pruned_sweep values (radius_sweep's, bit for bit) for its bounds."""

    def __init__(self, a, theta_grid: int = DEFAULT_GRID,
                 theta_refine: bool = True):
        super().__init__(a)
        self.theta_grid = theta_grid
        self.theta_refine = theta_refine
        self._omega: dict = {}

    def sweep(self, key, m):
        """omega(m) by the context's sweep for a matrix m, cached under key;
        inf for an operand whose entries or norm overflow.  For a (T, n, n)
        stack m, a certified lower end of that value for each matrix,
        clamped at 0 (omega is not below 0), with key unused.

        In a stack, the probe rows are every s-th matrix, with
        s = ceil(T / BRACKET_PROBES) (larger where the probes' rotations
        would exceed BRACKET_CHUNK_BYTES).  At a probe row the lower end is
        the sweep's maximum over a subgrid of its angles, every
        coarse_step(theta_grid)-th one.  At every other row it comes from
        the probes' top eigenvectors x (rotated Rayleigh quotients): at each
        angle theta of the sweep's grid, Re(e^{i theta} x*Mx) =
        x*Re(e^{i theta} M)x is at most lambda_max(Re(e^{i theta} M)), and
        so at most the sweep's value, refined or not.  A non-finite matrix
        is swept as zero and gets inf.
        """
        if m.ndim == 2:
            if key not in self._omega:
                try:
                    self._omega[key] = pruned_sweep(
                        m, self.theta_grid, self.theta_refine).value
                except DomainError:  # as_matrix: the operand overflowed
                    self._omega[key] = math.inf
            return self._omega[key]
        ok = np.isfinite(m).all(axis=(-2, -1))
        m = np.where(ok[:, None, None], m, 0)
        step = coarse_step(self.theta_grid)
        # a probe row holds its (theta, n, n) stack of rotations
        per_probe = 16 * m.shape[-1] ** 2 * (self.theta_grid // step)
        probes = min(BRACKET_PROBES, max(1, BRACKET_CHUNK_BYTES // per_probe))
        s = -(-m.shape[0] // probes)
        g, angles = sweep_subgrid(m[::s], self.theta_grid, step)
        lower = g
        if s > 1:
            lower = quotient_lower(m, m[::s], angles, self.theta_grid)
            lower[::s] = g
        return np.where(ok, np.maximum(lower, 0), math.inf)

    @cached_property
    def omega_estimate(self) -> RadiusEstimate:
        return pruned_sweep(self.a, self.theta_grid, self.theta_refine)


def _adj(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _finite_norm(norm: Callable, m: np.ndarray):
    """norm(m) for a matrix, or over each matrix of a stack, where m is
    finite; inf where it is not.  A matrix gives a float."""
    ok = np.isfinite(m).all(axis=(-2, -1))
    if m.ndim == 2:
        return float(norm(m)) if ok else math.inf
    out = np.full(m.shape[0], math.inf)
    if ok.any():
        out[ok] = norm(m[ok])
    return out


def hnorm(m: np.ndarray):
    """Spectral norm of the Hermitian part (m + m*)/2 of an operand, or of
    each of a stack; inf where that part overflows."""
    def norm(h):
        w = np.linalg.eigvalsh(h)
        return np.maximum(abs(w[..., 0]), abs(w[..., -1]))
    return _finite_norm(norm, (m + _adj(m)) / 2)


def gnorm(m: np.ndarray):
    """Spectral norm of a general operand, or of each of a stack."""
    return _finite_norm(
        lambda g: np.linalg.svd(g, compute_uv=False)[..., 0], m)


def _square(x: float) -> float:
    """x**2, overflowing to inf like the numpy parts of a bound."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _sqrt_or_inf(inner):
    """sqrt(inner) where inner is finite, inf where it is not."""
    if isinstance(inner, np.ndarray):
        return np.sqrt(np.where(np.isfinite(inner), inner, math.inf))
    return math.sqrt(inner) if math.isfinite(inner) else math.inf


def _coef(t):
    """t as the coefficient of an operand: itself, or (T, 1, 1) if a vector."""
    return t[:, None, None] if isinstance(t, np.ndarray) else t


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


def _aluthge_half(ctx: BoundContext, t):
    alu = ctx.aluthge(0.5)
    wa = ctx.sweep(("alu", 0.5), alu)
    wa2 = ctx.sweep(("alu2", 0.5), alu @ alu)
    mod = alu.conj().T @ alu + alu @ alu.conj().T
    inner = (_square(ctx.norm_a) + 0.25 * hnorm(mod) + 0.5 * wa2
             + 2 * ctx.norm_a * wa)
    return 0.5 * math.sqrt(inner), {"inner": inner, "omega_aluthge": wa,
                                    "omega_aluthge_sq": wa2}


def _aluthge_weighted(ctx: BoundContext, t):
    alu = ctx.aluthge(t)
    wa = ctx.sweep(("alu", t), alu)
    wa2 = ctx.sweep(("alu2", t), alu @ alu)
    term_pow4 = 0.25 * hnorm(ctx.xpow(4 * t) + ctx.xpow(4 * (1 - t)))
    term_norm = 0.5 * _square(ctx.norm_a)
    term_mod = 0.25 * hnorm(_adj(alu) @ alu + alu @ _adj(alu))
    term_sq = 0.5 * wa2
    term_cross = hnorm(ctx.xpow(2 * t) + ctx.xpow(2 * (1 - t))) * wa
    inner = term_pow4 + term_norm + term_mod + term_sq + term_cross
    return 0.5 * _sqrt_or_inf(inner), {
        "inner": inner, "term_pow4": term_pow4, "term_norm": term_norm,
        "term_mod": term_mod, "term_sq": term_sq, "term_cross": term_cross}


def _weighted_power(ctx: BoundContext, t):
    c = _coef(t)
    m = (1 - c) * ctx.xpow(1 / (1 - t)) + c * ctx.ypow(1 / t)
    inner = hnorm(m)
    return _sqrt_or_inf(inner), {"inner": inner}


def _weighted_r(ctx: BoundContext, t):
    c = _coef(t * (1 - t) / np.maximum(t, 1 - t))
    d = ctx.xpow(1.0) - ctx.ypow(1.0)
    m = ctx.xpow(2.0) + ctx.ypow(2.0) - c * (d @ d)
    inner = 0.5 * hnorm(m)
    return _sqrt_or_inf(inner), {"inner": inner}


def _product(ctx: BoundContext, t):
    n1 = gnorm(ctx.xpow(t) @ ctx.ypow(t))
    n2 = gnorm(ctx.xpow(1 - t) @ ctx.ypow(1 - t))
    value = 0.5 * (ctx.norm_a + np.sqrt(n1 * n2))
    return value, {"norm_t": n1, "norm_one_minus_t": n2}


def _fourth_power(ctx: BoundContext, t):
    c = _coef(t)
    m = ((ctx.xpow(4 * (1 - t)) + ctx.ypow(4 * t)) / 4
         + ((1 - c) * ctx.xpow(2.0) + c * ctx.ypow(2.0)) / 2)
    inner = hnorm(m)
    return _sqrt_or_inf(inner), {"inner": inner}


def _schwarz_radius(ctx: BoundContext, t):
    c = _coef(t)
    m = c * ctx.xpow(2 / t) + (1 - c) * ctx.ypow(2 / (1 - t))
    norm_m = hnorm(m)
    if not np.isfinite(norm_m).any():
        return norm_m, {"inner": norm_m}
    wa2 = ctx.sweep("a2", ctx.a @ ctx.a)
    inner = 0.5 * (_sqrt_or_inf(norm_m) + wa2)
    return _sqrt_or_inf(inner), {"inner": inner, "omega_a_squared": wa2}


# Every catalog bound in the report's order, with whether it is
# minimised over t.
_BOUNDS = {
    "classic": (_classic, False),
    "kitt-sum": (_kitt_sum, False),
    "kitt-square": (lambda ctx, t: _weighted_power(ctx, 0.5), False),
    "kitt-mixed": (_kitt_mixed, False),
    "integral": (_integral, False),
    "integral-refined": (_integral_refined, False),
    "yamazaki": (_yamazaki, False),
    "aluthge-t": (_aluthge_weighted, True),
    "aluthge-half": (_aluthge_half, False),
    "weighted-power": (_weighted_power, True),
    "weighted-r": (_weighted_r, True),
    "product": (_product, True),
    "fourth-power": (_fourth_power, True),
    "schwarz-radius": (_schwarz_radius, True),
}
CATALOG_IDS = tuple(_BOUNDS)
T_DEPENDENT_IDS = frozenset(bid for bid, (_, t_dep) in _BOUNDS.items()
                            if t_dep)


def _evaluate(bound_id: str, ctx: BoundContext,
              t: float | None = None) -> BoundValue:
    """The catalog bound bound_id at the weight t (None for a fixed bound)."""
    value, detail = _BOUNDS[bound_id][0](ctx, t)
    return BoundValue(bound_id, t, float(value),
                      {k: float(v) for k, v in detail.items()})


def _lower(bound_id: str, ctx: BoundContext, ts: np.ndarray) -> np.ndarray:
    """Lower ends of a weighted bound at every t of the vector ts, at most
    its value at each; in chunks of t in which 16 (t, n, n) stacks of
    complex fill BRACKET_CHUNK_BYTES, so that memory stays bounded."""
    bound = _BOUNDS[bound_id][0]
    size = max(1, BRACKET_CHUNK_BYTES // (16 * 16 * ctx.a.shape[0] ** 2))
    return np.concatenate([bound(ctx, ts[i:i + size])[0]
                           for i in range(0, ts.size, size)])


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
def minimize_over_t(bound_id: str, a, grid_points: int = DEFAULT_T_GRID,
                    *, refine: bool = True, ctx: BoundContext | None = None):
    """Minimize a t-dependent bound over the clamped weight window.

    Grid scan over [T_MIN, 1 - T_MIN] followed by golden-section
    refinement, to REFINE_TOL, around the best grid point.  Evaluations
    that overflow (the objective genuinely diverges when sigma_1 > 1 and
    the exponent blows up) are recorded as +inf and skipped.  Overflow and
    invalid-value warnings are off: exponents such as 1/t make the powers
    overflow near the ends of the grid, and the bound is inf there.

    The scan is pruned with certified lower ends.  The bound at the grid's
    vector of t is a lower end of its value at every grid point, widened
    here by BRACKET_REL to cover rounding; the omega terms of aluthge-t
    are lower ends from BoundContext.sweep on the grid's stack.  The
    scalar evaluator then visits the grid points in order of their lower
    ends, a lower end that is not finite counting as -inf, and stops at
    the first whose lower end exceeds the smallest value evaluated so far.
    Every point whose lower end is at most the grid minimum is visited, so
    the first-index minimum over the grid, and hence the result, is that
    of the full scan; if no value is finite, every point is visited.

    Returns (t_star, value) with value comparable to omega(A).
    """
    if bound_id not in T_DEPENDENT_IDS:
        raise ValueError(f"bound {bound_id!r} is not t-dependent")
    check_count("grid_points", grid_points, T_GRID_MIN)
    if ctx is None:
        ctx = BoundContext(a)
    ts = np.linspace(T_MIN, 1 - T_MIN, grid_points)
    lower = _lower(bound_id, ctx, ts)
    lower = lower - BRACKET_REL * (abs(lower) + ctx.norm_a)
    vals = np.full(grid_points, math.inf)
    key = np.where(np.isfinite(lower), lower, -math.inf)
    cap = math.inf
    for i in np.argsort(key, kind="stable"):
        if key[i] > cap:
            break
        vals[i] = _evaluate(bound_id, ctx, float(ts[i])).value
        cap = min(cap, vals[i])
    best = int(np.argmin(vals))
    if not math.isfinite(vals[best]):
        raise NonFinite(f"{bound_id}: all grid evaluations overflowed "
                        f"(e.g. t={ts[best]})")
    t_star, value = float(ts[best]), float(vals[best])
    if refine and grid_points > 1:
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

    ids defaults to the full catalog.  A bound that fails with a
    NumradError or a numerical error from numpy is recorded as a NaN
    row with the message in detail["error"]; the report is still
    produced.  Bounds are sorted ascending by value.  refine=False
    disables both the golden t-refinement and the theta refinement inside
    sweeps, for bulk campaigns where grid accuracy suffices.
    """
    ctx = BoundContext(a, theta_grid=theta_grid, theta_refine=refine)
    omega = ctx.omega_estimate
    bounds = []
    for bound_id in ids:
        try:
            t = None
            if bound_id in T_DEPENDENT_IDS:
                t, _ = minimize_over_t(bound_id, None, t_grid, refine=refine,
                                       ctx=ctx)
            bv = _evaluate(bound_id, ctx, t)
        except (NumradError, np.linalg.LinAlgError, FloatingPointError) as exc:
            bv = BoundValue(bound_id, None, math.nan, {"error": str(exc)})
        bounds.append(bv)
    slacks = {bv.id: bv.value - omega.value for bv in bounds
              if math.isfinite(bv.value)}
    bounds.sort(key=lambda bv: (math.isnan(bv.value), bv.value))
    return BoundReport(omega=omega, bounds=bounds, slacks=slacks)
