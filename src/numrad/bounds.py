"""Catalog of numerical-radius upper bounds and their t-optimization.

Throughout, X = |A| and Y = |A*|.  Fractional powers of both are cheap
because they share the singular value decomposition of A, which is
computed once per context.  All bound evaluators return a BoundValue
whose value is directly comparable to omega(A); bounds stated in the
squared form record the pre-square-root quantity under detail["inner"].

Each t-dependent bound but aluthge-t is one function of (ctx, t) giving
(value, detail), for a float t or a vector of t; the t-scan's evaluator
and bracket are that function at a float and at the grid's vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import NonFinite, NumradError
from .optimize import golden_min
from .polar import T_MIN, _check_weight, _Spectral
from .radius import (BRACKET_REL, DEFAULT_GRID, RadiusEstimate, check_count,
                     coarse_step, pruned_sweep, quotient_lower, sweep_subgrid)

# Bytes that a bracket's stacks are sized to, per chunk of t: 16 (t, n, n)
# stacks of complex, and apart from those, the (theta, n, n) rotations of
# the aluthge-t bracket's probe rows.  A sizing rule, not a cap: numpy's
# temporaries come on top.
BRACKET_CHUNK_BYTES = 1 << 24
# Largest number of probe rows in one call of the aluthge-t bracket: the
# rows where it sweeps a subgrid, whose top eigenvectors give the lower
# ends at its other rows.
BRACKET_PROBES = 16


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

    def sweep(self, key, m) -> float:
        """omega(m) by the context's sweep, cached under key; inf for an
        overflowed operand."""
        if key not in self._omega:
            self._omega[key] = (pruned_sweep(m, self.theta_grid,
                                             self.theta_refine).value
                                if np.all(np.isfinite(m)) else math.inf)
        return self._omega[key]

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
    """Spectral norm of a Hermitian operand, or of each of a stack."""
    def norm(h):
        w = np.linalg.eigvalsh((h + _adj(h)) / 2)
        return np.maximum(abs(w[..., 0]), abs(w[..., -1]))
    return _finite_norm(norm, m)


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


def _classic(ctx: BoundContext, t=None) -> BoundValue:
    return BoundValue("classic", None, ctx.norm_a,
                      {"lower": ctx.norm_a / 2})


def _kitt_sum(ctx: BoundContext, t=None) -> BoundValue:
    v = 0.5 * hnorm(ctx.xpow(1.0) + ctx.ypow(1.0))
    return BoundValue("kitt-sum", None, v)


def _kitt_square(ctx: BoundContext, t=None) -> BoundValue:
    inner = 0.5 * hnorm(ctx.xpow(2.0) + ctx.ypow(2.0))
    return BoundValue("kitt-square", None, math.sqrt(inner), {"inner": inner})


def _kitt_mixed(ctx: BoundContext, t=None) -> BoundValue:
    norm_sq = gnorm(ctx.a @ ctx.a)
    v = 0.5 * (ctx.norm_a + math.sqrt(norm_sq))
    return BoundValue("kitt-mixed", None, v, {"norm_a_squared": norm_sq})


def _integral_operand(ctx: BoundContext) -> np.ndarray:
    x, y = ctx.xpow(1.0), ctx.ypow(1.0)
    xy = x @ y
    return (ctx.xpow(2.0) + ctx.ypow(2.0)) / 3 + (xy + xy.conj().T) / 6


def _integral(ctx: BoundContext, t=None) -> BoundValue:
    inner = hnorm(_integral_operand(ctx))
    return BoundValue("integral", None, math.sqrt(inner), {"inner": inner})


def _integral_refined(ctx: BoundContext, t=None) -> BoundValue:
    d = ctx.xpow(1.0) - ctx.ypow(1.0)
    inner = hnorm(_integral_operand(ctx) - d @ d / 48)
    return BoundValue("integral-refined", None, math.sqrt(inner),
                      {"inner": inner})


def _yamazaki(ctx: BoundContext, t=None) -> BoundValue:
    wa = ctx.sweep(("alu", 0.5), ctx.aluthge(0.5))
    return BoundValue("yamazaki", None, 0.5 * (ctx.norm_a + wa),
                      {"omega_aluthge": wa})


def _aluthge_half(ctx: BoundContext, t=None) -> BoundValue:
    alu = ctx.aluthge(0.5)
    wa = ctx.sweep(("alu", 0.5), alu)
    wa2 = ctx.sweep(("alu2", 0.5), alu @ alu)
    mod = alu.conj().T @ alu + alu @ alu.conj().T
    inner = (_square(ctx.norm_a) + 0.25 * hnorm(mod) + 0.5 * wa2
             + 2 * ctx.norm_a * wa)
    return BoundValue("aluthge-half", None, 0.5 * math.sqrt(inner),
                      {"inner": inner, "omega_aluthge": wa,
                       "omega_aluthge_sq": wa2})


def _aluthge_terms(ctx: BoundContext, t, alu: np.ndarray):
    """The aluthge-t terms that need no sweep, at a float or a vector t:
    pow4, norm, mod, and the factor of omega(A_t) in the cross term."""
    pow4 = 0.25 * hnorm(ctx.xpow(4 * t) + ctx.xpow(4 * (1 - t)))
    norm = 0.5 * _square(ctx.norm_a)
    mod = 0.25 * hnorm(_adj(alu) @ alu + alu @ _adj(alu))
    cross = hnorm(ctx.xpow(2 * t) + ctx.xpow(2 * (1 - t)))
    return pow4, norm, mod, cross


def _aluthge_weighted(ctx: BoundContext, t: float) -> BoundValue:
    alu = ctx.aluthge(t)
    wa = ctx.sweep(("alu", t), alu)
    wa2 = ctx.sweep(("alu2", t), alu @ alu)
    term_pow4, term_norm, term_mod, cross = _aluthge_terms(ctx, t, alu)
    term_sq = 0.5 * wa2
    term_cross = cross * wa
    inner = term_pow4 + term_norm + term_mod + term_sq + term_cross
    detail = {"inner": inner, "term_pow4": term_pow4, "term_norm": term_norm,
              "term_mod": term_mod, "term_sq": term_sq,
              "term_cross": term_cross}
    return BoundValue("aluthge-t", t, 0.5 * _sqrt_or_inf(inner), detail)


def _aluthge_weighted_bracket(ctx: BoundContext, ts: np.ndarray):
    step = coarse_step(ctx.theta_grid)
    # a probe row holds its (theta, n, n) stack of rotations
    per_probe = 16 * ctx.a.shape[0] ** 2 * (ctx.theta_grid // step)
    probes = min(BRACKET_PROBES, max(1, BRACKET_CHUNK_BYTES // per_probe))
    return _chunked(
        lambda part: _aluthge_chunk(ctx, part, step,
                                    -(-part.size // probes)),
        ts, _t_chunk(ctx))


def _aluthge_chunk(ctx: BoundContext, ts: np.ndarray, step: int, s: int):
    # Each sweep's value is at least its grid maximum over every step-th
    # angle.  Only the probe rows, every s-th t, pay for that maximum; at
    # the other t the lower end comes from the probes' top eigenvectors
    # (quotient_lower).  inner is non-decreasing in both omega terms, so
    # their lower ends carry over to it.
    alu = ctx.aluthge(ts)
    wa, wa2 = (_omega_lower(m, ctx.theta_grid, step, s)
               for m in (alu, alu @ alu))
    pow4, norm, mod, cross = _aluthge_terms(ctx, ts, alu)
    fixed = pow4 + norm + mod
    omega_terms = 0.5 * np.maximum(wa2, 0) + cross * np.maximum(wa, 0)
    return 0.5 * _sqrt_or_inf(fixed + omega_terms)


def _omega_lower(ms: np.ndarray, grid_points: int, step: int, s: int):
    """A lower end of the sweep's value for each matrix of the stack ms:
    the subgrid maximum at every s-th matrix, and the probe vectors'
    rotated quotients at the others (there are none if s is 1)."""
    g, angles = sweep_subgrid(ms[::s], grid_points, step)
    if s == 1:
        return g
    lower = quotient_lower(ms, ms[::s], angles, grid_points)
    lower[::s] = g
    return lower


def _t_chunk(ctx: BoundContext) -> int:
    """Points of t per chunk of a bracket: 16 (t, n, n) stacks of complex
    in BRACKET_CHUNK_BYTES."""
    return max(1, BRACKET_CHUNK_BYTES // (16 * 16 * ctx.a.shape[0] ** 2))


def _chunked(bracket: Callable, ts: np.ndarray, size: int):
    """bracket(ts), computed over chunks of at most size points of ts, so
    that memory stays bounded."""
    return np.concatenate([bracket(ts[i:i + size])
                           for i in range(0, ts.size, size)])


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


@dataclass(frozen=True)
class _Entry:
    """A catalog bound: its scalar evaluator ``(ctx, t) -> BoundValue`` and,
    for t-dependent bounds, a bracket ``(ctx, ts) -> lower`` whose entries
    are at most the evaluator's value at each t of the vector ts."""

    evaluate: Callable
    bracket: Callable | None = None


def _t_entry(bound_id: str, bound: Callable) -> _Entry:
    """The entry of a t-dependent bound written as one function of t."""
    def evaluate(ctx: BoundContext, t: float) -> BoundValue:
        value, detail = bound(ctx, t)
        return BoundValue(bound_id, t, float(value),
                          {k: float(v) for k, v in detail.items()})

    def exact(ctx: BoundContext, ts: np.ndarray):
        return _chunked(lambda chunk: bound(ctx, chunk)[0], ts,
                        _t_chunk(ctx))
    return _Entry(evaluate, exact)


_BOUNDS = {
    "classic": _Entry(_classic),
    "kitt-sum": _Entry(_kitt_sum),
    "kitt-square": _Entry(_kitt_square),
    "kitt-mixed": _Entry(_kitt_mixed),
    "integral": _Entry(_integral),
    "integral-refined": _Entry(_integral_refined),
    "yamazaki": _Entry(_yamazaki),
    "aluthge-t": _Entry(_aluthge_weighted, _aluthge_weighted_bracket),
    "aluthge-half": _Entry(_aluthge_half),
    "weighted-power": _t_entry("weighted-power", _weighted_power),
    "weighted-r": _t_entry("weighted-r", _weighted_r),
    "product": _t_entry("product", _product),
    "fourth-power": _t_entry("fourth-power", _fourth_power),
    "schwarz-radius": _t_entry("schwarz-radius", _schwarz_radius),
}
CATALOG_IDS = tuple(_BOUNDS)
T_DEPENDENT_IDS = frozenset(
    bid for bid, entry in _BOUNDS.items() if entry.bracket is not None)


# ---------------------------------------------------------------------------
# public single-bound evaluators

def classic_envelope(a):
    """Classic envelope (||A||/2, ||A||) bracketing omega(A)."""
    ctx = BoundContext(a)
    return ctx.norm_a / 2, ctx.norm_a


def _on_matrix(bound_id: str) -> Callable:
    """The public evaluator of a catalog bound on a fresh context."""
    evaluate = _BOUNDS[bound_id].evaluate
    if bound_id in T_DEPENDENT_IDS:
        def bound(a, w: WeightParams) -> BoundValue:
            return evaluate(BoundContext(a), w.t)
    else:
        def bound(a) -> BoundValue:
            return evaluate(BoundContext(a))
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
def minimize_over_t(bound_id: str, a, grid_points: int = 1001,
                    refine_tol: float = 1e-8, *, refine: bool = True,
                    ctx: BoundContext | None = None):
    """Minimize a t-dependent bound over the clamped weight window.

    Grid scan over [T_MIN, 1 - T_MIN] followed by golden-section
    refinement around the best grid point.  Evaluations that overflow
    (the objective genuinely diverges when sigma_1 > 1 and the exponent
    blows up) are recorded as +inf and skipped.  Overflow and invalid-value
    warnings are off: exponents such as 1/t make the powers overflow near
    the ends of the grid, and the bound is inf there.

    The scan is pruned with certified lower ends.  The bound's batched
    bracket over the whole grid is a lower end of the scalar value at
    every grid point.  The scalar evaluator then visits the grid points in
    order of their lower ends, a lower end that is not finite counting as
    -inf, and stops at the first whose lower end exceeds the smallest
    value evaluated so far.  Every point whose lower end is at most the
    grid minimum is visited, so the first-index minimum over the grid,
    and hence the result, is that of the full scan.

    For aluthge-t the bracket is built in chunks of T grid points.  At
    its probe rows, every s-th point of a chunk with
    s = ceil(T / BRACKET_PROBES) (larger where the probes' rotations
    would exceed BRACKET_CHUNK_BYTES), the lower ends of omega(A_t) and
    omega(A_t^2) are their sweeps' maxima over a subgrid of angles.  At
    every other point they come from the probes' top eigenvectors x
    (rotated Rayleigh quotients): at each angle theta of the sweep's
    grid, Re(e^{i theta} x*Mx) = x*Re(e^{i theta} M)x is at most
    lambda_max(Re(e^{i theta} M)), and so at most the sweep's value,
    refined or not.  Lower ends are widened by BRACKET_REL to cover
    rounding.

    Returns (t_star, value) with value comparable to omega(A).
    """
    if bound_id not in T_DEPENDENT_IDS:
        raise ValueError(f"bound {bound_id!r} is not t-dependent")
    check_count("grid_points", grid_points, 1)
    if ctx is None:
        ctx = BoundContext(a)
    entry = _BOUNDS[bound_id]
    f = entry.evaluate
    ts = np.linspace(T_MIN, 1 - T_MIN, grid_points)
    lower = _lower_ends(entry, ctx, ts)
    vals = np.full(grid_points, math.inf)
    done = np.zeros(grid_points, dtype=bool)

    def scan(indices):
        for i in indices:
            vals[i] = f(ctx, float(ts[i])).value
            done[i] = True

    key = np.where(np.isfinite(lower), lower, -math.inf)
    cap = math.inf
    for i in np.argsort(key, kind="stable"):
        if key[i] > cap:
            break
        scan((i,))
        cap = min(cap, vals[i])
    best = int(np.argmin(vals))
    if not math.isfinite(vals[best]) and not done.all():
        # no finite value among the visited points: finish the scan
        scan(np.flatnonzero(~done))
        best = int(np.argmin(vals))
    if not math.isfinite(vals[best]):
        raise NonFinite(f"{bound_id}: all grid evaluations overflowed "
                        f"(e.g. t={ts[best]})")
    t_star, value = float(ts[best]), float(vals[best])
    if refine and grid_points > 1:
        lo = float(ts[max(best - 1, 0)])
        hi = float(ts[min(best + 1, grid_points - 1)])
        t_ref, v_ref, _ = golden_min(
            lambda t: f(ctx, float(t)).value, lo, hi, refine_tol)
        if v_ref < value:
            t_star, value = float(t_ref), float(v_ref)
    return t_star, value


def _lower_ends(entry: _Entry, ctx: BoundContext, ts: np.ndarray):
    """The bound's lower end at every t of ts, widened to cover rounding."""
    lower = entry.bracket(ctx, ts)
    return lower - BRACKET_REL * (abs(lower) + ctx.norm_a)


@np.errstate(over="ignore", invalid="ignore")
def compare_all(a, t_grid: int = 1001, theta_grid: int = DEFAULT_GRID,
                refine: bool = True, ids=CATALOG_IDS) -> BoundReport:
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
            if bound_id in T_DEPENDENT_IDS:
                t_star, _ = minimize_over_t(bound_id, None, t_grid,
                                            refine=refine, ctx=ctx)
                bv = _BOUNDS[bound_id].evaluate(ctx, t_star)
            else:
                bv = _BOUNDS[bound_id].evaluate(ctx)
        except (NumradError, np.linalg.LinAlgError, FloatingPointError) as exc:
            bv = BoundValue(bound_id, None, math.nan, {"error": str(exc)})
        bounds.append(bv)
    slacks = {bv.id: bv.value - omega.value for bv in bounds
              if math.isfinite(bv.value)}
    bounds.sort(key=lambda bv: (math.isnan(bv.value), bv.value))
    return BoundReport(omega=omega, bounds=bounds, slacks=slacks)
