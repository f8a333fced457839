"""Catalog of numerical-radius upper bounds and their t-optimization.

Throughout, X = |A| and Y = |A*|.  Fractional powers of both are cheap
because they share the singular value decomposition of A, which is
computed once per context.  All bound evaluators return a BoundValue
whose value is directly comparable to omega(A); bounds stated in the
squared form record the pre-square-root quantity under detail["inner"].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NonFinite, NumradError, WeightOutOfRange
from .matrix import as_matrix
from .optimize import golden_min
from .polar import SIGMA_CUT_REL, T_MIN
from .radius import (DEFAULT_GRID, DEFAULT_THETA_TOL, RadiusEstimate,
                     coarse_step, radius_sweep, sweep_subgrid)

TOL_SLACK = 1e-7
# Widening of a batched bracket, relative to |value| + ||A||, that covers
# the rounding differences between the batched and the scalar evaluators.
BRACKET_REL = 1e-9
# Bytes of (t, theta) operand stack built at once by a bracket.
BRACKET_CHUNK_BYTES = 1 << 24


@dataclass(frozen=True)
class WeightParams:
    t: float
    r_cap: float


def weight_params(t: float) -> WeightParams:
    if not T_MIN <= t <= 1 - T_MIN:
        raise WeightOutOfRange(f"t={t} outside [{T_MIN}, {1 - T_MIN}]")
    return WeightParams(t=float(t), r_cap=max(t, 1 - t))


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


class BoundContext:
    """Shared spectral data for evaluating many bounds on one matrix."""

    def __init__(self, a, theta_grid: int = DEFAULT_GRID,
                 theta_tol: float = DEFAULT_THETA_TOL,
                 theta_refine: bool = True):
        self.a = as_matrix(a)
        self.theta_grid = theta_grid
        self.theta_tol = theta_tol
        self.theta_refine = theta_refine
        u, s, vh = np.linalg.svd(self.a)
        self.sigma = s
        self._left = u
        self._right = vh.conj().T
        self.norm_a = float(s[0])
        cut = SIGMA_CUT_REL * self.norm_a
        keep = s > cut
        self.isometry = u[:, keep] @ self._right[:, keep].conj().T
        self._alu: dict[float, np.ndarray] = {}
        self._omega: dict = {}
        self._omega_a: RadiusEstimate | None = None

    def xpow(self, r: float) -> np.ndarray:
        """|A|^r (r > 0).  Overflowing powers propagate as non-finite."""
        return self._power(self._right, r)

    def ypow(self, r: float) -> np.ndarray:
        """|A*|^r (r > 0)."""
        return self._power(self._left, r)

    def _power(self, v: np.ndarray, r: float) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            d = self.sigma**r
            m = (v * d) @ v.conj().T
            return (m + m.conj().T) / 2

    def xpows(self, rs) -> np.ndarray:
        """Stack of |A|^r over a vector of exponents, shape (len(rs), n, n)."""
        return self._powers(self._right, rs)

    def ypows(self, rs) -> np.ndarray:
        """Stack of |A*|^r over a vector of exponents."""
        return self._powers(self._left, rs)

    def _powers(self, v: np.ndarray, rs) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            d = self.sigma ** np.asarray(rs, dtype=float)[:, None]
            m = (v * d[:, None, :]) @ v.conj().T
            return (m + _adj(m)) / 2

    def aluthge_t(self, t: float) -> np.ndarray:
        m = self._alu.get(t)
        if m is None:
            m = self.xpow(1 - t) @ self.isometry @ self.xpow(t)
            self._alu[t] = m
        return m

    def aluthge_ts(self, ts) -> np.ndarray:
        """Stack of weighted Aluthge transforms over a vector of t."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.xpows(1 - ts) @ self.isometry @ self.xpows(ts)

    def sweep(self, key, m) -> float:
        """omega(m) by the context's sweep; inf for an overflowed operand."""
        v = self._omega.get(key)
        if v is None:
            if np.all(np.isfinite(m)):
                v = radius_sweep(m, self.theta_grid, self.theta_tol,
                                 self.theta_refine).value
            else:
                v = math.inf
            self._omega[key] = v
        return v

    @property
    def omega_estimate(self) -> RadiusEstimate:
        if self._omega_a is None:
            self._omega_a = radius_sweep(self.a, self.theta_grid,
                                         self.theta_tol, self.theta_refine)
        return self._omega_a

    @staticmethod
    def hnorm(m) -> float:
        """Spectral norm of a Hermitian operand via extreme eigenvalues."""
        if not np.all(np.isfinite(m)):
            return math.inf
        w = np.linalg.eigvalsh((m + m.conj().T) / 2)
        return float(max(abs(w[0]), abs(w[-1])))

    @staticmethod
    def gnorm(m) -> float:
        """Spectral norm of a general operand."""
        if not np.all(np.isfinite(m)):
            return math.inf
        return float(np.linalg.svd(m, compute_uv=False)[0])

    @staticmethod
    def hnorms(ms: np.ndarray) -> np.ndarray:
        """hnorm over a stack of operands."""
        out = np.full(ms.shape[0], math.inf)
        ok = np.isfinite(ms).all(axis=(-2, -1))
        if ok.any():
            w = np.linalg.eigvalsh((ms[ok] + _adj(ms[ok])) / 2)
            out[ok] = np.maximum(abs(w[:, 0]), abs(w[:, -1]))
        return out

    @staticmethod
    def gnorms(ms: np.ndarray) -> np.ndarray:
        """gnorm over a stack of operands."""
        out = np.full(ms.shape[0], math.inf)
        ok = np.isfinite(ms).all(axis=(-2, -1))
        if ok.any():
            out[ok] = np.linalg.svd(ms[ok], compute_uv=False)[:, 0]
        return out


def _adj(ms: np.ndarray) -> np.ndarray:
    return ms.conj().swapaxes(-1, -2)


def _square(x: float) -> float:
    """x**2, overflowing to inf like the numpy parts of a bound."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _sqrt_or_inf(inner: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return np.where(np.isfinite(inner), np.sqrt(inner), math.inf)


def _classic(ctx: BoundContext, t=None) -> BoundValue:
    return BoundValue("classic", None, ctx.norm_a,
                      {"lower": ctx.norm_a / 2})


def _kitt_sum(ctx: BoundContext, t=None) -> BoundValue:
    v = 0.5 * ctx.hnorm(ctx.xpow(1.0) + ctx.ypow(1.0))
    return BoundValue("kitt-sum", None, v)


def _kitt_square(ctx: BoundContext, t=None) -> BoundValue:
    inner = 0.5 * ctx.hnorm(ctx.xpow(2.0) + ctx.ypow(2.0))
    return BoundValue("kitt-square", None, math.sqrt(inner), {"inner": inner})


def _kitt_mixed(ctx: BoundContext, t=None) -> BoundValue:
    norm_sq = ctx.gnorm(ctx.a @ ctx.a)
    v = 0.5 * (ctx.norm_a + math.sqrt(norm_sq))
    return BoundValue("kitt-mixed", None, v, {"norm_a_squared": norm_sq})


def _integral_operand(ctx: BoundContext) -> np.ndarray:
    x, y = ctx.xpow(1.0), ctx.ypow(1.0)
    xy = x @ y
    return (ctx.xpow(2.0) + ctx.ypow(2.0)) / 3 + (xy + xy.conj().T) / 6


def _integral(ctx: BoundContext, t=None) -> BoundValue:
    inner = ctx.hnorm(_integral_operand(ctx))
    return BoundValue("integral", None, math.sqrt(inner), {"inner": inner})


def _integral_refined(ctx: BoundContext, t=None) -> BoundValue:
    d = ctx.xpow(1.0) - ctx.ypow(1.0)
    inner = ctx.hnorm(_integral_operand(ctx) - d @ d / 48)
    return BoundValue("integral-refined", None, math.sqrt(inner),
                      {"inner": inner})


def _yamazaki(ctx: BoundContext, t=None) -> BoundValue:
    wa = ctx.sweep(("alu", 0.5), ctx.aluthge_t(0.5))
    return BoundValue("yamazaki", None, 0.5 * (ctx.norm_a + wa),
                      {"omega_aluthge": wa})


def _aluthge_half(ctx: BoundContext, t=None) -> BoundValue:
    alu = ctx.aluthge_t(0.5)
    wa = ctx.sweep(("alu", 0.5), alu)
    wa2 = ctx.sweep(("alu2", 0.5), alu @ alu)
    mod = alu.conj().T @ alu + alu @ alu.conj().T
    inner = (_square(ctx.norm_a) + 0.25 * ctx.hnorm(mod) + 0.5 * wa2
             + 2 * ctx.norm_a * wa)
    return BoundValue("aluthge-half", None, 0.5 * math.sqrt(inner),
                      {"inner": inner, "omega_aluthge": wa,
                       "omega_aluthge_sq": wa2})


def _aluthge_weighted(ctx: BoundContext, t: float) -> BoundValue:
    alu = ctx.aluthge_t(t)
    wa = ctx.sweep(("alu", t), alu)
    wa2 = ctx.sweep(("alu2", t), alu @ alu)
    term_pow4 = 0.25 * ctx.hnorm(ctx.xpow(4 * t) + ctx.xpow(4 * (1 - t)))
    term_norm = 0.5 * _square(ctx.norm_a)
    term_mod = 0.25 * ctx.hnorm(alu.conj().T @ alu + alu @ alu.conj().T)
    term_sq = 0.5 * wa2
    term_cross = ctx.hnorm(ctx.xpow(2 * t) + ctx.xpow(2 * (1 - t))) * wa
    inner = term_pow4 + term_norm + term_mod + term_sq + term_cross
    detail = {"inner": inner, "term_pow4": term_pow4, "term_norm": term_norm,
              "term_mod": term_mod, "term_sq": term_sq,
              "term_cross": term_cross}
    value = 0.5 * math.sqrt(inner) if math.isfinite(inner) else math.inf
    return BoundValue("aluthge-t", t, value, detail)


def _aluthge_weighted_bracket(ctx: BoundContext, ts: np.ndarray):
    # Each sweep's value lies in [g, g / cos(pi * step / theta_grid)], g
    # being its grid maximum over every step-th angle (Johnson's
    # support-line bound).  inner is non-decreasing in both omega terms,
    # so their brackets carry over to it.
    step = coarse_step(ctx.theta_grid)
    if step == 1:
        nan = np.full(ts.shape, math.nan)
        return nan, nan
    alu = ctx.aluthge_ts(ts)
    with np.errstate(over="ignore", invalid="ignore"):
        wa = sweep_subgrid(alu, ctx.theta_grid, step)
        wa2 = sweep_subgrid(alu @ alu, ctx.theta_grid, step)
        fixed = (0.25 * ctx.hnorms(ctx.xpows(4 * ts) + ctx.xpows(4 * (1 - ts)))
                 + 0.5 * _square(ctx.norm_a)
                 + 0.25 * ctx.hnorms(_adj(alu) @ alu + alu @ _adj(alu)))
        cross = ctx.hnorms(ctx.xpows(2 * ts) + ctx.xpows(2 * (1 - ts)))
        omega_terms = 0.5 * np.maximum(wa2, 0) + cross * np.maximum(wa, 0)
        widen = 1 / math.cos(math.pi * step / ctx.theta_grid)
        return (0.5 * _sqrt_or_inf(fixed + omega_terms),
                0.5 * _sqrt_or_inf(fixed + widen * omega_terms))


def _weighted_power(ctx: BoundContext, t: float) -> BoundValue:
    with np.errstate(invalid="ignore", over="ignore"):
        m = (1 - t) * ctx.xpow(1 / (1 - t)) + t * ctx.ypow(1 / t)
    inner = ctx.hnorm(m)
    value = math.sqrt(inner) if math.isfinite(inner) else math.inf
    return BoundValue("weighted-power", t, value, {"inner": inner})


def _weighted_power_batch(ctx: BoundContext, ts: np.ndarray) -> np.ndarray:
    c = ts[:, None, None]
    with np.errstate(invalid="ignore", over="ignore"):
        m = (1 - c) * ctx.xpows(1 / (1 - ts)) + c * ctx.ypows(1 / ts)
    return _sqrt_or_inf(ctx.hnorms(m))


def _weighted_r(ctx: BoundContext, t: float) -> BoundValue:
    r_cap = max(t, 1 - t)
    d = ctx.xpow(1.0) - ctx.ypow(1.0)
    m = ctx.xpow(2.0) + ctx.ypow(2.0) - (t * (1 - t) / r_cap) * (d @ d)
    inner = 0.5 * ctx.hnorm(m)
    return BoundValue("weighted-r", t, math.sqrt(inner), {"inner": inner})


def _weighted_r_batch(ctx: BoundContext, ts: np.ndarray) -> np.ndarray:
    c = (ts * (1 - ts) / np.maximum(ts, 1 - ts))[:, None, None]
    d = ctx.xpow(1.0) - ctx.ypow(1.0)
    with np.errstate(invalid="ignore", over="ignore"):
        m = ctx.xpow(2.0) + ctx.ypow(2.0) - c * (d @ d)
        return _sqrt_or_inf(0.5 * ctx.hnorms(m))


def _product(ctx: BoundContext, t: float) -> BoundValue:
    n1 = ctx.gnorm(ctx.xpow(t) @ ctx.ypow(t))
    n2 = ctx.gnorm(ctx.xpow(1 - t) @ ctx.ypow(1 - t))
    value = 0.5 * (ctx.norm_a + math.sqrt(n1 * n2))
    return BoundValue("product", t, value,
                      {"norm_t": n1, "norm_one_minus_t": n2})


def _product_batch(ctx: BoundContext, ts: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore", over="ignore"):
        n1 = ctx.gnorms(ctx.xpows(ts) @ ctx.ypows(ts))
        n2 = ctx.gnorms(ctx.xpows(1 - ts) @ ctx.ypows(1 - ts))
        return 0.5 * (ctx.norm_a + np.sqrt(n1 * n2))


def _fourth_power(ctx: BoundContext, t: float) -> BoundValue:
    with np.errstate(invalid="ignore", over="ignore"):
        m = ((ctx.xpow(4 * (1 - t)) + ctx.ypow(4 * t)) / 4
             + ((1 - t) * ctx.xpow(2.0) + t * ctx.ypow(2.0)) / 2)
    inner = ctx.hnorm(m)
    value = math.sqrt(inner) if math.isfinite(inner) else math.inf
    return BoundValue("fourth-power", t, value, {"inner": inner})


def _fourth_power_batch(ctx: BoundContext, ts: np.ndarray) -> np.ndarray:
    c = ts[:, None, None]
    with np.errstate(invalid="ignore", over="ignore"):
        m = ((ctx.xpows(4 * (1 - ts)) + ctx.ypows(4 * ts)) / 4
             + ((1 - c) * ctx.xpow(2.0) + c * ctx.ypow(2.0)) / 2)
    return _sqrt_or_inf(ctx.hnorms(m))


def _schwarz_radius(ctx: BoundContext, t: float) -> BoundValue:
    with np.errstate(invalid="ignore", over="ignore"):
        m = t * ctx.xpow(2 / t) + (1 - t) * ctx.ypow(2 / (1 - t))
    norm_m = ctx.hnorm(m)
    if not math.isfinite(norm_m):
        return BoundValue("schwarz-radius", t, math.inf, {"inner": math.inf})
    wa2 = ctx.sweep("a2", ctx.a @ ctx.a)
    inner = 0.5 * (math.sqrt(norm_m) + wa2)
    return BoundValue("schwarz-radius", t, math.sqrt(inner),
                      {"inner": inner, "omega_a_squared": wa2})


def _schwarz_radius_batch(ctx: BoundContext, ts: np.ndarray) -> np.ndarray:
    c = ts[:, None, None]
    with np.errstate(invalid="ignore", over="ignore"):
        m = c * ctx.xpows(2 / ts) + (1 - c) * ctx.ypows(2 / (1 - ts))
    norm_m = ctx.hnorms(m)
    if not np.isfinite(norm_m).any():
        return norm_m
    wa2 = ctx.sweep("a2", ctx.a @ ctx.a)
    return _sqrt_or_inf(0.5 * (np.sqrt(norm_m) + wa2))


@dataclass(frozen=True)
class _Entry:
    """A catalog bound: its scalar evaluator ``(ctx, t) -> BoundValue`` and,
    for t-dependent bounds, a bracket ``(ctx, ts) -> (lower, upper)`` that
    holds the evaluator's value at every t of the vector ts."""

    evaluate: Callable
    bracket: Callable | None = None


def _exact(batch: Callable) -> Callable:
    """A bracket whose ends are both the batched value."""
    def bracket(ctx: BoundContext, ts: np.ndarray):
        v = batch(ctx, ts)
        return v, v
    return bracket


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
    "weighted-power": _Entry(_weighted_power, _exact(_weighted_power_batch)),
    "weighted-r": _Entry(_weighted_r, _exact(_weighted_r_batch)),
    "product": _Entry(_product, _exact(_product_batch)),
    "fourth-power": _Entry(_fourth_power, _exact(_fourth_power_batch)),
    "schwarz-radius": _Entry(_schwarz_radius, _exact(_schwarz_radius_batch)),
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


def kittaneh_sum(a) -> BoundValue:
    return _kitt_sum(BoundContext(a))


def kittaneh_square(a) -> BoundValue:
    return _kitt_square(BoundContext(a))


def kittaneh_mixed(a) -> BoundValue:
    return _kitt_mixed(BoundContext(a))


def integral_bound(a) -> BoundValue:
    return _integral(BoundContext(a))


def integral_refined(a) -> BoundValue:
    return _integral_refined(BoundContext(a))


def yamazaki(a) -> BoundValue:
    return _yamazaki(BoundContext(a))


def aluthge_half(a) -> BoundValue:
    return _aluthge_half(BoundContext(a))


def aluthge_weighted(a, w: WeightParams) -> BoundValue:
    return _aluthge_weighted(BoundContext(a), w.t)


def weighted_power(a, w: WeightParams) -> BoundValue:
    return _weighted_power(BoundContext(a), w.t)


def weighted_R(a, w: WeightParams) -> BoundValue:
    return _weighted_r(BoundContext(a), w.t)


def product_bound(a, w: WeightParams) -> BoundValue:
    return _product(BoundContext(a), w.t)


def fourth_power(a, w: WeightParams) -> BoundValue:
    return _fourth_power(BoundContext(a), w.t)


def schwarz_radius(a, w: WeightParams) -> BoundValue:
    return _schwarz_radius(BoundContext(a), w.t)


# ---------------------------------------------------------------------------
# t-optimization

def minimize_over_t(bound_id: str, a, grid_points: int = 1001,
                    refine_tol: float = 1e-8, *, refine: bool = True,
                    ctx: BoundContext | None = None):
    """Minimize a t-dependent bound over the clamped weight window.

    Grid scan over [T_MIN, 1 - T_MIN] followed by golden-section
    refinement around the best grid point.  Evaluations that overflow
    (the objective genuinely diverges when sigma_1 > 1 and the exponent
    blows up) are recorded as +inf and skipped.

    The scan is pruned with certified brackets.  The bound's batched
    bracket [lower, upper] over the whole grid holds the scalar value at
    every grid point.  The scalar evaluator then visits the grid points in
    order of their lower ends and stops at the first whose lower end
    exceeds a cap on the grid minimum (the smallest upper end, or the
    smallest value evaluated so far); grid points whose bracket is not
    finite are always evaluated.  No skipped point can hold or tie the
    minimum, so the first-index minimum over the grid, and hence the
    result, is that of the full scan.

    Returns (t_star, value) with value comparable to omega(A).
    """
    if bound_id not in T_DEPENDENT_IDS:
        raise ValueError(f"bound {bound_id!r} is not t-dependent")
    if ctx is None:
        ctx = BoundContext(a)
    entry = _BOUNDS[bound_id]
    f = entry.evaluate
    ts = np.linspace(T_MIN, 1 - T_MIN, grid_points)
    lower, upper = _brackets(entry, ctx, ts)
    vals = np.full(grid_points, math.inf)
    done = np.zeros(grid_points, dtype=bool)

    def scan(indices):
        for i in indices:
            vals[i] = f(ctx, float(ts[i])).value
            done[i] = True

    certain = np.isfinite(lower) & np.isfinite(upper)
    scan(np.flatnonzero(~certain))
    order = np.flatnonzero(certain)
    order = order[np.argsort(lower[order], kind="stable")]
    cap = upper[certain].min(initial=math.inf)
    for i in order:
        if lower[i] > cap:
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


def _brackets(entry: _Entry, ctx: BoundContext, ts: np.ndarray):
    """The bound's bracket at every t of ts, widened to cover rounding.

    The stacks are built in chunks of t, so that memory stays bounded.
    """
    n = ctx.a.shape[0]
    per_t = 16 * n * n * (ctx.theta_grid // coarse_step(ctx.theta_grid))
    chunk = max(1, BRACKET_CHUNK_BYTES // per_t)
    parts = [entry.bracket(ctx, ts[i:i + chunk])
             for i in range(0, ts.size, chunk)]
    lower = np.concatenate([p[0] for p in parts])
    upper = np.concatenate([p[1] for p in parts])
    with np.errstate(invalid="ignore", over="ignore"):
        return (lower - BRACKET_REL * (abs(lower) + ctx.norm_a),
                upper + BRACKET_REL * (abs(upper) + ctx.norm_a))


def _minimized_bound(bound_id: str, ctx: BoundContext, grid_points: int,
                     refine_tol: float, refine: bool) -> BoundValue:
    t_star, _ = minimize_over_t(bound_id, None, grid_points, refine_tol,
                                refine=refine, ctx=ctx)
    return _BOUNDS[bound_id].evaluate(ctx, t_star)


def compare_all(a, t_grid: int = 1001, theta_grid: int = DEFAULT_GRID,
                refine_tol: float = 1e-8, refine: bool = True,
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
            if bound_id in T_DEPENDENT_IDS:
                bv = _minimized_bound(bound_id, ctx, t_grid, refine_tol, refine)
            else:
                bv = _BOUNDS[bound_id].evaluate(ctx)
        except (NumradError, np.linalg.LinAlgError, FloatingPointError) as exc:
            bv = BoundValue(bound_id, None, math.nan, {"error": str(exc)})
        bounds.append(bv)
    slacks = {bv.id: bv.value - omega.value for bv in bounds
              if math.isfinite(bv.value)}
    bounds.sort(key=lambda bv: (math.isnan(bv.value), bv.value))
    return BoundReport(omega=omega, bounds=bounds, slacks=slacks)
