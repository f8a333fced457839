"""Numerical radius: angle-sweep computation and a sampling oracle.

The sweep evaluates g(theta) = lambda_max(Re(e^{i theta} A)) on a uniform
grid over [0, 2pi), whole or pruned by Johnson's outer polygon with the
same bits and warm-started from a nearby matrix's sweep, and
refines around the best grid point by Brent's method.
The oracle maximizes |<Ax,x>| over sampled unit vectors with a monotone
phase-aligned ascent, providing an independent lower estimate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .matrix import as_matrix, fits, float_power, frobenius
from .optimize import golden_max

DEFAULT_GRID = 720
THETA_GRID_MIN = 8  # the smallest angle grid a sweep accepts
DEFAULT_THETA_TOL = 1e-10
DEFAULT_ASCENT_STEPS = 50
# Largest angle step of the subgrid that a cold sweep solves first.
COARSE_STEP_MAX = 16
# Widening, relative to the scale of the values compared, that covers the
# rounding of stacked against single-matrix arithmetic and of upper ends.
BRACKET_REL = 1e-9

_MASK = 0xFFFFFFFFFFFFFFFF


def splitmix64(seed: int, index: int) -> int:
    """Deterministic per-index stream seed derived from a base seed."""
    z = (int(seed) + (index + 1) * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


@dataclass(frozen=True)
class RadiusEstimate:
    value: float
    theta_star: float
    grid_points: int
    refine_width: float


@dataclass(frozen=True)
class OracleEstimate:
    value: float
    trials: int
    seed: int


def check_integer(name: str, value) -> None:
    """Reject a value, such as a seed, that is not an integer (a numpy
    integer will do, a bool will not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_count(name: str, value, least: int) -> None:
    """Reject a count, such as a grid size, that is not an integer
    (check_integer) or is below least."""
    check_integer(name, value)
    if value < least:
        raise ValueError(f"{name} must be at least {least}")


def _lambda_max_rotated(a, theta: float) -> float:
    h = (np.exp(1j * theta) * a + np.exp(-1j * theta) * a.conj().T) / 2
    return float(np.linalg.eigvalsh(h)[-1])


def _top(a, phases) -> np.ndarray:
    """g(theta) = lambda_max(Re(e^{i theta} A)) over the phases e^{i theta},
    in one stacked eigvalsh of the rotations."""
    p = phases[:, None, None]
    rot = (p * a[..., None, :, :]
           + np.conj(p) * a.conj().swapaxes(-1, -2)[..., None, :, :]) / 2
    return np.linalg.eigvalsh(rot)[..., -1]


def radius_sweep(a, grid_points: int = DEFAULT_GRID,
                 refine: bool = True) -> RadiusEstimate:
    """Numerical radius via sup over theta of ||Re(e^{i theta} A)||.

    lambda_max over the full circle is equivalent to using the norm,
    since ||Re(e^{i theta}A)|| = max(g(theta), g(theta + pi)).  With
    refine=False the grid maximum is returned as-is, trading a slight
    (one-sided, low) bias for speed.  The grid stage solves every angle,
    in one (grid_points, n, n) stack.
    """
    check_count("grid_points", grid_points, THETA_GRID_MIN)
    a = as_matrix(a)
    thetas = 2 * np.pi * np.arange(grid_points) / grid_points
    g = _top(a, np.exp(1j * thetas))
    return _refined(lambda th: _lambda_max_rotated(a, th), grid_points,
                    refine, g.max(), thetas[g.argmax()])


def pruned_sweep(a, grid_points: int = DEFAULT_GRID,
                 refine: bool = True) -> RadiusEstimate:
    """radius_sweep(a, grid_points, refine), bit for bit, solving only the
    grid angles where its maximum can lie: warm_sweep with no warm start.
    """
    return warm_sweep(a, grid_points, refine)[0]


def warm_sweep(a, grid_points: int = DEFAULT_GRID, refine: bool = True,
               warm=None):
    """(radius_sweep(a, grid_points, refine), bit for bit, upper ends of g
    at every grid angle), solving only the grid angles where the maximum
    of g can lie: a skipped angle lies strictly below the grid maximum.

    warm is None or (m, upper): a matrix m swept on the same grid and the
    upper ends that its warm_sweep gave.  By Weyl's inequality, with
    delta = ||a - m||_F, g <= upper + delta at every angle, and the grid
    maximum is at least low = max(upper) - delta, as g of m peaks there.
    Cold, the subgrid of every coarse_step(grid_points)-th angle is solved
    first: its support_upper ends bound g, and its maximum is low.  Then
    one stack solves each other angle whose end, widened by BRACKET_REL,
    reaches low (all of them where g is flat).  A warm start that would
    solve more angles than the cold subgrid goes cold.  The upper ends
    given back, unwidened, are g where solved, else the ends used.  Of a
    zero matrix, g is 0 at every angle: no angle is solved, and the
    refinement searches the constant 0.0.
    """
    check_count("grid_points", grid_points, THETA_GRID_MIN)
    a = as_matrix(a)
    thetas = 2 * np.pi * np.arange(grid_points) / grid_points
    if a.any():
        g, upper = _grid_stage(a, np.exp(1j * thetas), warm,
                               coarse_step(grid_points))
        est = _refined(lambda th: _lambda_max_rotated(a, th), grid_points,
                       refine, g.max(), thetas[g.argmax()])
    else:
        upper = np.zeros(grid_points)
        est = _refined(lambda th: 0.0, grid_points, refine, 0.0, 0.0)
    return est, upper


def _grid_stage(a, phases, warm, step):
    """warm_sweep's grid stage, cold from every step-th angle: g at the
    phases, -inf at the angles skipped, and the upper ends."""
    size = phases.size
    g = np.full(size, -np.inf)
    if warm is not None:
        delta = frobenius(a - warm[0])
        ends, low = warm[1] + delta, warm[1].max() - delta
        solve = ends + BRACKET_REL * (abs(low) + abs(ends).max()) >= low
    if warm is None or np.count_nonzero(solve) > size // step:
        g[::step] = sub = _top(a, phases[::step])
        ends, low = support_upper(sub, step), sub.max()
        solve = ends + BRACKET_REL * (abs(low) + abs(sub).max()) >= low
        solve[::step] = False
    if solve.any():
        g[solve] = _top(a, phases[solve])
    return g, np.where(np.isneginf(g), ends, g)


def _refined(g, grid_points: int, refine: bool, grid_val, grid_theta):
    """The sweep's result from g(theta), its grid value and first-index
    angle."""
    half = np.pi / grid_points
    if not refine:
        return RadiusEstimate(float(grid_val), float(grid_theta),
                              grid_points, float(4 * half))
    theta, value, width = golden_max(
        g, grid_theta - 2 * half, grid_theta + 2 * half, DEFAULT_THETA_TOL)
    if grid_val > value:
        theta, value = grid_theta, float(grid_val)
    return RadiusEstimate(float(value), float(theta % (2 * np.pi)),
                          grid_points, float(width))


def support_upper(sub: np.ndarray, step: int) -> np.ndarray:
    """Unwidened upper ends of g on a grid from its values sub at every
    step-th angle.  In a gap Delta < pi from theta_k to theta_{k+1},
    e^{i theta} = alpha e^{i theta_k} + beta e^{i theta_{k+1}}, alpha =
    sin(theta_{k+1} - theta) / sin(Delta) and beta = sin(theta - theta_k) /
    sin(Delta) both >= 0, so g(theta) = max over z in W(M) of
    Re(e^{i theta} z) <= alpha g_k + beta g_{k+1}."""
    h = 2 * np.pi / (sub.size * step)  # the grid's spacing
    j = np.arange(step)
    alpha, beta = np.sin(h * np.array([step - j, j])) / np.sin(h * step)
    after = np.roll(sub, -1)  # g at theta_{k+1}
    return (np.outer(sub, alpha) + np.outer(after, beta)).ravel()


def coarse_step(grid_points: int) -> int:
    """Largest divisor of grid_points that is at most COARSE_STEP_MAX and
    leaves at least 3 angles in the subgrid; 1 if there is none."""
    return max((d for d in range(1, COARSE_STEP_MAX + 1)
                if grid_points % d == 0 and grid_points // d >= 3),
               default=1)


def _subgrid_max(a, grid_points: int) -> float:
    """Max of g over every coarse_step(grid_points)-th grid angle, by one
    _top: a lower end of the sweep's value, refined or not, and so of
    omega(A); 0, a lower end of omega too, where a does not fit."""
    thetas = 2 * np.pi * np.arange(grid_points) / grid_points
    phases = np.exp(1j * thetas[::coarse_step(grid_points)])
    return float(_top(a, phases).max()) if fits(a) else 0.0


def radius_oracle(a, trials: int, seed: int) -> OracleEstimate:
    """Lower estimate of the numerical radius from sampled unit vectors.

    Trials start from one splitmix-seeded block of complex-Gaussian unit
    vectors, the columns of a real array, and take at most
    DEFAULT_ASCENT_STEPS power steps for cos(phi) B + sin(phi) C shifted by
    ||A||, phi = arg <Ax,x>, A = B + iC (B, C Hermitian) scaled by the power
    of two nearest 1/||A||.  A trial retires when its gain stalls or ten
    times its gains' geometric tail cannot reach the best of all trials.
    """
    check_count("trials", trials, 1)
    check_integer("seed", seed)
    a = as_matrix(a)
    rng = np.random.default_rng(splitmix64(seed, 0))
    x = rng.standard_normal((trials, 2, a.shape[0])).transpose(1, 2, 0)
    x = x.reshape(-1, trials) / np.linalg.norm(x, axis=(0, 1))
    norm = float(np.linalg.norm(a, 2))
    if norm == 0:
        return OracleEstimate(value=0.0, trials=trials, seed=seed)
    scale = np.ldexp(1.0, min(1023, -int(np.rint(np.log2(norm)))))
    b, c = (a + a.conj().T) * (scale / 2), (a - a.conj().T) * (scale / 2j)
    # [B; C] on the real embedding [Re x; Im x] of a trial x
    m = np.block([[b.real, -b.imag], [b.imag, b.real],
                  [c.real, -c.imag], [c.imag, c.real]])
    best, gain, top = np.zeros(trials), np.zeros(trials), 0.0
    done = np.zeros(trials, dtype=bool)
    for step in range(DEFAULT_ASCENT_STEPS + 1):
        p = (m @ x).reshape(2, -1, x.shape[1])  # Bx and Cx
        reim = np.einsum("it,kit->kt", x, p)
        q = np.hypot(*reim)
        gain, last = np.maximum(best, q) - best, gain
        best += gain
        top = max(top, best.max())
        if step >= 2:  # stalled, or outpaced by ten geometric tails
            rho = np.minimum(gain, 0.999 * last) / np.where(last > 0, last, 1)
            done |= (gain <= 1e-13 * best) | (
                best + 10 * gain * rho / (1 - rho) < top * (1 - 1e-12))
        if step == DEFAULT_ASCENT_STEPS or done.all():
            break
        phase = np.where(q > 0, reim / np.where(q > 0, q, 1), [[1.0], [0.0]])
        x = norm * scale * x + np.einsum("kt,kit->it", phase, p)
        x /= np.sqrt(np.einsum("it,it->t", x, x))
        if done.sum() >= 0.2 * done.size:
            keep = ~done
            x, best, gain, done = (v[..., keep] for v in (x, best, gain, done))
    return OracleEstimate(value=float(top / scale), trials=trials, seed=seed)


def power_check(a, k: int):
    """Return (omega(A^k), omega(A)^k), both via the sweep; each is inf
    where it overflows.  omega(A^k) is 2^(e k) omega((2^-e A)^k), with
    2^e the least power of two, at least 1, above the largest part of A's
    entries, so it is finite wherever it fits in a float (and inf where
    (2^-e A)^k does not pass matrix.fits)."""
    check_count("k", k, 1)
    a = as_matrix(a)
    e = max(0, math.frexp(np.maximum(abs(a.real), abs(a.imag)).max())[1])
    with np.errstate(over="ignore", invalid="ignore"):
        power = np.linalg.matrix_power(np.ldexp(1.0, -e) * a, k)
        lhs = (float(np.ldexp(pruned_sweep(power).value, e * k))
               if fits(power) else math.inf)
    return lhs, float_power(pruned_sweep(a).value, k)
