"""Numerical radius: angle-sweep computation and a sampling oracle.

The sweep evaluates g(theta) = lambda_max(Re(e^{i theta} A)) on a uniform
grid over [0, 2pi), whole or pruned by Johnson's outer polygon with the
same bits, and golden-section refines around the best grid point.
The oracle maximizes |<Ax,x>| over sampled unit vectors with a monotone
phase-aligned ascent, providing an independent lower estimate.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .matrix import as_matrix
from .optimize import golden_max

DEFAULT_GRID = 720
DEFAULT_THETA_TOL = 1e-10
DEFAULT_ASCENT_STEPS = 50
# Largest angle step of the subgrid that gives a lower end of a sweep's value.
COARSE_STEP_MAX = 16
# Widening, relative to the scale of the values compared, that covers the
# rounding of stacked against single-matrix arithmetic and of upper ends.
BRACKET_REL = 1e-9

_MASK = 0xFFFFFFFFFFFFFFFF


def splitmix64(seed: int, index: int) -> int:
    """Deterministic per-index stream seed derived from a base seed."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK
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


def check_count(name: str, value, least: int) -> None:
    """Reject a count, such as a grid size, that is not an integer (a
    numpy integer will do, a bool will not) or is below least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")


def _lambda_max_rotated(a, theta: float) -> float:
    h = (np.exp(1j * theta) * a + np.exp(-1j * theta) * a.conj().T) / 2
    return float(np.linalg.eigvalsh(h)[-1])


def _rotations(a, phases) -> np.ndarray:
    """Re(e^{i theta} A) over the phases e^{i theta}, on a new axis before
    the matrix axes; a may carry leading stack axes."""
    p = phases[:, None, None]
    return (p * a[..., None, :, :]
            + np.conj(p) * a.conj().swapaxes(-1, -2)[..., None, :, :]) / 2


def radius_sweep(a, grid_points: int = DEFAULT_GRID,
                 refine: bool = True) -> RadiusEstimate:
    """Numerical radius via sup over theta of ||Re(e^{i theta} A)||.

    lambda_max over the full circle is equivalent to using the norm,
    since ||Re(e^{i theta}A)|| = max(g(theta), g(theta + pi)).  With
    refine=False the grid maximum is returned as-is, trading a slight
    (one-sided, low) bias for speed.  The grid stage solves every angle,
    in one (grid_points, n, n) stack.
    """
    check_count("grid_points", grid_points, 8)
    a = as_matrix(a)
    return _refined(a, grid_points, refine, *sweep_subgrid(a, grid_points, 1))


def pruned_sweep(a, grid_points: int = DEFAULT_GRID,
                 refine: bool = True) -> RadiusEstimate:
    """radius_sweep(a, grid_points, refine), bit for bit, solving only the
    grid angles where its maximum can lie: the subgrid of every
    coarse_step(grid_points)-th angle, then in one more stack each angle
    whose support_upper end, widened by BRACKET_REL, reaches the subgrid
    maximum (all of them where g is flat).  A skipped angle's value is
    strictly below the grid maximum: it cannot hold or tie the argmax.
    """
    check_count("grid_points", grid_points, 8)
    step = coarse_step(grid_points)
    if step == 1:
        return radius_sweep(a, grid_points, refine)
    a = as_matrix(a)
    thetas = 2 * np.pi * np.arange(grid_points) / grid_points
    phases = np.exp(1j * thetas)
    g = np.full(grid_points, -np.inf)
    g[::step] = sub = np.linalg.eigvalsh(_rotations(a, phases[::step]))[:, -1]
    top = sub.max()
    solve = (support_upper(sub, step)
             + BRACKET_REL * (abs(top) + abs(sub).max()) >= top)
    solve[::step] = False
    if solve.any():
        g[solve] = np.linalg.eigvalsh(_rotations(a, phases[solve]))[:, -1]
    return _refined(a, grid_points, refine, g.max(), thetas[g.argmax()])


def _refined(a, grid_points: int, refine: bool, grid_val, grid_theta):
    """The sweep's result from its grid value and first-index angle."""
    half = np.pi / grid_points
    if not refine:
        return RadiusEstimate(float(grid_val), float(grid_theta),
                              grid_points, float(4 * half))
    theta, value, width = golden_max(
        lambda th: _lambda_max_rotated(a, th),
        grid_theta - 2 * half, grid_theta + 2 * half, DEFAULT_THETA_TOL)
    if grid_val > value:
        theta, value = grid_theta, float(grid_val)
    return RadiusEstimate(float(value), float(theta % (2 * np.pi)),
                          grid_points, float(width))


def support_upper(sub: np.ndarray, step: int) -> np.ndarray:
    """Unwidened upper ends of g on a grid from its values sub at every
    step-th angle.  In a gap Delta < pi from theta_k to theta_{k+1},
    e^{i theta} = alpha e^{i theta_k} + beta e^{i theta_{k+1}} with
    alpha = sin(theta_{k+1} - theta) / sin(Delta) and beta =
    sin(theta - theta_k) / sin(Delta), both >= 0, so g(theta) = max over
    z in W(M) of Re(e^{i theta} z) <= alpha g_k + beta g_{k+1}."""
    h = 2 * np.pi / (sub.size * step)  # the grid's spacing
    j = np.arange(step)
    alpha, beta = np.sin(h * np.array([step - j, j])) / np.sin(h * step)
    return (np.outer(sub, alpha) + np.outer(np.roll(sub, -1), beta)).ravel()


def coarse_step(grid_points: int) -> int:
    """Largest divisor of grid_points that is at most COARSE_STEP_MAX and
    leaves at least 3 angles in the subgrid; 1 if there is none."""
    return max((d for d in range(1, COARSE_STEP_MAX + 1)
                if grid_points % d == 0 and grid_points // d >= 3),
               default=1)


def sweep_subgrid(ms, grid_points: int, step: int):
    """Grid maximum of a sweep over every step-th angle, for the matrix ms
    or for each matrix of the stack ms (shape (T, n, n)), and the angle
    where it lies.

    The result is the pair (maxima, angles); a non-finite matrix gets a
    maximum of inf.  The subgrid's angles are exact members of the sweep's
    grid, so a maximum is at most the sweep's value; with step 1 it is the
    sweep's grid value.
    """
    thetas = (2 * np.pi * np.arange(grid_points) / grid_points)[::step]
    ok = np.isfinite(ms).all(axis=(-2, -1))
    # a non-finite matrix is swept as zero, so its angle is 0
    top = np.linalg.eigvalsh(_rotations(np.where(ok[..., None, None], ms, 0),
                                        np.exp(1j * thetas)))[..., -1]
    return np.where(ok, top.max(axis=-1), np.inf), thetas[top.argmax(axis=-1)]


def quotient_lower(ms, probes, angles, grid_points: int) -> np.ndarray:
    """A lower end of the sweep's value for each matrix of the stack ms,
    from the top eigenvectors x of Re(e^{i angle} P) over the probe
    matrices P and their angles; inf for a non-finite matrix.

    At an angle theta of the sweep's grid, Re(e^{i theta} x*Mx) =
    x*Re(e^{i theta} M)x <= lambda_max(Re(e^{i theta} M)), which the
    sweep's value is not below, refined or not (Johnson's support-line
    identity).  This holds for any unit x; the probes' vectors are chosen
    because M is near a probe.  The result is the largest such quotient
    over the vectors, each at the grid angle nearest to -arg(x*Mx).
    Probes that are not finite are left out; with none left the result
    is -inf.
    """
    ok = np.isfinite(probes).all(axis=(-2, -1))
    # one phase per probe: the broadcast pairs probe k with angle k
    rot = _rotations(probes[ok], np.exp(1j * angles[ok])[:, None])[:, 0]
    x = np.linalg.eigh(rot)[1][..., -1]
    q = np.einsum("pi,tip->tp", x.conj(), ms @ x.T)
    j = np.rint(-np.angle(q) * grid_points / (2 * np.pi)) % grid_points
    out = (np.exp(1j * (2 * np.pi * j / grid_points)) * q).real.max(
        axis=-1, initial=-np.inf)
    out[~np.isfinite(ms).all(axis=(-2, -1))] = np.inf
    return out


def radius_oracle(a, trials: int, seed: int) -> OracleEstimate:
    """Lower estimate of the numerical radius from sampled unit vectors.

    Each trial starts from a complex-Gaussian unit vector, all drawn as one
    block from a single splitmix-seeded stream, and runs a monotone
    renormalized ascent: align the phase of <Ax,x>, then take a shifted
    power step for the Hermitian matrix Re(e^{-i phi}A).  The result is
    the deterministic maximum over all trials.
    """
    check_count("trials", trials, 1)
    a = as_matrix(a)
    n = a.shape[0]
    rng = np.random.default_rng(splitmix64(seed, 0))
    g = rng.standard_normal((trials, 2, n))
    z = g[:, 0] + 1j * g[:, 1]
    x = z / np.linalg.norm(z, axis=1, keepdims=True)
    shift = max(1.0, float(np.linalg.norm(a, 2)))
    best = np.zeros(trials)
    for _ in range(DEFAULT_ASCENT_STEPS + 1):
        ax = x @ a.T
        q = np.einsum("ti,ti->t", x.conj(), ax)
        best = np.maximum(best, np.abs(q))
        phase = np.where(np.abs(q) > 0, q / np.where(np.abs(q) > 0, np.abs(q), 1.0), 1.0)
        ahx = x @ a.conj()
        hx = (np.conj(phase)[:, None] * ax + phase[:, None] * ahx) / 2
        y = hx + shift * x
        norms = np.linalg.norm(y, axis=1)
        norms = np.where(norms > 0, norms, 1.0)
        x = y / norms[:, None]
    return OracleEstimate(value=float(best.max()), trials=trials, seed=seed)


def power_check(a, k: int):
    """Return (omega(A^k), omega(A)^k), both via the sweep."""
    check_count("k", k, 1)
    a = as_matrix(a)
    lhs = pruned_sweep(np.linalg.matrix_power(a, k)).value
    rhs = pruned_sweep(a).value ** k
    return lhs, rhs
