"""Vector-level inequality checks used as property-test oracles.

Each operation evaluates both sides of a scalar inequality at a concrete
unit vector (or pair of matrices) and reports the margin rhs - lhs,
which should be nonnegative whenever the inequality holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .matrix import as_matrix, frac_power, spectral_norm, spectral_radius
from .polar import _check_weight, _Spectral
from .radius import pruned_sweep

TOL_PT = 1e-9


@dataclass(frozen=True)
class UnitVector:
    entries: np.ndarray = field()

    def __post_init__(self):
        v = np.asarray(self.entries, dtype=np.complex128).ravel()
        n = np.linalg.norm(v)
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        object.__setattr__(self, "entries", v / n)


@dataclass(frozen=True)
class InequalityCheck:
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def _vec(x) -> np.ndarray:
    if isinstance(x, UnitVector):
        return x.entries
    return UnitVector(np.asarray(x)).entries


def _form(m, x) -> complex:
    """Quadratic form <Mx, x>."""
    return complex(np.vdot(x, m @ x))


@np.errstate(over="ignore", invalid="ignore")
def kato(a, x, y, t: float) -> InequalityCheck:
    """|<Ax,y>|^2 against <|A|^{2(1-t)}x,x><|A*|^{2t}y,y>.

    a is the matrix A, or a spectral core of it built by the caller.
    """
    _check_weight(t)
    core = a if isinstance(a, _Spectral) else _Spectral(a)
    x, y = _vec(x), _vec(y)
    lhs = abs(np.vdot(y, core.a @ x)) ** 2
    rhs = (_form(core.xpow(2 * (1 - t)), x).real
           * _form(core.ypow(2 * t), y).real)
    return InequalityCheck(lhs=float(lhs), rhs=float(rhs))


def mccarthy(p, x, r: float) -> InequalityCheck:
    """<Px,x>^r against <P^r x,x> for PSD P.

    For r >= 1 the power of the form is the smaller side; for r in (0, 1]
    the orientation reverses.  Sides are swapped so the margin is
    nonnegative in both regimes.
    """
    if r <= 0:
        raise DomainError("r must be positive")
    p = as_matrix(p)
    x = _vec(x)
    form_r = _form(frac_power(p, r), x).real
    form_pow = _form(p, x).real ** r
    if r >= 1:
        return InequalityCheck(lhs=float(form_pow), rhs=float(form_r))
    return InequalityCheck(lhs=float(form_r), rhs=float(form_pow))


def schwarz_covariance(a, b, x) -> InequalityCheck:
    """Covariance-form Schwarz refinement for a pair of operators."""
    a, b = as_matrix(a), as_matrix(b)
    x = _vec(x)
    qa = _form(a, x)
    qb = _form(b, x)
    qba = _form(b.conj().T @ a, x)
    qbstar = _form(b.conj().T, x)
    lhs = abs(qba - qbstar * qa)
    norms = np.linalg.norm(a @ x) * np.linalg.norm(b @ x)
    rhs = norms - abs(qa) * abs(qb)
    return InequalityCheck(lhs=float(lhs), rhs=float(rhs))


def schwarz_self(a, x) -> InequalityCheck:
    """Special case with B* = A of the covariance refinement."""
    a = as_matrix(a)
    x = _vec(x)
    qa = _form(a, x)
    qa2 = _form(a @ a, x)
    lhs = abs(qa) ** 2 + abs(qa2 - qa**2)
    rhs = np.linalg.norm(a @ x) * np.linalg.norm(a.conj().T @ x)
    return InequalityCheck(lhs=float(lhs), rhs=float(rhs))


def cs_refinement(a, b, x) -> InequalityCheck:
    """Refined Cauchy-Schwarz for products of quadratic forms."""
    a, b = as_matrix(a), as_matrix(b)
    x = _vec(x)
    lhs = abs(_form(b.conj().T, x)) * abs(_form(a, x))
    rhs = (np.linalg.norm(a @ x) * np.linalg.norm(b @ x)
           + abs(_form(b.conj().T @ a, x))) / 2
    return InequalityCheck(lhs=float(lhs), rhs=float(rhs))


def amer_bound(a, b, c, d) -> InequalityCheck:
    """Spectral radius of AB + CD against the mixed radius/norm bound."""
    a, b, c, d = (as_matrix(m) for m in (a, b, c, d))
    lhs = spectral_radius(a @ b + c @ d)
    wba = pruned_sweep(b @ a).value
    wdc = pruned_sweep(d @ c).value
    cross = spectral_norm(b @ c) * spectral_norm(d @ a)
    rhs = 0.5 * (wba + wdc + np.sqrt((wba - wdc) ** 2 + 4 * cross))
    return InequalityCheck(lhs=float(lhs), rhs=float(rhs))


def log_convexity(p, q, t: float) -> InequalityCheck:
    """||P^t Q^t|| against ||PQ||^t for PSD P, Q and t in [0, 1]."""
    if not 0 < t <= 1:
        raise DomainError("t must lie in (0, 1]")
    p, q = as_matrix(p), as_matrix(q)
    lhs = spectral_norm(frac_power(p, t) @ frac_power(q, t))
    rhs = spectral_norm(p @ q) ** t
    return InequalityCheck(lhs=float(lhs), rhs=float(rhs))


def log_convexity_midpoint(p, q, s: float, u: float) -> InequalityCheck:
    """Midpoint log-convexity of f(t) = ||P^t Q^t||: f((s+u)/2)^2 <= f(s) f(u)."""
    if not (0 < s <= 1 and 0 < u <= 1):
        raise DomainError("s, u must lie in (0, 1]")
    p, q = as_matrix(p), as_matrix(q)

    def f(t):
        return spectral_norm(frac_power(p, t) @ frac_power(q, t))

    return InequalityCheck(lhs=float(f((s + u) / 2) ** 2),
                           rhs=float(f(s) * f(u)))
