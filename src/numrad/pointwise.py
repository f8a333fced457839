"""Vector-level inequality checks used as property-test oracles.

Each operation evaluates both sides of a scalar inequality at a concrete
unit vector (or pair of matrices) and reports the margin rhs - lhs,
nonnegative whenever the inequality holds.  A PSD operand may be given as
its HermitianEigen, and kato's A as its spectral core (polar._Spectral).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NonFinite
from .matrix import (HermitianEigen, _spectral_radius, as_eigen, as_matrix,
                     fits, float_power, frac_power, gnorm)
from .polar import _check_weight, _Spectral
from .radius import DEFAULT_GRID, warm_sweep

TOL_PT = 1e-9


@dataclass(frozen=True)
class UnitVector:
    entries: np.ndarray = field()

    def __post_init__(self):
        """Normalize after scaling by the power of two 2^-e that puts the
        largest real or imaginary part in [1/2, 1): the norm then neither
        overflows nor underflows, also where that of the vector does not
        fit, and as the scaling is exact v/‖v‖ keeps its bits wherever no
        scaled part falls below the normal range."""
        v = np.asarray(self.entries, dtype=np.complex128).ravel()
        if not np.isfinite(v).all():
            raise ValueError("cannot normalize a vector with a non-finite "
                             "entry")
        parts = v.view(np.float64)
        big = abs(parts).max(initial=0.0)
        if big == 0.0:
            raise ValueError("cannot normalize the zero vector")
        v = np.ldexp(parts, -np.frexp(big)[1]).view(np.complex128)
        object.__setattr__(self, "entries", v / np.linalg.norm(v))


@dataclass(frozen=True)
class InequalityCheck:
    """The two sides of a check; NonFinite where one is inf or NaN."""
    lhs: float
    rhs: float

    def __post_init__(self):
        if not (math.isfinite(self.lhs) and math.isfinite(self.rhs)):
            raise NonFinite(f"a side is not finite: {self}")

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def _vec(x) -> np.ndarray:
    return (x if isinstance(x, UnitVector) else UnitVector(x)).entries


def _form(m, x) -> complex:
    """Quadratic form <Mx, x>."""
    return complex(np.vdot(x, m @ x))


@np.errstate(over="ignore", invalid="ignore")
def kato(a, x, y, t: float) -> InequalityCheck:
    """|<Ax,y>|^2 against <|A|^{2(1-t)}x,x><|A*|^{2t}y,y>."""
    _check_weight(t)
    core = _Spectral(a)
    x, y = _vec(x), _vec(y)
    lhs = abs(np.vdot(y, core.a @ x)) ** 2
    rhs = (_form(core.xpow(2 * (1 - t)), x).real
           * _form(core.ypow(2 * t), y).real)
    return InequalityCheck(lhs=float(lhs), rhs=float(rhs))


def mccarthy(p, x, r: float) -> InequalityCheck:
    """<Px,x>^r against <P^r x,x> for PSD P.

    For r >= 1 the power of the form is the smaller side, else the other:
    the sides are swapped so the margin is nonnegative.  <Px,x> is taken as
    ||P^(1/2) x||^2, as P^(1/2) passes frac_power's bound wherever P fits.
    """
    if r <= 0:
        raise DomainError("r must be positive")
    p, x = as_eigen(p), _vec(x)
    form_r = _form(frac_power(p, r), x).real
    form_pow = float_power(np.linalg.norm(frac_power(p, 0.5) @ x) ** 2, r)
    lhs, rhs = (form_pow, form_r) if r >= 1 else (form_r, form_pow)
    return InequalityCheck(lhs=float(lhs), rhs=float(rhs))


@np.errstate(over="ignore", invalid="ignore")
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


@np.errstate(over="ignore", invalid="ignore")
def schwarz_self(a, x) -> InequalityCheck:
    """Special case with B* = A of the covariance refinement."""
    a = as_matrix(a)
    x = _vec(x)
    qa = np.complex128(_form(a, x))  # inf, not OverflowError, in powers
    qa2 = _form(a @ a, x)
    lhs = abs(qa) ** 2 + abs(qa2 - qa**2)
    rhs = np.linalg.norm(a @ x) * np.linalg.norm(a.conj().T @ x)
    return InequalityCheck(lhs=float(lhs), rhs=float(rhs))


@np.errstate(over="ignore", invalid="ignore")
def cs_refinement(a, b, x) -> InequalityCheck:
    """Refined Cauchy-Schwarz for products of quadratic forms."""
    a, b = as_matrix(a), as_matrix(b)
    x = _vec(x)
    lhs = abs(_form(b.conj().T, x)) * abs(_form(a, x))
    rhs = (np.linalg.norm(a @ x) * np.linalg.norm(b @ x)
           + abs(_form(b.conj().T @ a, x))) / 2
    return InequalityCheck(lhs=float(lhs), rhs=float(rhs))


@np.errstate(over="ignore", invalid="ignore")
def amer_bound(a, b, c, d) -> InequalityCheck:
    """Spectral radius of AB + CD against the mixed radius/norm bound;
    NonFinite where one of the products does not fit (matrix.fits).

    Each omega on the right is an upper end: g's maximum on N = DEFAULT_GRID
    angles, divided by cos(pi/N) (Johnson).  For z in W(M) some grid theta_k
    is within pi/N of -arg z: |z| cos(pi/N) <= Re(e^{i theta_k} z) <= g_k.
    The rhs grows in both: never below exact, at most 9.5e-6 relative above.
    """
    a, b, c, d = (as_matrix(m) for m in (a, b, c, d))
    ab_cd, ba, dc, bc, da = a @ b + c @ d, b @ a, d @ c, b @ c, d @ a
    if not all(fits(m) for m in (ab_cd, ba, dc, bc, da)):
        raise NonFinite("a product of the matrices does not fit in a float")
    wba, wdc = (warm_sweep(m, DEFAULT_GRID, refine=False)[0].value
                / math.cos(math.pi / DEFAULT_GRID) for m in (ba, dc))
    # the root of (wba - wdc)^2 + 4 ||BC|| ||DA||, with no square
    cross = math.sqrt(gnorm(bc)) * math.sqrt(gnorm(da))
    rhs = 0.5 * (wba + wdc + math.hypot(wba - wdc, 2 * cross))
    return InequalityCheck(lhs=_spectral_radius(ab_cd), rhs=float(rhs))


@np.errstate(over="ignore", invalid="ignore")
def _pq_norm(p, q, t: float) -> float:
    """||P^t Q^t|| for PSD P, Q, each a matrix or its HermitianEigen."""
    return gnorm(frac_power(p, t) @ frac_power(q, t))


def log_convexity(p, q, t: float) -> InequalityCheck:
    """||P^t Q^t|| against ||PQ||^t for PSD P, Q and t in [0, 1]."""
    if not 0 < t <= 1:
        raise DomainError("t must lie in (0, 1]")
    p, q = as_eigen(p), as_eigen(q)
    lhs = _pq_norm(p, q, t)
    # ||PQ||^t from P and Q scaled by 2^-e (e = 0 below 2^500), so PQ fits
    e = max(0, math.frexp(max(p.eigenvalues[-1], q.eigenvalues[-1]))[1] - 500)
    p, q = (HermitianEigen(m.eigenvalues * 2.0**-e, m.vectors)
            for m in (p, q))
    rhs = _pq_norm(p, q, 1.0) ** t * float_power(2.0, 2 * e * t)
    return InequalityCheck(lhs=float(lhs), rhs=float(rhs))


def log_convexity_midpoint(p, q, s: float, u: float) -> InequalityCheck:
    """Midpoint log-convexity of f(t) = ||P^t Q^t||: f((s+u)/2)^2 <= f(s) f(u)."""
    if not (0 < s <= 1 and 0 < u <= 1):
        raise DomainError("s, u must lie in (0, 1]")
    p, q = as_eigen(p), as_eigen(q)  # each decomposed once at most
    return InequalityCheck(lhs=float_power(_pq_norm(p, q, (s + u) / 2), 2),
                           rhs=_pq_norm(p, q, s) * _pq_norm(p, q, u))
