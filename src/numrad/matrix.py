"""Dense complex matrix primitives: adjoint, eigen/SVD wrappers, fractional powers.

Everything operates on square complex128 arrays, treated as immutable, that
a public routine validated once (as_matrix) or that numrad built from one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, NoConvergence, NonFinite, NotHermitian,
                     NotPSD)

TOL_HERM = 1e-10
TOL_PSD = 1e-10
# n * max(|Re a_ij|, |Im a_ij|) may be at most this: then ||A|| <= ||A||_F
# stays below half the largest float, and so do sums such as A + A*.
NORM_MAX = np.finfo(np.float64).max / 4


def as_matrix(a) -> np.ndarray:
    """Validate and coerce input to a nonempty square complex matrix whose
    norm does not overflow (see NORM_MAX)."""
    m = finite_matrix(a)
    if not fits(m):
        raise DomainError("matrix norm overflows: an entry exceeds "
                          f"{NORM_MAX / m.shape[0]:.3e}")
    return m


def finite_matrix(a) -> np.ndarray:
    """Validate and coerce input to a nonempty square complex matrix with
    finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise DomainError("expected a nonempty matrix, got shape (0, 0)")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix contains non-finite entries")
    return m


def fits(m: np.ndarray) -> bool:
    """Whether an (n, n) matrix is finite and has no real or imaginary part
    above NORM_MAX / n."""
    return bool(np.maximum(abs(m.real), abs(m.imag)).max()
                <= NORM_MAX / m.shape[0])


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def real_part(t) -> np.ndarray:
    """Hermitian part (T + T*)/2."""
    t = as_matrix(t)
    return (t + t.conj().T) / 2


@dataclass(frozen=True)
class HermitianEigen:
    eigenvalues: np.ndarray  # ascending, real
    vectors: np.ndarray      # columns are eigenvectors


@dataclass(frozen=True)
class SingularDecomposition:
    left: np.ndarray
    sigma: np.ndarray  # descending, nonnegative
    right: np.ndarray  # A = left @ diag(sigma) @ right*


def frobenius(m: np.ndarray) -> float:
    """The Frobenius norm of a complex m, computed on its real and
    imaginary parts scaled by the largest of them, so that the squares
    neither overflow nor underflow (nor does a complex division by a
    subnormal scale)."""
    parts = abs(np.concatenate([m.real, m.imag], axis=None))
    scale = parts.max()
    return float(scale * np.linalg.norm(parts / scale)) if scale > 0 else 0.0


def hermitian_eigen(h) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending; its
    test for Hermitian, on frobenius norms, is relative at every scale."""
    h = as_matrix(h)
    dev = frobenius(h - h.conj().T)
    if dev > TOL_HERM * frobenius(h):
        raise NotHermitian(f"deviation from Hermitian: {dev:.3e}")
    try:
        w, v = np.linalg.eigh((h + h.conj().T) / 2)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return HermitianEigen(eigenvalues=w, vectors=v)


def as_eigen(p) -> HermitianEigen:
    """p if it is a HermitianEigen, else hermitian_eigen(p)."""
    return p if isinstance(p, HermitianEigen) else hermitian_eigen(p)


def svd(a) -> SingularDecomposition:
    """Singular value decomposition A = U diag(sigma) V*."""
    return _svd(as_matrix(a))


def _svd(m: np.ndarray) -> SingularDecomposition:
    """svd of a matrix that as_matrix returned, not validated again."""
    try:
        u, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return SingularDecomposition(left=u, sigma=s, right=vh.conj().T)


def hnorm(m: np.ndarray) -> float:
    """Spectral norm of the Hermitian part (m + m*)/2 of an operand; inf
    where that part overflows."""
    h = (m + m.conj().T) / 2
    return (float(abs(np.linalg.eigvalsh(h)[[0, -1]]).max())
            if np.isfinite(h).all() else np.inf)


def gnorm(m: np.ndarray) -> float:
    """Spectral norm of a general operand; inf where it is not finite."""
    return (float(np.linalg.svd(m, compute_uv=False)[0])
            if np.isfinite(m).all() else np.inf)


def spectral_norm(a) -> float:
    """Operator norm: largest singular value."""
    return gnorm(as_matrix(a))


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus."""
    return _spectral_radius(as_matrix(a))


def _spectral_radius(m: np.ndarray) -> float:
    """spectral_radius of a matrix that passes fits, not validated again."""
    try:
        w = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return float(np.max(np.abs(w)))


def float_power(x: float, r: float) -> float:
    """x**r for a float x >= 0, inf where it overflows (no OverflowError)."""
    try:
        return x**r
    except OverflowError:
        return np.inf


def psd_power(v: np.ndarray, w: np.ndarray, r) -> np.ndarray:
    """V diag(w^r) V*, made exactly Hermitian, for unitary V and w >= 0."""
    m = (v * w**r) @ v.conj().T
    return (m + m.conj().T) / 2


def frac_power(p, r: float) -> np.ndarray:
    """Fractional power P^r of a PSD matrix, with 0^r = 0; p is the matrix
    or its HermitianEigen, so that one decomposition serves many powers.

    Eigenvalues in [-TOL_PSD * ||P||, 0) are clamped to zero; anything
    more negative raises NotPSD.  r = 0 is rejected: the natural limit
    (support projection vs identity) is ambiguous.  A power whose norm
    exceeds NORM_MAX / n raises NonFinite.
    """
    if not np.isfinite(r):
        raise DomainError(f"exponent must be finite, got {r}")
    if r == 0:
        raise DomainError("exponent 0 is not defined for frac_power")
    if r < 0:
        raise DomainError("exponent must be nonnegative")
    eig = as_eigen(p)
    w, v = eig.eigenvalues, eig.vectors
    scale = max(abs(w[0]), abs(w[-1]))
    if w[0] < -TOL_PSD * scale:
        raise NotPSD(f"eigenvalue {w[0]:.3e} below clamping window")
    w = np.clip(w, 0.0, None)
    if float_power(float(w[-1]), r) > NORM_MAX / w.size:
        raise NonFinite(f"P^{r} overflows: P has eigenvalue {w[-1]:.3e}")
    return psd_power(v, w, r)
