"""Polar decomposition A = U|A| and the weighted Aluthge transform.

All of them come from one SVD A = W diag(sigma) V*: |A|^r = V sigma^r V*,
|A*|^r = W sigma^r W*, U = W V* on the singular directions kept, and
A_t = |A|^(1-t) U |A|^t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import WeightOutOfRange
from .matrix import HermitianEigen, as_matrix, psd_power, psd_powers, svd

SIGMA_CUT_REL = 1e-12
T_MIN = 1e-3
# The exponents, none of them a function of t, whose powers a core keeps.
FIXED_POWERS = frozenset((0.5, 1.0, 2.0))


def _check_weight(t: float) -> None:
    """Reject a weight t outside the clamped window [T_MIN, 1 - T_MIN]."""
    if not T_MIN <= t <= 1 - T_MIN:
        raise WeightOutOfRange(f"t={t} outside [{T_MIN}, {1 - T_MIN}]")


class _Spectral:
    """One SVD of A and the operators the weighted bounds build from it.

    Singular directions with sigma <= SIGMA_CUT_REL * sigma_1 are treated
    as kernel and left out of the isometry U.  Exponents such as 1/t
    overflow near the ends of the weight window, where the bound is inf:
    overflowing powers propagate as non-finite entries, quietly under the
    error state that the calling entry point sets.

    The powers for r in FIXED_POWERS (X^(1/2), X, X^2 and the same of Y)
    are computed once and kept, read-only, one dict per basis.  Every
    other exponent is computed on each call: a t-scan meets thousands of
    them, each used once or twice, and keeping them all would hold a
    matrix per exponent.
    """

    def __init__(self, a):
        self.a = as_matrix(a)
        dec = svd(self.a)
        self.sigma, self.left, self.right = dec.sigma, dec.left, dec.right
        self.norm_a = float(dec.sigma[0])
        keep = dec.sigma > SIGMA_CUT_REL * self.norm_a
        self.isometry = dec.left[:, keep] @ dec.right[:, keep].conj().T
        self._x_powers: dict = {}
        self._y_powers: dict = {}

    def _power(self, vectors, kept: dict, r):
        """vectors diag(sigma^r) vectors*, from kept if r is a fixed power."""
        if r not in FIXED_POWERS:
            return psd_power(vectors, self.sigma, r)
        if r not in kept:
            kept[r] = psd_power(vectors, self.sigma, r)
            kept[r].flags.writeable = False
        return kept[r]

    def xpow(self, r):
        """|A|^r (r > 0), read-only for r in FIXED_POWERS."""
        return self._power(self.right, self._x_powers, r)

    def ypow(self, r):
        """|A*|^r (r > 0), read-only for r in FIXED_POWERS."""
        return self._power(self.left, self._y_powers, r)

    def powers(self, rs: np.ndarray, adjoint=False) -> np.ndarray:
        """The (k, n, n) stack of xpow(r) (ypow(r) if adjoint) over the k
        exponents rs, each slice with its bits: the fixed powers are the
        kept ones, as psd_powers' sigma ** 0.5 is not sqrt(sigma)."""
        vectors, kept = ((self.left, self._y_powers) if adjoint
                         else (self.right, self._x_powers))
        stack = psd_powers(vectors, self.sigma, rs)
        for j, r in enumerate(rs.tolist()):
            if r in FIXED_POWERS:
                stack[j] = self._power(vectors, kept, r)
        return stack

    def eigen(self, k=1.0, adjoint=False) -> HermitianEigen:
        """|A|^k (|A*|^k if adjoint): sigma^k ascending, V (W) reversed."""
        return HermitianEigen(self.sigma[::-1] ** k,
                              (self.left if adjoint else self.right)[:, ::-1])

    def aluthge(self, t):
        """Weighted Aluthge transform |A|^(1-t) U |A|^t."""
        return self.xpow(1 - t) @ self.isometry @ self.xpow(t)


@dataclass(frozen=True)
class PolarDecomposition:
    isometry: np.ndarray  # partial isometry U, zero on ker|A|
    positive: np.ndarray  # P = |A|, PSD


@dataclass(frozen=True)
class WeightedAluthge:
    t: float
    transform: np.ndarray  # |A|^(1-t) U |A|^t


def abs_value(a) -> np.ndarray:
    """|A| = (A*A)^(1/2), assembled from the SVD right vectors."""
    return _Spectral(a).xpow(1.0).copy()


def polar(a) -> PolarDecomposition:
    """Polar decomposition with U vanishing on the kernel of |A|: the
    singular directions with sigma <= SIGMA_CUT_REL * sigma_1."""
    core = _Spectral(a)
    return PolarDecomposition(isometry=core.isometry,
                              positive=core.xpow(1.0).copy())


def aluthge(a, t: float = 0.5) -> WeightedAluthge:
    """Weighted Aluthge transform |A|^(1-t) U |A|^t.

    t is restricted to the clamped window [T_MIN, 1 - T_MIN] so neither
    exponent degenerates to 0.
    """
    _check_weight(t)
    return WeightedAluthge(t=t, transform=_Spectral(a).aluthge(t))
