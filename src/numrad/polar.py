"""Polar decomposition A = U|A| and the weighted Aluthge transform.

All of them come from one SVD A = W diag(sigma) V*: |A|^r = V sigma^r V*,
|A*|^r = W sigma^r W*, U = W V* on the singular directions kept, and
A_t = |A|^(1-t) U |A|^t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import WeightOutOfRange
from .matrix import as_matrix, svd

SIGMA_CUT_REL = 1e-12
T_MIN = 1e-3


def _check_weight(t: float) -> None:
    """Reject a weight t outside the clamped window [T_MIN, 1 - T_MIN]."""
    if not T_MIN <= t <= 1 - T_MIN:
        raise WeightOutOfRange(f"t={t} outside [{T_MIN}, {1 - T_MIN}]")


class _Spectral:
    """One SVD of A and the operators the weighted bounds build from it.

    Singular directions with sigma <= SIGMA_CUT_REL * sigma_1 are treated
    as kernel and left out of the isometry U.  Each power or transform
    takes a float exponent (or weight) and gives an (n, n) array, or an
    ndarray vector of them and gives the (len, n, n) stack.  Exponents such
    as 1/t overflow near the ends of the weight window, where the bound is
    inf: overflowing powers propagate as non-finite entries, quietly under
    the error state that the calling entry point sets.
    """

    def __init__(self, a):
        self.a = as_matrix(a)
        dec = svd(self.a)
        self.sigma, self.left, self.right = dec.sigma, dec.left, dec.right
        self.norm_a = float(dec.sigma[0])
        keep = dec.sigma > SIGMA_CUT_REL * self.norm_a
        self.isometry = dec.left[:, keep] @ dec.right[:, keep].conj().T

    def xpow(self, r):
        """|A|^r (r > 0)."""
        return self._power(self.right, r)

    def ypow(self, r):
        """|A*|^r (r > 0)."""
        return self._power(self.left, r)

    def _power(self, v: np.ndarray, r) -> np.ndarray:
        if isinstance(r, np.ndarray):
            d = self.sigma ** r[:, None]
            m = (v * d[:, None, :]) @ v.conj().T
        else:
            m = (v * self.sigma**r) @ v.conj().T
        return (m + m.conj().swapaxes(-1, -2)) / 2

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
    return _Spectral(a).xpow(1.0)


def polar(a) -> PolarDecomposition:
    """Polar decomposition with U vanishing on the kernel of |A|: the
    singular directions with sigma <= SIGMA_CUT_REL * sigma_1."""
    core = _Spectral(a)
    return PolarDecomposition(isometry=core.isometry, positive=core.xpow(1.0))


def aluthge(a, t: float = 0.5) -> WeightedAluthge:
    """Weighted Aluthge transform |A|^(1-t) U |A|^t.

    t is restricted to the clamped window [T_MIN, 1 - T_MIN] so neither
    exponent degenerates to 0.
    """
    _check_weight(t)
    return WeightedAluthge(t=t, transform=_Spectral(a).aluthge(t))
