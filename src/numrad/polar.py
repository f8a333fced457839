"""Polar decomposition A = U|A| and the weighted Aluthge transform."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import WeightOutOfRange
from .matrix import as_matrix, svd

SIGMA_CUT_REL = 1e-12
T_MIN = 1e-3


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
    dec = svd(a)
    p = (dec.right * dec.sigma) @ dec.right.conj().T
    return (p + p.conj().T) / 2


def polar(a) -> PolarDecomposition:
    """Polar decomposition with U vanishing on the kernel of |A|.

    Singular directions with sigma <= SIGMA_CUT_REL * sigma_1 are treated
    as kernel and their columns of U are zeroed.
    """
    a = as_matrix(a)
    dec = svd(a)
    keep = dec.sigma > SIGMA_CUT_REL * dec.sigma[0]
    u = dec.left[:, keep] @ dec.right[:, keep].conj().T
    p = (dec.right * dec.sigma) @ dec.right.conj().T
    return PolarDecomposition(isometry=u, positive=(p + p.conj().T) / 2)


def aluthge(a, t: float = 0.5) -> WeightedAluthge:
    """Weighted Aluthge transform |A|^(1-t) U |A|^t.

    t is restricted to the clamped window [T_MIN, 1 - T_MIN] so neither
    exponent degenerates to 0.
    """
    if not T_MIN <= t <= 1 - T_MIN:
        raise WeightOutOfRange(f"t={t} outside [{T_MIN}, {1 - T_MIN}]")
    a = as_matrix(a)
    dec = svd(a)
    keep = dec.sigma > SIGMA_CUT_REL * dec.sigma[0]
    u = dec.left[:, keep] @ dec.right[:, keep].conj().T
    r = dec.right
    left_pow = (r * dec.sigma ** (1 - t)) @ r.conj().T
    right_pow = (r * dec.sigma**t) @ r.conj().T
    return WeightedAluthge(t=t, transform=left_pow @ u @ right_pow)
