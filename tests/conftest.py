import math

import numpy as np
import pytest

from numrad import radius
from numrad.bounds import hnorm

EXAMPLE1 = np.array([[0, 2, 0],
                     [0, 0, 3],
                     [4, 0, 0]], dtype=np.complex128)

EXAMPLE2 = np.array([[0, 3, 0],
                     [0, 0, 4],
                     [2, 0, 0]], dtype=np.complex128)

JORDAN2 = np.array([[0, 1],
                    [0, 0]], dtype=np.complex128)


def _hermitian_part(m):
    return (m + m.conj().swapaxes(-1, -2)) / 2


# Closed forms of omega for a matrix, or each of a stack, of an ensemble:
# max |lambda| for a Hermitian (and any normal) matrix, ||A|| for a
# multiple of a unitary, and lambda_max(Re A) for a nonnegative matrix.
EXACT_OMEGA = {
    "hermitian": lambda m: abs(np.linalg.eigvalsh(_hermitian_part(m))).max(
        axis=-1),
    "unitary-scaled": lambda m: np.linalg.svd(m, compute_uv=False)[..., 0],
    "weighted-cyclic-shift": lambda m: np.linalg.eigvalsh(
        _hermitian_part(m))[..., -1],
}


def ginibre(rng, n):
    return (rng.standard_normal((n, n))
            + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def half_square_sum(ctx):
    """Kittaneh's bound sqrt(||X^2 + Y^2|| / 2), X = |A| and Y = |A*|, on a
    BoundContext: (value, inner).  The catalog computes it as weighted-power
    at t = 1/2; this is the formula written out on its own, as the
    independent reference for that identity."""
    inner = 0.5 * hnorm(ctx.xpow(2.0) + ctx.ypow(2.0))
    return math.sqrt(inner), inner


def count_top_rows(monkeypatch):
    """Record the number of theta-grid angles that each radius._top call
    solves (the rows of its stack of rotations)."""
    rows = []
    top = radius._top

    def counted(a, phases):
        rows.append(int(np.prod(a.shape[:-2])) * phases.size)
        return top(a, phases)

    monkeypatch.setattr(radius, "_top", counted)
    return rows


def random_unitary(rng, n):
    q, r = np.linalg.qr(ginibre(rng, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_psd(rng, n):
    g = ginibre(rng, n)
    return g @ g.conj().T


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)
