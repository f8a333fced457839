"""Seeded random matrix ensembles for fuzz campaigns and property tests."""

from __future__ import annotations

import numpy as np

from .radius import splitmix64


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """I.i.d. standard complex Gaussian entries (unit total variance)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return complex_gaussian(rng, (n, n))


def hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = complex_gaussian(rng, (n, n))
    return (g + g.conj().T) / 2


def unitary_scaled(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(complex_gaussian(rng, (n, n)))
    d = np.diagonal(r)
    q = q * np.where(np.abs(d) > 0, d / np.abs(np.where(np.abs(d) > 0, d, 1)), 1)
    return rng.uniform(0.1, 3.0) * q


def nilpotent(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.triu(complex_gaussian(rng, (n, n)), k=1)


def weighted_cyclic_shift(rng: np.random.Generator, n: int) -> np.ndarray:
    """Cyclic shift pattern A[i, (i+1) mod n] = w_i with positive weights."""
    w = np.exp(rng.uniform(np.log(0.5), np.log(5.0), size=n))
    a = np.zeros((n, n), dtype=np.complex128)
    i = np.arange(n)
    a[i, (i + 1) % n] = w
    return a


_SAMPLERS = {
    "ginibre": ginibre,
    "hermitian": hermitian,
    "unitary-scaled": unitary_scaled,
    "nilpotent": nilpotent,
    "weighted-cyclic-shift": weighted_cyclic_shift,
}
ENSEMBLES = tuple(_SAMPLERS)


def sample(ensemble: str, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one matrix from the named ensemble."""
    try:
        sampler = _SAMPLERS[ensemble]
    except KeyError:
        raise ValueError(f"unknown ensemble {ensemble!r}") from None
    return sampler(rng, dim)


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Per-trial generator so results are independent of execution order."""
    return np.random.default_rng(splitmix64(seed, index))
