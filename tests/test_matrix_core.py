import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from numrad import (DomainError, NotHermitian, NotPSD, NumradError, adjoint,
                    compare_all, frac_power, hermitian_eigen, radius_sweep,
                    real_part, spectral_norm, spectral_radius, svd)
from numrad.matrix import as_matrix
from numrad.polar import abs_value
from numrad.pointwise import log_convexity, log_convexity_midpoint

from conftest import EXAMPLE1, JORDAN2, ginibre, random_psd


def test_adjoint_identity():
    assert np.array_equal(adjoint(np.eye(2)), np.eye(2))


def test_adjoint_real_transpose():
    assert np.array_equal(adjoint(EXAMPLE1),
                          np.array([[0, 0, 4], [2, 0, 0], [0, 3, 0]]))


def test_adjoint_scalar_conjugation():
    assert adjoint([[1j]])[0, 0] == -1j


def test_real_part_hermitian_fixed_point(rng):
    g = ginibre(rng, 4)
    h = (g + g.conj().T) / 2
    assert np.allclose(real_part(h), h, atol=0)


def test_real_part_jordan():
    assert np.array_equal(real_part(JORDAN2), [[0, 0.5], [0.5, 0]])


def test_real_part_skew():
    assert real_part([[1j]])[0, 0] == 0


def test_hermitian_eigen_diagonal():
    eig = hermitian_eigen(np.diag([2.0, 3.0, 4.0]))
    assert np.allclose(eig.eigenvalues, [2, 3, 4], atol=1e-14)


def test_hermitian_eigen_2x2():
    eig = hermitian_eigen([[0, 0.5], [0.5, 0]])
    assert np.allclose(eig.eigenvalues, [-0.5, 0.5], atol=1e-14)


def test_hermitian_eigen_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eigen(JORDAN2)
    # the check is relative to ||h||, so it holds at a small scale too
    small = 1e-12 * np.array([[1, 1], [0, 1]])
    with pytest.raises(NotHermitian):
        hermitian_eigen(small)
    with pytest.raises(NotHermitian):
        frac_power(small, 0.5)
    assert np.array_equal(hermitian_eigen(np.zeros((2, 2))).eigenvalues,
                          [0, 0])


@pytest.mark.parametrize("scale", [1e-300, 1e-162, 1e154, 1e300])
def test_hermitian_test_is_relative_at_every_scale(scale):
    # the squares of an unscaled Frobenius norm overflow at 1e154 and
    # underflow at 1e-162, where the Jordan block passed as Hermitian
    jordan = scale * np.array([[1.0, 1.0], [0.0, 1.0]])
    herm = scale * np.array([[2.0, 1.0], [1.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for routine in (hermitian_eigen, lambda m: frac_power(m, 0.5)):
            with pytest.raises(NotHermitian):
                routine(jordan)
        eig = hermitian_eigen(herm)
        root = frac_power(herm, 0.5)
    assert np.allclose(eig.eigenvalues, [scale, 3 * scale], rtol=1e-14,
                       atol=0)
    want = scale**0.5 * (np.sqrt([[3.0, 3.0], [3.0, 3.0]])
                         + [[1.0, -1.0], [-1.0, 1.0]]) / 2
    assert np.allclose(root, want, rtol=1e-14, atol=0)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
def test_hermitian_eigen_reconstruction(seed, n):
    rng = np.random.default_rng(seed)
    g = ginibre(rng, n)
    h = (g + g.conj().T) / 2
    eig = hermitian_eigen(h)
    w, v = eig.eigenvalues, eig.vectors
    scale = max(1.0, np.linalg.norm(h, 2))
    assert np.linalg.norm(h @ v - v * w, 2) <= 1e-10 * scale
    assert np.linalg.norm(v.conj().T @ v - np.eye(n), 2) <= 1e-9
    assert np.all(np.diff(w) >= 0)


def test_svd_identity():
    assert np.allclose(svd(np.eye(2)).sigma, [1, 1], atol=1e-14)


def test_svd_example1_singular_values():
    assert np.allclose(svd(EXAMPLE1).sigma, [4, 3, 2], atol=1e-12)


def test_svd_jordan():
    assert np.allclose(svd(JORDAN2).sigma, [1, 0], atol=1e-14)


def test_svd_reconstruction(rng):
    a = ginibre(rng, 6)
    dec = svd(a)
    rec = (dec.left * dec.sigma) @ dec.right.conj().T
    assert np.linalg.norm(a - rec, 2) <= 1e-9 * max(1, np.linalg.norm(a, 2))
    assert np.all(np.diff(dec.sigma) <= 0)


def test_spectral_norm_example1():
    assert spectral_norm(EXAMPLE1) == pytest.approx(4.0, abs=1e-12)


def test_spectral_norm_zero():
    assert spectral_norm(np.zeros((3, 3))) == 0.0


def test_spectral_norm_of_square():
    # A^2 has entries {6, 12, 8} on a permutation pattern
    sq = EXAMPLE1 @ EXAMPLE1
    assert spectral_norm(sq) == pytest.approx(12.0, abs=1e-12)
    assert np.sqrt(spectral_norm(sq)) == pytest.approx(3.4641016151, abs=1e-9)


def test_spectral_norm_adjoint_invariant(rng):
    for n in (2, 4, 7):
        a = ginibre(rng, n)
        assert spectral_norm(a) == pytest.approx(spectral_norm(adjoint(a)),
                                                 abs=1e-12)


def test_spectral_radius_diagonal():
    assert spectral_radius(np.diag([2.0, 3.0, 4.0])) == pytest.approx(4, rel=1e-6)


def test_spectral_radius_nilpotent():
    assert spectral_radius(JORDAN2) == 0.0


def test_spectral_radius_psd_sum():
    p = abs_value(EXAMPLE1) + abs_value(adjoint(EXAMPLE1))
    assert spectral_radius(p) == pytest.approx(7.0, rel=1e-6)
    assert spectral_norm(p) == pytest.approx(7.0, abs=1e-12)


def test_spectral_radius_matches_norm_on_psd(rng):
    for n in (2, 5, 8):
        p = random_psd(rng, n)
        assert spectral_radius(p) == pytest.approx(spectral_norm(p), rel=1e-8)


def test_spectral_radius_relative_at_every_scale():
    g = ginibre(np.random.default_rng(20261018), 5)
    want = np.max(np.abs(np.linalg.eigvals(g)))
    for exponent in range(-200, 151, 10):
        scale = 10.0**exponent
        got = spectral_radius(scale * g)
        assert abs(got - scale * want) <= 1e-6 * scale * want, exponent


def test_spectral_radius_tiny_unitary():
    a = 1e-170 * np.array([[0, 1], [1j, 0]])
    assert spectral_radius(a) == pytest.approx(1e-170, rel=1e-6)


def test_empty_matrix_rejected():
    with pytest.raises(DomainError):
        spectral_norm(np.zeros((0, 0)))
    with pytest.raises(DomainError):
        spectral_radius(np.zeros((0, 0)))
    with pytest.raises(DomainError):
        svd(np.zeros((0, 0)))


@pytest.mark.parametrize("bad", [np.ones((2, 3)),
                                 np.array([[1.0, np.nan], [0.0, 1.0]])],
                         ids=["non-square", "non-finite"])
def test_malformed_matrix_raises_numrad_error(bad):
    for routine in (as_matrix, radius_sweep, compare_all):
        with pytest.raises(NumradError):
            routine(bad)


def test_frac_power_squares():
    out = frac_power(np.diag([4.0, 2.0, 3.0]), 2)
    assert np.allclose(out, np.diag([16, 4, 9]), atol=1e-12)


def test_frac_power_identity_exponent(rng):
    p = random_psd(rng, 5)
    assert np.allclose(frac_power(p, 1), p, atol=1e-12 * np.linalg.norm(p, 2))


def test_frac_power_sqrt():
    assert np.allclose(frac_power(np.diag([4.0, 9.0]), 0.5),
                       np.diag([2, 3]), atol=1e-12)


def test_frac_power_rejects_zero_exponent(rng):
    with pytest.raises(DomainError):
        frac_power(random_psd(rng, 3), 0)


@pytest.mark.parametrize("r", [np.nan, np.inf, -np.inf])
def test_frac_power_rejects_a_non_finite_exponent(r):
    # at r = nan, 2 I would give a NaN matrix and I would give I
    for p in (np.eye(2), 2 * np.eye(2)):
        with pytest.raises(DomainError, match="finite"):
            frac_power(p, r)


def test_frac_power_rejects_indefinite():
    with pytest.raises(NotPSD):
        frac_power(np.diag([1.0, -1.0]), 0.5)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1),
       a=st.sampled_from([0.5, 2.0, 1 / 3]),
       b=st.sampled_from([0.5, 2.0, 1 / 3]))
def test_frac_power_composition(seed, a, b):
    rng = np.random.default_rng(seed)
    p = random_psd(rng, 4)
    lhs = frac_power(frac_power(p, a), b)
    rhs = frac_power(p, a * b)
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-9 * max(1, np.linalg.norm(rhs, 2))


def test_log_convexity_grid(rng):
    grid = np.linspace(0.05, 1.0, 21)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        p, q = random_psd(rng, n), random_psd(rng, n)
        for t in grid:
            assert log_convexity(p, q, t).margin >= -1e-9
        for i, s in enumerate(grid):
            for u in grid[i + 1:]:
                assert log_convexity_midpoint(p, q, s, u).margin >= -1e-9
