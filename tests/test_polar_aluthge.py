import numpy as np
import pytest

from numrad import (BoundContext, WeightOutOfRange, abs_value, adjoint,
                    aluthge, polar, radius_sweep, spectral_norm)

from conftest import EXAMPLE1, JORDAN2, ginibre, random_unitary


def test_abs_value_example1():
    assert np.allclose(abs_value(EXAMPLE1), np.diag([4, 2, 3]), atol=1e-12)


def test_abs_value_example1_adjoint():
    assert np.allclose(abs_value(adjoint(EXAMPLE1)), np.diag([2, 3, 4]),
                       atol=1e-12)


def test_abs_value_jordan():
    assert np.allclose(abs_value(JORDAN2), np.diag([0, 1]), atol=1e-14)


def test_kept_powers_are_read_only_and_public_results_writable():
    ctx = BoundContext(EXAMPLE1)
    for power in (ctx.xpow(0.5), ctx.xpow(1.0), ctx.ypow(2.0),
                  ctx.aluthge(0.3)):
        with pytest.raises(ValueError, match="read-only"):
            power[0, 0] = 0
    assert ctx.xpow(1.0) is ctx.xpow(1.0)
    assert ctx.aluthge(0.3) is ctx.aluthge(0.3)
    assert ctx.xpow(0.3).flags.writeable
    for m in (polar(EXAMPLE1).positive, abs_value(EXAMPLE1),
              aluthge(EXAMPLE1).transform):
        m[0, 0] = 0


def test_polar_jordan():
    dec = polar(JORDAN2)
    assert np.allclose(dec.isometry, JORDAN2, atol=1e-14)
    assert np.allclose(dec.positive, np.diag([0, 1]), atol=1e-14)
    u = dec.isometry
    assert np.allclose(u.conj().T @ u, np.diag([0, 1]), atol=1e-14)


def test_polar_unitary(rng):
    q = random_unitary(rng, 4)
    dec = polar(q)
    assert np.allclose(dec.isometry, q, atol=1e-12)
    assert np.allclose(dec.positive, np.eye(4), atol=1e-12)


def test_polar_example1_cycle():
    dec = polar(EXAMPLE1)
    pattern = (np.abs(dec.isometry) > 0.5).astype(int)
    assert np.array_equal(pattern, (np.abs(EXAMPLE1) > 0).astype(int))
    assert np.allclose(dec.isometry @ dec.positive, EXAMPLE1, atol=1e-12)


def test_polar_reconstruction(rng):
    for n in (2, 4, 6, 8):
        a = ginibre(rng, n)
        dec = polar(a)
        err = np.linalg.norm(a - dec.isometry @ dec.positive, 2)
        assert err <= 1e-9 * max(1, np.linalg.norm(a, 2))
        # generic random matrices are invertible
        assert np.allclose(dec.isometry.conj().T @ dec.isometry,
                           np.eye(n), atol=1e-9)


def test_aluthge_jordan_vanishes():
    assert np.allclose(aluthge(JORDAN2, 0.5).transform, 0, atol=1e-14)


def test_aluthge_normal_invertible_fixed_point():
    a = np.diag([1.0, 1j])
    for t in (0.2, 0.5, 0.8):
        assert np.allclose(aluthge(a, t).transform, a, atol=1e-12)


def test_aluthge_example1_norm_chain():
    alu = aluthge(EXAMPLE1, 0.5).transform
    norm_sq_sqrt = np.sqrt(spectral_norm(EXAMPLE1 @ EXAMPLE1))
    assert spectral_norm(alu) <= norm_sq_sqrt + 1e-10


def test_aluthge_weight_window():
    with pytest.raises(WeightOutOfRange):
        aluthge(JORDAN2, 0.0)
    with pytest.raises(WeightOutOfRange):
        aluthge(JORDAN2, 1.0)


def test_aluthge_radius_norm_chain(rng):
    for n in (2, 4, 8):
        a = ginibre(rng, n)
        alu = aluthge(a, 0.5).transform
        w = radius_sweep(alu).value
        na = spectral_norm(alu)
        assert w <= na + 1e-8
        assert na <= np.sqrt(spectral_norm(a @ a)) + 1e-8


def test_aluthge_norm_never_exceeds_matrix_norm(rng):
    for t in (0.1, 0.5, 0.9):
        a = ginibre(rng, 5)
        assert spectral_norm(aluthge(a, t).transform) <= spectral_norm(a) + 1e-9


def test_aluthge_unitary_covariance(rng):
    a = ginibre(rng, 5)
    q = random_unitary(rng, 5)
    for t in (0.25, 0.5, 0.75):
        direct = aluthge(q @ a @ q.conj().T, t).transform
        conjugated = q @ aluthge(a, t).transform @ q.conj().T
        assert np.linalg.norm(direct - conjugated, 2) <= 1e-9 * max(
            1, np.linalg.norm(conjugated, 2))
