import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from numrad import (DomainError, InequalityCheck, NonFinite, UnitVector,
                    WeightOutOfRange, amer_bound, cs_refinement, frac_power,
                    hermitian_eigen, kato, log_convexity,
                    log_convexity_midpoint, mccarthy, radius_sweep,
                    schwarz_covariance, schwarz_self, spectral_norm)
from numrad.campaign import TOL_AMER
from numrad.ensembles import ENSEMBLES, sample
from numrad.pointwise import TOL_PT
from numrad.polar import T_MIN, _Spectral
from numrad.radius import DEFAULT_GRID

from conftest import EXAMPLE1, JORDAN2, ginibre, random_psd


def unit(rng, n):
    return UnitVector(ginibre(rng, n)[:, 0])


def test_unit_vector_normalizes():
    v = UnitVector([3.0, 4.0])
    assert np.linalg.norm(v.entries) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        UnitVector([0.0, 0.0])


@pytest.mark.parametrize("entries, want", [
    ([1e200, 1e200], [0.5**0.5, 0.5**0.5]),
    ([-1.2e308j, 0.9e308], [-0.8j, 0.6]),
    ([1e-320, 0], [1, 0]),
    ([1e-160, 1e-160j], [0.5**0.5, 0.5**0.5 * 1j]),
    ([1.5e308, 1.5e308], [0.5**0.5, 0.5**0.5]),
    ([-1.5e308j, 1.5e308], [-0.5**0.5 * 1j, 0.5**0.5])])
def test_unit_vector_normalizes_where_the_norm_overflows_or_underflows(
        entries, want):
    # the plain norm is inf, 0, or the root of a subnormal square
    v = UnitVector(entries).entries
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(v, want, rtol=0, atol=1e-15)


def test_unit_vector_keeps_the_bits_of_the_plain_quotient_in_range():
    rng = np.random.default_rng(5)
    for scale in (1e-150, 1e-3, 1.0, 7.0, 1e150):
        v = scale * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
        assert (UnitVector(v).entries == v / np.linalg.norm(v)).all()


def test_kato_at_a_vector_whose_norm_overflows():
    chk = kato(np.eye(2), [1e200, 1e200], [1, 0], 0.5)
    assert chk.lhs == pytest.approx(0.5, rel=1e-15)
    assert chk.rhs == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("entries", [
    [np.nan, 1.0], [np.inf, 0.0], [1.0, complex(0, -np.inf)]])
def test_unit_vector_rejects_a_non_finite_entry(entries):
    with pytest.raises(ValueError, match="non-finite"):
        UnitVector(entries)


def test_kato_basis_vectors():
    x = UnitVector([1, 0, 0])
    chk = kato(EXAMPLE1, x, UnitVector([0, 0, 1]), 0.5)
    # <A e1, e3> = 4, |A| = diag(4,2,3), |A*| = diag(2,3,4)
    assert chk.lhs == pytest.approx(16.0, abs=1e-9)
    assert chk.rhs == pytest.approx(16.0, abs=1e-9)


@pytest.mark.parametrize("r", [np.nan, np.inf])
def test_mccarthy_rejects_a_non_finite_exponent(r):
    with pytest.raises(DomainError, match="finite"):
        mccarthy(np.eye(2), [1, 0], r)


def test_kato_weight_window(rng):
    with pytest.raises(WeightOutOfRange):
        kato(EXAMPLE1, [1, 0, 0], [0, 1, 0], 0.0)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1),
       t=st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]))
def test_kato_holds(seed, t):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    a = ginibre(rng, n)
    assert kato(a, unit(rng, n), unit(rng, n), t).margin >= -TOL_PT


def test_kato_takes_a_spectral_core(rng):
    a = ginibre(rng, 4)
    x, y = unit(rng, 4), unit(rng, 4)
    assert kato(_Spectral(a), x, y, 0.3) == kato(a, x, y, 0.3)


def test_mccarthy_orientation(rng):
    p = random_psd(rng, 4)
    x = unit(rng, 4)
    for r in (0.3, 0.5, 2.0, 3.0):
        assert mccarthy(p, x, r).margin >= -TOL_PT
    assert mccarthy(p, x, 1.0).margin == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(DomainError):
        mccarthy(p, x, 0)


def _kato_rhs_reference(a, x, y, t):
    """<(A*A)^(1-t) x, x> <(AA*)^t y, y> from the Gram matrices' own
    eigendecompositions."""
    x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
    px = frac_power(a.conj().T @ a, 1 - t)
    py = frac_power(a @ a.conj().T, t)
    return np.vdot(x, px @ x).real * np.vdot(y, py @ y).real


def test_kato_rhs_matches_gram_matrix_powers():
    rng = np.random.default_rng(615)
    g = ginibre(rng, 5)
    rank_two = g[:, :2] @ g[:2, :]
    mats = [sample(ens, n, rng) for ens in ENSEMBLES for n in (2, 3, 5)]
    for a in mats + [JORDAN2, rank_two]:
        n = a.shape[0]
        for t in (T_MIN, 0.1, 0.25, 0.5, 0.75, 0.9, 1 - T_MIN):
            x, y = ginibre(rng, n)[:, :2].T
            if a is rank_two:
                # On the numerical kernel of this float matrix both sides
                # are rounding noise raised to a power, and of different
                # sizes: the Gram eigenvalues are resolved to about
                # eps * ||A||^2, the singular values to eps * ||A||.  So
                # the two are compared on the ranges of A* and A.
                x, y = a.conj().T @ x, a @ y
            assert kato(a, x, y, t).rhs == pytest.approx(
                _kato_rhs_reference(a, x, y, t), rel=1e-10), (n, t)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1),
       r=st.sampled_from([0.2, 0.5, 0.8, 1.5, 2.0, 4.0]))
def test_mccarthy_holds(seed, r):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    assert mccarthy(random_psd(rng, n), unit(rng, n), r).margin >= -TOL_PT


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_schwarz_covariance_holds(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    chk = schwarz_covariance(ginibre(rng, n), ginibre(rng, n), unit(rng, n))
    assert chk.margin >= -TOL_PT


def test_schwarz_self_matches_covariance_special_case(rng):
    a = ginibre(rng, 5)
    x = unit(rng, 5)
    direct = schwarz_self(a, x)
    via_pair = schwarz_covariance(a, a.conj().T, x)
    assert direct.margin >= -TOL_PT
    assert direct.margin == pytest.approx(via_pair.margin, abs=1e-9)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_cs_refinement_holds(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    chk = cs_refinement(ginibre(rng, n), ginibre(rng, n), unit(rng, n))
    assert chk.margin >= -TOL_PT


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1))
def test_amer_bound_holds(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    mats = [ginibre(rng, n) for _ in range(4)]
    assert amer_bound(*mats).margin >= -1e-5


def _amer_tight():
    a = np.diag([2.0, 1.0])
    return amer_bound(a, a, np.zeros((2, 2)), np.zeros((2, 2)))


def test_amer_bound_commuting_normal_tight():
    # the rhs takes omega(A^2) = 4 at its upper end, the grid maximum 4
    # over cos(pi/N)
    chk = _amer_tight()
    assert chk.lhs == pytest.approx(4.0, rel=1e-6)
    assert chk.rhs == pytest.approx(4 / math.cos(math.pi / DEFAULT_GRID),
                                    rel=1e-12)
    assert chk.rhs >= 4


def test_amer_bound_upper_ends_hide_no_violation_of_1e4():
    # a right side 1e-4 too small fails the check, as its upper ends are
    # loose by 9.5e-6 relative at most
    chk = _amer_tight()
    low = InequalityCheck(lhs=chk.lhs, rhs=chk.rhs * (1 - 1e-4))
    assert low.margin < -TOL_AMER


def _amer_rhs_refined(a, b, c, d):
    """Amer's right side from refined sweeps of BA and DC."""
    wba, wdc = radius_sweep(b @ a).value, radius_sweep(d @ c).value
    cross = math.sqrt(spectral_norm(b @ c) * spectral_norm(d @ a))
    return 0.5 * (wba + wdc + math.hypot(wba - wdc, 2 * cross))


@pytest.mark.parametrize("n", [3, 8])
def test_amer_bound_rhs_is_at_least_the_refined_rhs(n):
    for ens in ENSEMBLES:
        for seed in range(4):
            rng = np.random.default_rng([n, seed])
            mats = [sample(ens, n, rng)]
            mats += [sample("ginibre", n, rng) for _ in range(3)]
            rhs, refined = amer_bound(*mats).rhs, _amer_rhs_refined(*mats)
            assert refined <= rhs <= refined / math.cos(
                math.pi / DEFAULT_GRID) * (1 + 1e-12), (ens, seed)


def test_log_convexity_rejects_bad_t(rng):
    p, q = random_psd(rng, 3), random_psd(rng, 3)
    with pytest.raises(DomainError):
        log_convexity(p, q, 0.0)
    with pytest.raises(DomainError):
        log_convexity(p, q, 1.5)


def test_log_convexity_of_an_overflowing_product_is_non_finite():
    # P^t Q^t overflows where P and Q fit: its norm is inf, and the check
    # raises NonFinite, with no warning
    p = np.diag([1e200, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check in (lambda: log_convexity(p, p, 1.0),
                      lambda: log_convexity_midpoint(p, p, 0.9, 1.0)):
            with pytest.raises(NonFinite):
                check()


def _homogeneous_checks(s):
    """Checks at the scale s of A = [[1, 2], [3, 4]], with the degree in s
    of both their sides; every input is s times its value at s = 1, so
    that building it overflows at no scale."""
    a0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    a, b, p2 = s * a0, s * a0.T[::-1], s * (a0.T @ a0)
    core = _Spectral(a)
    p, q = core.xpow(1.0), core.ypow(1.0)
    return {
        "mccarthy-root": (lambda: mccarthy(p2, [1, 1], 0.5), 0.5),
        "mccarthy-cube": (lambda: mccarthy(p2, [1, 1], 3), 3),
        "schwarz-covariance": (lambda: schwarz_covariance(a, b, [1, 1]), 2),
        "schwarz-self": (lambda: schwarz_self(a, [1, 1]), 2),
        "cs-refinement": (lambda: cs_refinement(a, b, [1, 1]), 2),
        "amer": (lambda: amer_bound(a, a, a, a), 2),
        "log-convexity": (lambda: log_convexity(p, q, 0.3), 0.6),
        "log-convexity-midpoint": (
            lambda: log_convexity_midpoint(p, q, 0.2, 0.9), 2.2),
    }


def test_psd_checks_near_the_largest_float():
    # P's eigenvalue 4e307 is above NORM_MAX / 2, so frac_power(P, 1)
    # raises NonFinite, but both sides of each check fit: neither forms P
    p = 2e307 * np.ones((2, 2))
    for pe in (p, hermitian_eigen(p)):
        chk = mccarthy(pe, [1, 0], 0.5)
        assert (chk.lhs, chk.rhs) == pytest.approx((1e307**0.5, 2e307**0.5),
                                                   rel=1e-12)
        chk = log_convexity(pe, np.eye(2), 0.5)
        assert chk.lhs == pytest.approx(chk.rhs, rel=1e-12)
        assert chk.rhs == pytest.approx(4e307**0.5, rel=1e-12)


@pytest.mark.parametrize("scale", [1e100, 1e140, 1e150, 1e155, 1e160])
def test_checks_at_large_scale_give_a_margin_or_non_finite(scale):
    # the sides of a check at scale s are s^degree times those at s = 1:
    # where both fit in a float, they are those, and NonFinite where one
    # does not; never a bare OverflowError, a warning, or an rhs of inf
    # (4 ||BC|| ||DA|| overflowed Amer's root at 1e100, where its sides
    # are 5.77e201 and 5.84e201)
    unit = _homogeneous_checks(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, (check, degree) in _homogeneous_checks(scale).items():
            ref = unit[name][0]()
            big = degree * math.log10(scale) + math.log10(max(ref.lhs,
                                                              ref.rhs))
            if big > math.log10(np.finfo(float).max):
                with pytest.raises(NonFinite):
                    check()
                continue
            chk = check()
            want = np.array([ref.lhs, ref.rhs]) * scale**degree
            assert np.allclose([chk.lhs, chk.rhs], want, rtol=1e-12,
                               atol=0), name
            assert chk.margin >= 0, (name, chk)
