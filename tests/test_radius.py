import numpy as np
import pytest

from numrad import (DomainError, power_check, radius_oracle, radius_sweep,
                    spectral_norm, splitmix64)
from numrad.ensembles import ENSEMBLES, sample
from numrad.radius import coarse_step, pruned_sweep, support_upper
from numrad.reference import SHIFT_234

from conftest import EXAMPLE1, JORDAN2, ginibre, random_unitary


def test_sweep_jordan_half():
    est = radius_sweep(JORDAN2)
    assert est.value == pytest.approx(0.5, abs=1e-10)


def test_sweep_normal_diagonal():
    a = np.diag([1.0, -2.0, 1.5j])
    assert radius_sweep(a).value == pytest.approx(2.0, abs=1e-9)


def test_sweep_hermitian_equals_norm(rng):
    g = ginibre(rng, 5)
    h = (g + g.conj().T) / 2
    assert radius_sweep(h).value == pytest.approx(spectral_norm(h), abs=1e-9)


def test_sweep_zero():
    assert radius_sweep(np.zeros((3, 3))).value == pytest.approx(0.0, abs=1e-12)


def test_sweep_example1():
    assert radius_sweep(EXAMPLE1).value == pytest.approx(3.0373, abs=1e-3)


def test_sweep_scaling_and_unitary_invariance(rng):
    a = ginibre(rng, 6)
    w = radius_sweep(a).value
    assert radius_sweep(2.5j * a).value == pytest.approx(2.5 * w, rel=1e-9)
    q = random_unitary(rng, 6)
    assert radius_sweep(q @ a @ q.conj().T).value == pytest.approx(w, rel=1e-8)


def test_sweep_norm_envelope(rng):
    for n in (2, 4, 8):
        a = ginibre(rng, n)
        w = radius_sweep(a).value
        na = spectral_norm(a)
        assert na / 2 - 1e-9 <= w <= na + 1e-9


def test_sweep_rejects_tiny_grid():
    with pytest.raises(ValueError):
        radius_sweep(JORDAN2, grid_points=4)
    with pytest.raises(ValueError, match="grid_points must be an integer"):
        radius_sweep(JORDAN2, grid_points=240.5)


def test_sweep_refinement_beats_coarse_grid():
    coarse = radius_sweep(EXAMPLE1, grid_points=8).value
    fine = radius_sweep(EXAMPLE1, grid_points=1440).value
    assert coarse == pytest.approx(fine, rel=1e-6)


def test_power_inequality(rng):
    for n in (2, 3, 5):
        a = ginibre(rng, n)
        for k in (2, 3, 4):
            lhs, rhs = power_check(a, k)
            assert lhs <= rhs + 1e-8 * max(1.0, rhs)


def test_power_check_rejects_nonpositive():
    with pytest.raises(ValueError):
        power_check(JORDAN2, 0)
    with pytest.raises(ValueError, match="k must be an integer"):
        power_check(JORDAN2, 2.5)


def test_oracle_matches_sweep(rng):
    for n in (2, 4, 6):
        a = ginibre(rng, n)
        sweep = radius_sweep(a).value
        oracle = radius_oracle(a, trials=200, seed=7).value
        assert oracle <= sweep + 1e-6
        assert oracle == pytest.approx(sweep, rel=1e-3)


def test_oracle_deterministic():
    a = EXAMPLE1
    first = radius_oracle(a, trials=64, seed=123)
    second = radius_oracle(a, trials=64, seed=123)
    assert first.value == second.value
    negative = radius_oracle(a, trials=10, seed=-1)
    assert negative.value == radius_oracle(a, trials=10, seed=-1).value
    assert 0.0 < negative.value <= radius_sweep(a).value + 1e-6


def test_oracle_rejects_zero_trials():
    with pytest.raises(ValueError):
        radius_oracle(JORDAN2, trials=0, seed=1)
    with pytest.raises(ValueError, match="trials must be an integer"):
        radius_oracle(JORDAN2, trials=2.5, seed=1)


def test_splitmix64_stream():
    vals = [splitmix64(42, i) for i in range(100)]
    assert len(set(vals)) == 100
    assert all(0 <= v < 2**64 for v in vals)
    assert vals == [splitmix64(42, i) for i in range(100)]
    assert splitmix64(43, 0) != splitmix64(42, 0)


def test_empty_matrix_rejected():
    with pytest.raises(DomainError):
        radius_sweep(np.zeros((0, 0)))
    with pytest.raises(DomainError):
        pruned_sweep(np.zeros((0, 0)))
    with pytest.raises(DomainError):
        radius_oracle(np.zeros((0, 0)), 10, 0)


# ---------------------------------------------------------------------------
# the pruned grid stage against the full grid it replaces

PRUNED_GRIDS = (8, 11, 17, 240, 360, 719, 720)


def _assert_sweeps_equal(a, grids=PRUNED_GRIDS):
    for grid_points in grids:
        for refine in (True, False):
            assert (pruned_sweep(a, grid_points, refine)
                    == radius_sweep(a, grid_points, refine)), (grid_points,
                                                               refine)


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_pruned_sweep_equals_radius_sweep_over_ensembles(ensemble):
    rng = np.random.default_rng(list(ENSEMBLES).index(ensemble) + 620)
    for n in (1, 2, 3, 6, 8, 32):
        _assert_sweeps_equal(sample(ensemble, n, rng))


def test_pruned_sweep_equals_radius_sweep_on_edge_inputs():
    g = ginibre(np.random.default_rng(621), 4)
    for a in (np.zeros((3, 3)), JORDAN2, SHIFT_234, 1e-200 * g, 1e150 * g):
        _assert_sweeps_equal(a)


def test_pruned_sweep_rejects_tiny_grid():
    # 6 angles have a subgrid of 3, so the check is not the fallback's alone
    for grid_points in (4, 6, 7, 240.0):
        with pytest.raises(ValueError):
            pruned_sweep(JORDAN2, grid_points=grid_points)


def _grid_values(m, grid_points):
    thetas = 2 * np.pi * np.arange(grid_points) / grid_points
    p = np.exp(1j * thetas)[:, None, None]
    return np.linalg.eigvalsh((p * m + np.conj(p) * m.conj().T) / 2)[:, -1]


@pytest.mark.parametrize("grid_points", [8, 16, 240, 360, 720])
def test_support_upper_holds_the_grid_value_at_every_angle(grid_points):
    # the unwidened upper end, at every angle the pruned stage may skip
    rng = np.random.default_rng(622)
    step = coarse_step(grid_points)
    assert step > 1
    mats = [sample(ens, n, rng) for ens in ENSEMBLES for n in (1, 2, 3, 6, 8)]
    mats += [JORDAN2, SHIFT_234, 1e-200 * mats[3], 1e150 * mats[3]]
    for m in mats:
        g = _grid_values(m, grid_points)
        upper = support_upper(g[::step], step)
        tol = 1e-12 * spectral_norm(m)
        assert np.all(upper >= g - tol), np.max(g - upper) / tol


def test_pruned_sweep_solves_few_angles(monkeypatch):
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counted(m):
        solved.append(np.shape(m)[0])
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    a = ginibre(np.random.default_rng(623), 8)
    pruned_sweep(a, 720, refine=False)
    assert len(solved) == 2 and sum(solved) <= 0.25 * 720, solved
    solved.clear()
    radius_sweep(a, 720, refine=False)
    assert solved == [720]
