import math
import warnings

import numpy as np
import pytest

from numrad import (DomainError, bounds, compare_all, power_check, radius,
                    radius_oracle, radius_sweep, spectral_norm, splitmix64)
from numrad.matrix import NORM_MAX
from numrad.ensembles import ENSEMBLES, sample
from numrad.polar import T_MIN, _Spectral
from numrad.radius import (DEFAULT_ASCENT_STEPS, coarse_step, pruned_sweep,
                           support_upper, warm_sweep)
from numrad.reference import SHIFT_234, SHIFT_342

from conftest import (EXACT_OMEGA, EXAMPLE1, JORDAN2, count_top_rows,
                      ginibre, random_unitary)


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


def test_power_check_gives_inf_where_the_power_of_omega_overflows():
    # omega(A) = 5e199, whose square is beyond the largest float
    lhs, rhs = power_check([[0, 1e200], [0, 0]], 2)
    assert lhs == 0.0 and rhs == math.inf


def test_power_check_gives_inf_where_the_power_overflows():
    # A^2 = diag(1e400, 0) does not fit, so omega(A^2) is inf, quietly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert power_check([[1e200, 0], [0, 0]], 2) == (math.inf, math.inf)
        # A^3 overflows to inf and NaN entries
        big = 1e120 * np.array([[1, 1], [-1, 1]])
        assert power_check(big, 3) == (math.inf, math.inf)


def test_power_check_scales_a_power_that_does_not_fit():
    # A^3 = diag(2.7e307, 0) does not pass matrix.fits, but omega(A^3) is
    # a float: the sweep of (2^-e A)^3, scaled by 2^(3e)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lhs, rhs = power_check([[3e102, 0], [0, 0]], 3)
    assert lhs == pytest.approx(2.7e307, rel=1e-15)
    assert rhs == pytest.approx(2.7e307, rel=1e-15)
    # the scaling is exact for ordinary matrices
    g = ginibre(np.random.default_rng(612), 4)
    for k in (1, 2, 5):
        lhs, _ = power_check(g, k)
        assert lhs == pruned_sweep(np.linalg.matrix_power(g, k)).value


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
    assert negative.value == radius_oracle(a, 10, np.int64(-1)).value
    assert 0.0 < negative.value <= radius_sweep(a).value + 1e-6


def test_oracle_rejects_zero_trials():
    with pytest.raises(ValueError):
        radius_oracle(JORDAN2, trials=0, seed=1)
    with pytest.raises(ValueError, match="trials must be an integer"):
        radius_oracle(JORDAN2, trials=2.5, seed=1)


@pytest.mark.parametrize("seed", [1.5, True, "3", None])
def test_oracle_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        radius_oracle(JORDAN2, trials=3, seed=seed)


def _reference_oracle(a, trials, seed):
    """The complex ascent that radius_oracle runs in real form: the same
    starts and the same shift ||A||, with every trial on a (trials, n) row
    for all DEFAULT_ASCENT_STEPS steps and none retired."""
    n = a.shape[0]
    rng = np.random.default_rng(splitmix64(seed, 0))
    g = rng.standard_normal((trials, 2, n))
    z = g[:, 0] + 1j * g[:, 1]
    x = z / np.linalg.norm(z, axis=1, keepdims=True)
    shift = float(np.linalg.norm(a, 2))
    best = np.zeros(trials)
    for _ in range(DEFAULT_ASCENT_STEPS + 1):
        ax = x @ a.T
        q = np.einsum("ti,ti->t", x.conj(), ax)
        best = np.maximum(best, np.abs(q))
        phase = np.where(np.abs(q) > 0,
                         q / np.where(np.abs(q) > 0, np.abs(q), 1.0), 1.0)
        ahx = x @ a.conj()
        hx = (np.conj(phase)[:, None] * ax + phase[:, None] * ahx) / 2
        y = hx + shift * x
        norms = np.linalg.norm(y, axis=1)
        norms = np.where(norms > 0, norms, 1.0)
        x = y / norms[:, None]
    return float(best.max())


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_oracle_matches_the_full_complex_ascent(ensemble):
    # retirement may lose a little, the real form no more than rounding
    rng = np.random.default_rng(list(ENSEMBLES).index(ensemble) + 630)
    for n in (1, 2, 3, 6, 8):
        for seed in range(6):
            a = sample(ensemble, n, rng)
            w = radius_sweep(a).value
            ref = _reference_oracle(a, 2000, seed)
            got = radius_oracle(a, 2000, seed).value
            assert ref - 1e-7 * w <= got <= ref + 1e-12 * w, (n, seed)


@pytest.mark.parametrize("scale", [1e-200, 1e-3, 1.0, 1e150, 1e154])
def test_oracle_is_scale_free(scale):
    g = ginibre(np.random.default_rng(631), 6)
    for a in (SHIFT_234, g):
        w = radius_sweep(a).value
        got = radius_oracle(scale * a, 10**4, 5).value / scale
        assert got <= w + 1e-6 * w
        assert got == pytest.approx(w, rel=1e-3)


@pytest.mark.parametrize("case", ["1x1", "zero", "jordan", "one-trial",
                                  "nilpotent"])
def test_oracle_edge_inputs(case):
    nilpotent = sample("nilpotent", 6, np.random.default_rng(632))
    a, trials, want, rel = {
        "1x1": (np.array([[3 - 4j]]), 10, 5.0, 1e-15),
        "zero": (np.zeros((3, 3)), 10, 0.0, 0),
        "jordan": (JORDAN2, 100, 0.5, 1e-9),
        "one-trial": (SHIFT_234, 1, radius_sweep(SHIFT_234).value, 1e-3),
        "nilpotent": (nilpotent, 2000, radius_sweep(nilpotent).value, 1e-3),
    }[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = radius_oracle(a, trials, 0).value
    assert got <= want + 1e-9 * want
    assert got == pytest.approx(want, rel=rel, abs=0)


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


OMEGA_OF = {
    "radius_sweep": lambda a: radius_sweep(a).value,
    "pruned_sweep": lambda a: pruned_sweep(a).value,
    "radius_oracle": lambda a: radius_oracle(a, 10, 0).value,
    "compare_all": lambda a: compare_all(a, t_grid=9).omega.value,
}


@pytest.mark.parametrize("name", sorted(OMEGA_OF))
def test_a_norm_that_overflows_is_a_domain_error(name):
    # finite entries, but A + A* and the norm overflow
    omega = OMEGA_OF[name]
    for a in (1e308 * np.ones((3, 3)), np.array([[1e308]]),
              np.full((3, 3), NORM_MAX / 3 * (1 + 1e-15)),
              np.full((3, 3), 1j * NORM_MAX / 2)):
        with pytest.raises(DomainError, match="norm overflows"):
            omega(a)
    # the largest entries accepted give a finite omega, quietly
    for a in (np.full((3, 3), NORM_MAX / 3 * (1 + 1j)),
              np.array([[NORM_MAX * (1 - 1j)]])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = omega(a)
        assert 0 < value < math.inf, (a[0, 0], value)


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


@pytest.mark.parametrize("grid_points", [8, 11, 16, 240, 360, 720])
def test_cold_subgrid_keeps_each_maximum_and_its_angle(grid_points):
    # the cold grid stage solves the subgrid of every coarse_step-th angle
    # first, and _subgrid_max, which aluthge-t's scan takes as a lower end,
    # solves that subgrid alone: both have the full grid's values there,
    # bit for bit, and every angle that the stage skips lies strictly
    # below its maximum, so the maximum and its first-index angle stay
    rng = np.random.default_rng(624)
    mats = [sample(ens, 4, rng) for ens in ENSEMBLES for _ in range(3)]
    mats += [np.zeros((4, 4)), np.pad(JORDAN2, (0, 2)), 1e-200 * mats[0],
             1e150 * mats[0]]
    # and a family in t, whose maxima lie near one another
    core = _Spectral(ginibre(rng, 6))
    mats += [core.aluthge(t) for t in np.linspace(T_MIN, 1 - T_MIN, 16)]
    thetas = 2 * np.pi * np.arange(grid_points) / grid_points
    phases = np.exp(1j * thetas)
    step = coarse_step(grid_points)
    for m in mats:
        full = radius._top(m, phases)
        g, _ = radius._grid_stage(m, phases, None, step)
        assert g.max() == full.max() and g.argmax() == full.argmax()
        assert ((g == full) | (g == -np.inf)).all()
        assert radius._subgrid_max(m, grid_points) == full[::step].max()


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


# ---------------------------------------------------------------------------
# the warm-started grid stage against the cold one and the full grid

WARM_GRIDS = (8, 17, 240, 720)
# steps of t like the golden t-refinement's, down to its 1e-8 tolerance
T_STEPS = (1e-3, 3e-4, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)


def _aluthge_chains(a):
    """The Aluthge transforms A_t, and their squares, along a chain of t
    that starts at 0.3 and takes T_STEPS, then jumps far, to t = 0.9."""
    core = _Spectral(a)
    ts = 0.3 + np.cumsum((0.0,) + T_STEPS)
    alu = [core.aluthge(t) for t in ts.tolist() + [0.9]]
    return [alu, [m @ m for m in alu]]


def _assert_warm_chain(mats, grids=WARM_GRIDS):
    """Sweep each matrix warm from the one before it and check the result
    ==, bit for bit, against the cold pruned_sweep and radius_sweep, and
    the unwidened upper ends against g at every grid angle."""
    for grid_points in grids:
        for refine in (True, False):
            warm = None
            for m in mats:
                est, upper = warm_sweep(m, grid_points, refine, warm)
                assert est == pruned_sweep(m, grid_points, refine), (
                    grid_points, refine)
                assert est == radius_sweep(m, grid_points, refine)
                if refine:  # the grid stage does not depend on refine
                    g = _grid_values(m, grid_points)
                    tol = 1e-12 * max(spectral_norm(m), 1e-300)
                    assert np.all(upper >= g - tol), grid_points
                warm = (m, upper)


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_warm_sweep_equals_the_cold_sweeps_over_ensembles(ensemble):
    rng = np.random.default_rng(list(ENSEMBLES).index(ensemble) + 650)
    for n in (1, 2, 3, 6, 8):
        for chain in _aluthge_chains(sample(ensemble, n, rng)):
            _assert_warm_chain(chain)


def test_warm_sweep_equals_the_cold_sweeps_on_edge_inputs():
    g = ginibre(np.random.default_rng(651), 4)
    rank_two = g[:, :2] @ g[:2, :]
    for a in (JORDAN2, rank_two, 1e-200 * g, 1e150 * g):
        for chain in _aluthge_chains(a):
            _assert_warm_chain(chain)
    # g flat (zero) or nearly so, and a jump to an unrelated matrix
    zero, eye, sign = np.zeros((3, 3)), np.eye(3), np.diag([1.0, -1, 1])
    h = g[:3, :3]
    _assert_warm_chain([zero, zero, 1e-8 * h, zero, eye, eye * (1 + 1e-8),
                        sign, sign, -sign, h, 1e-3 * h, -h, 1e150 * h])
    _assert_warm_chain([JORDAN2, JORDAN2 + 1e-8, JORDAN2, -JORDAN2])


def test_warm_sweep_solves_few_angles_near_and_falls_back_far(monkeypatch):
    rows = count_top_rows(monkeypatch)
    a = ginibre(np.random.default_rng(652), 8)
    core = _Spectral(a)
    _, upper = warm_sweep(core.aluthge(0.3), 720)
    cold, rows[:] = list(rows), []
    # near: one stack of a few angles
    est, _ = warm_sweep(core.aluthge(0.3 + 1e-6), 720, True,
                        (core.aluthge(0.3), upper))
    assert len(rows) == 1 and rows[0] < sum(cold) / 4
    rows.clear()
    # far: more angles reach low than the cold subgrid holds, so the cold
    # stage runs before any angle is solved
    warm_sweep(-a, 720, True, (core.aluthge(0.3), upper))
    assert rows[0] == 720 // coarse_step(720)
    rows.clear()
    # flat: every upper end reaches low, and every angle is solved once
    # (g is 1/2 at every angle of the Jordan block, to rounding)
    jordan = np.array([[0, 1], [0, 0]], dtype=complex)
    _, upper = warm_sweep(jordan, 720)
    rows.clear()
    _, upper = warm_sweep(jordan, 720, True, (jordan, upper))
    assert sum(rows) == 720 and np.allclose(upper, 0.5, rtol=1e-15)
    # a zero matrix solves no angle, warm or cold, and its g is 0
    zero = np.zeros((3, 3))
    rows.clear()
    _, upper = warm_sweep(zero, 720)
    _, upper = warm_sweep(zero, 720, True, (zero, upper))
    assert rows == [] and np.all(upper == 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_sweep_of_a_zero_matrix_solves_no_angle(n, monkeypatch):
    # g is 0 at every angle: pruned_sweep skips the grid stage, and its
    # refinement searches the constant 0.0, with radius_sweep's bits
    zero = np.zeros((n, n))
    for grid_points, refine in ((720, True), (240, False), (360, True),
                                (17, True)):
        want = radius_sweep(zero, grid_points, refine)
        with monkeypatch.context() as m:
            rows = count_top_rows(m)
            steps = []
            m.setattr(radius, "_lambda_max_rotated",
                      lambda a, theta: steps.append(theta))
            got = pruned_sweep(zero, grid_points, refine)
        assert repr(got) == repr(want), (grid_points, refine)
        assert rows == [] and steps == []


def test_compare_all_of_jordan2_solves_few_angles(monkeypatch):
    # its Aluthge transforms are zero at every t, so the sweeps of the
    # 1,027 aluthge-t evaluations solve none (1,480,590 angles before)
    rows = count_top_rows(monkeypatch)
    compare_all(JORDAN2)
    assert sum(rows) <= 1000, sum(rows)


def test_no_sweep_solves_an_angle_twice(monkeypatch):
    # the grid stage of each warm_sweep, warm or cold, solves each grid
    # angle at most once
    rows = count_top_rows(monkeypatch)
    per_sweep = []

    def counted(a, grid_points=radius.DEFAULT_GRID, refine=True, warm=None):
        start = len(rows)
        out = warm_sweep(a, grid_points, refine, warm)
        per_sweep.append((grid_points, sum(rows[start:])))
        return out

    monkeypatch.setattr(bounds, "warm_sweep", counted)
    a = ginibre(np.random.default_rng(653), 6)
    bounds.minimize_over_t("aluthge-t", bounds.BoundContext(a, 240), 21)
    assert len(per_sweep) > 2
    _, upper = counted(a, 240)
    for m in (np.zeros((6, 6)), -a):
        counted(m, 240, True, (a, upper))
    assert per_sweep.pop(-2) == (240, 0)  # the zero matrix solves none
    assert all(0 < solved <= grid_points for grid_points, solved in per_sweep)


@pytest.mark.parametrize("ensemble", sorted(EXACT_OMEGA))
def test_sweeps_equal_the_exact_radius(ensemble):
    exact = EXACT_OMEGA[ensemble]
    rng = np.random.default_rng(sorted(EXACT_OMEGA).index(ensemble) + 640)
    mats = [sample(ensemble, n, rng) for n in range(1, 17)]
    if ensemble == "weighted-cyclic-shift":
        mats += [SHIFT_234, SHIFT_342]  # nonnegative too
    for a in mats:
        for sweep in (radius_sweep, pruned_sweep):
            assert sweep(a).value == pytest.approx(exact(a), rel=1e-14)


def test_radius_sweep_solves_its_grid_in_one_stack(monkeypatch):
    # perfbench's traced run finds the grid stage by the stack's shape and
    # times the refinement through radius.golden_max
    g = ginibre(np.random.default_rng(641), 5)
    shapes, refinements = [], []
    eigvalsh, golden_max = np.linalg.eigvalsh, radius.golden_max

    def counted(m):
        shapes.append(np.shape(m))
        return eigvalsh(m)

    def traced(*args):
        refinements.append(args)
        return golden_max(*args)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(radius, "golden_max", traced)
    radius_sweep(g, 720, refine=False)
    assert shapes == [(720, 5, 5)] and refinements == []
    shapes.clear()
    radius_sweep(g, 720)
    assert [s for s in shapes if len(s) != 2] == [(720, 5, 5)]
    assert len(refinements) == 1
