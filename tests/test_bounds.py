import bisect
import dataclasses
import importlib
import math
import pkgutil
import warnings

import numpy as np
import pytest

import numrad
from numrad import (CATALOG_IDS, T_DEPENDENT_IDS, BoundContext, DomainError,
                    NonFinite, WeightOutOfRange, WeightParams, aluthge_half,
                    aluthge_weighted, classic_envelope, compare_all,
                    fourth_power, integral_bound, integral_refined,
                    kittaneh_mixed, kittaneh_square, kittaneh_sum,
                    minimize_over_t, product_bound, radius_sweep,
                    schwarz_radius, weight_params, weighted_R,
                    weighted_power, yamazaki)
from numrad import bounds, radius
from numrad.campaign import CampaignConfig, run_trial
from numrad.ensembles import ENSEMBLES, sample
from numrad.matrix import NORM_MAX
from numrad.optimize import golden_min
from numrad.pointwise import kato
from numrad.polar import T_MIN, _Spectral
from numrad.radius import coarse_step, pruned_sweep, warm_sweep
from numrad.reference import SHIFT_234, SHIFT_342

from conftest import (EXACT_OMEGA, EXAMPLE1, EXAMPLE2, JORDAN2,
                      count_top_rows, ginibre, half_square_sum)


def test_classic_envelope_example1():
    lower, upper = classic_envelope(EXAMPLE1)
    assert lower == pytest.approx(2.0, abs=1e-12)
    assert upper == pytest.approx(4.0, abs=1e-12)


def test_kittaneh_sum_examples():
    assert kittaneh_sum(EXAMPLE1).value == pytest.approx(3.5, abs=1e-9)
    assert kittaneh_sum(EXAMPLE2).value == pytest.approx(3.5, abs=1e-9)


def test_kittaneh_square_example1():
    bv = kittaneh_square(EXAMPLE1)
    assert bv.detail["inner"] == pytest.approx(12.5, abs=1e-9)
    assert bv.value == pytest.approx(math.sqrt(12.5), abs=1e-9)


def test_kittaneh_mixed_example1():
    # 0.5 * (4 + sqrt(12)) = 2 + sqrt(3)
    assert kittaneh_mixed(EXAMPLE1).value == pytest.approx(
        2 + math.sqrt(3), abs=1e-9)


def test_integral_refined_never_worse(rng):
    for a in (EXAMPLE1, EXAMPLE2, ginibre(rng, 5), ginibre(rng, 3)):
        assert integral_refined(a).value <= integral_bound(a).value + 1e-10


def test_jordan_values():
    w = radius_sweep(JORDAN2).value
    assert kittaneh_sum(JORDAN2).value == pytest.approx(0.5, abs=1e-12)
    assert kittaneh_sum(JORDAN2).value == pytest.approx(w, abs=1e-9)
    assert kittaneh_square(JORDAN2).value == pytest.approx(
        math.sqrt(0.5), abs=1e-12)
    assert yamazaki(JORDAN2).value == pytest.approx(0.5, abs=1e-9)


def test_aluthge_weighted_at_half_matches_special_case(rng):
    # aluthge-half is aluthge-t's evaluator at 1/2
    for a in (EXAMPLE1, ginibre(rng, 4)):
        general = aluthge_weighted(a, weight_params(0.5))
        special = aluthge_half(a)
        assert general.value == special.value
        assert general.detail == special.detail


def test_weighted_power_at_half_matches_kittaneh_square():
    # at t = 1/2 both operands are (X^2 + Y^2)/2 exactly, halved by powers
    # of two, so the bounds agree to the last bit at unit scale with the
    # formula written out
    half = weight_params(0.5)
    rng = np.random.default_rng(619)
    mats = [EXAMPLE1] + [sample(ens, n, rng) for ens in ENSEMBLES
                         for n in (1, 2, 3, 4, 5, 6, 8, 16)]
    for a in mats:
        want = half_square_sum(BoundContext(a))
        for got in (kittaneh_square(a), weighted_power(a, half),
                    fourth_power(a, half)):
            assert (got.value, got.detail["inner"]) == want, (got.id, a.shape)


def test_weighted_r_and_product_take_their_minimum_at_half():
    # weighted-r's operand at t = 1/2 is (X + Y)^2 / 2, so its minimum is
    # kitt-sum; product's is (||A|| + ||A~||) / 2, as X^(1/2) Y^(1/2) =
    # A~ U* for the Aluthge transform A~, so it is never below yamazaki's
    # (||A|| + omega(A~)) / 2
    rng = np.random.default_rng(621)
    mats = [EXAMPLE1, EXAMPLE2] + [sample(ens, n, rng) for ens in ENSEMBLES
                                   for n in (2, 3, 5) for _ in range(3)]
    for a in mats:
        report = compare_all(a, 101, 240, ids=("kitt-sum", "weighted-r",
                                               "yamazaki", "product"))
        v = {bv.id: bv.value for bv in report.bounds}
        ctx = BoundContext(a)
        half = 0.5 * (ctx.norm_a + bounds.gnorm(ctx.aluthge(0.5)))
        assert v["weighted-r"] == pytest.approx(v["kitt-sum"], rel=1e-14)
        assert v["product"] == pytest.approx(half, rel=1e-14)
        assert v["product"] >= v["yamazaki"] * (1 - 1e-14), a


def test_weight_params_window():
    assert weight_params(0.25).t == 0.25
    with pytest.raises(WeightOutOfRange):
        weight_params(0.0)
    with pytest.raises(WeightOutOfRange):
        weight_params(1.0)


@pytest.mark.parametrize("t", [math.nan, 1.5, 0.0])
def test_weight_params_built_directly_are_checked(t):
    # weighted_power(a, WeightParams(nan)) gave a row with t_used = nan
    with pytest.raises(WeightOutOfRange):
        WeightParams(t)


def test_all_bounds_dominate_radius(rng):
    evaluators = (
        kittaneh_sum, kittaneh_square, kittaneh_mixed, integral_bound,
        integral_refined, yamazaki, aluthge_half,
        lambda a: aluthge_weighted(a, weight_params(0.3)),
        lambda a: weighted_power(a, weight_params(0.3)),
        lambda a: weighted_R(a, weight_params(0.3)),
        lambda a: product_bound(a, weight_params(0.3)),
        lambda a: fourth_power(a, weight_params(0.3)),
        lambda a: schwarz_radius(a, weight_params(0.3)),
    )
    for n in (2, 4, 6):
        a = ginibre(rng, n)
        w = radius_sweep(a).value
        for ev in evaluators:
            assert ev(a).value >= w - 1e-7


def test_minimize_rejects_fixed_bounds():
    with pytest.raises(ValueError):
        minimize_over_t("kitt-sum", EXAMPLE1)


@pytest.mark.parametrize("grid_points", [0, -3, 240.5])
def test_minimize_rejects_an_empty_grid(grid_points):
    reason = "an integer" if isinstance(grid_points, float) else "at least 1"
    with pytest.raises(ValueError, match=f"grid_points must be {reason}"):
        minimize_over_t("product", EXAMPLE1, grid_points)


def test_minimize_evaluates_a_one_point_grid():
    # the scan evaluates the middle point, here the only one, before it
    # looks at its neighbours, which lie off the grid
    a = 0.2 * SHIFT_234
    for bound_id in sorted(T_DEPENDENT_IDS):
        with np.errstate(over="ignore", invalid="ignore"):
            want = bounds._evaluate(bound_id, BoundContext(a), T_MIN).value
        assert minimize_over_t(bound_id, a, 1) == (T_MIN, want)
    for ens in ENSEMBLES:  # at norm 1/2, no power overflows at t = T_MIN
        m = sample(ens, 3, np.random.default_rng(618))
        m = m / (2 * np.linalg.norm(m, 2))
        report = compare_all(m, t_grid=1, theta_grid=240)
        assert all(math.isfinite(bv.value) for bv in report.bounds), ens


def test_minimize_never_worse_than_midpoint(rng):
    a = ginibre(rng, 4)
    for bound_id in sorted(T_DEPENDENT_IDS):
        _, best = minimize_over_t(bound_id, a, grid_points=101)
        at_half = {
            "aluthge-t": aluthge_weighted,
            "weighted-power": weighted_power,
            "weighted-r": weighted_R,
            "product": product_bound,
            "fourth-power": fourth_power,
            "schwarz-radius": schwarz_radius,
        }[bound_id](a, weight_params(0.5)).value
        assert best <= at_half + 1e-9


def test_weighted_power_example1_minimum():
    _, value = minimize_over_t("weighted-power", EXAMPLE1)
    assert value**2 == pytest.approx(12.002, abs=5e-3)


def _fourth_power_entries(x2, y2, t):
    # diagonal of (|A|^{4(1-t)} + |A*|^{4t})/4 + ((1-t)|A|^2 + t|A*|^2)/2
    # for diagonal |A|^2 = x2, |A*|^2 = y2; t may be a float, an mpf or an
    # array
    return [xx**(2 * (1 - t)) / 4 + yy**(2 * t) / 4
            + ((1 - t) * xx + t * yy) / 2
            for xx, yy in zip(x2, y2)]


def _fourth_power_scalar(x2, y2, t):
    return max(_fourth_power_entries(x2, y2, t))


def test_fourth_power_example2_minimum():
    # |A|^2 and |A*|^2 are diagonal, so the bound reduces to a scalar
    # minimization that we can solve independently on a dense grid.
    x2, y2 = (4.0, 9.0, 16.0), (9.0, 16.0, 4.0)
    ts = np.linspace(1e-3, 1 - 1e-3, 200001)
    scalar_inner = min(_fourth_power_scalar(x2, y2, t) for t in ts)
    assert scalar_inner == pytest.approx(11.828739, abs=1e-4)
    _, value = minimize_over_t("fourth-power", EXAMPLE2)
    # the grid oracle sits a hair above the true kink minimum, so allow
    # for its discretization error
    assert value**2 == pytest.approx(scalar_inner, abs=1e-4)
    assert value**2 <= scalar_inner + 1e-9


def test_fourth_power_example2_certificate():
    # Each diagonal entry is convex in t (two exponentials plus a linear
    # term), so their maximum is convex, and a point where the maximum
    # passes from a decreasing entry to an increasing one is its global
    # minimum.  For example 2 that is where entries 2 and 3 cross.
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        x2 = tuple(mp.mpf(v) for v in (4, 9, 16))
        y2 = tuple(mp.mpf(v) for v in (9, 16, 4))

        def entry(k, t):
            return _fourth_power_entries(x2, y2, t)[k]

        t_star = mp.findroot(lambda t: entry(1, t) - entry(2, t),
                             mp.mpf("0.44"))
        inner = entry(1, t_star)
        assert abs(inner - entry(2, t_star)) < mp.mpf("1e-35")
        assert entry(0, t_star) < inner
        assert mp.diff(lambda t: entry(2, t), t_star) < 0
        assert mp.diff(lambda t: entry(1, t), t_star) > 0
        assert 1e-3 < t_star < 1 - 1e-3
        assert abs(t_star - mp.mpf("0.43876031626938")) < 1e-13
        assert abs(inner - mp.mpf("11.82873617833957")) < 1e-13
        assert abs(inner - mp.mpf("11.828736")) <= 1e-6


def test_fourth_power_example2_printed_figure():
    # The printed figure 9.32 is the same scalar minimization with the
    # second entry's linear part (9 + 7t)/2 misprinted as (9 - 7t)/2.
    # It is not the bound's value, which the certificate above pins.
    x2, y2 = (4.0, 9.0, 16.0), (9.0, 16.0, 4.0)
    ts = np.linspace(1e-3, 1 - 1e-3, 200001)
    entries = _fourth_power_entries(x2, y2, ts)
    entries[1] = entries[1] - 7 * ts
    typo = np.max(entries, axis=0)
    assert typo.min() == pytest.approx(9.32, abs=2e-2)
    assert ts[typo.argmin()] == pytest.approx(0.5287, abs=1e-3)


def test_compare_all_report(rng):
    a = ginibre(rng, 5)
    report = compare_all(a, t_grid=101, theta_grid=360)
    ids = [bv.id for bv in report.bounds]
    assert sorted(ids) == sorted(CATALOG_IDS)
    values = [bv.value for bv in report.bounds if math.isfinite(bv.value)]
    assert values == sorted(values)
    assert all(s >= -1e-7 for s in report.slacks.values())
    assert report.omega.value <= report.omega.value + min(
        report.slacks.values()) + 1e-6


def test_compare_all_over_ensembles():
    for i, ensemble in enumerate(("ginibre", "hermitian", "unitary-scaled",
                                  "nilpotent", "weighted-cyclic-shift")):
        rng = np.random.default_rng(900 + i)
        a = sample(ensemble, 4, rng)
        report = compare_all(a, t_grid=51, theta_grid=240)
        assert all(s >= -1e-7 for s in report.slacks.values())


def test_t_used_recorded(rng):
    a = ginibre(rng, 3)
    report = compare_all(a, t_grid=51, theta_grid=240)
    for bv in report.bounds:
        if bv.id in T_DEPENDENT_IDS:
            assert bv.t_used is not None and 0 < bv.t_used < 1
        else:
            assert bv.t_used is None


def test_compare_all_ids_subset(rng):
    a = ginibre(rng, 3)
    full = {bv.id: bv for bv in compare_all(a, t_grid=21,
                                            theta_grid=240).bounds}
    # The second subset reads the context's sweep cache, so a match bit
    # for bit with the full report shows the cache changes no value.
    for ids in (("product", "kitt-sum"),
                ("aluthge-half", "aluthge-t", "yamazaki")):
        report = compare_all(a, t_grid=21, theta_grid=240, ids=ids)
        assert sorted(bv.id for bv in report.bounds) == sorted(ids)
        for bv in report.bounds:
            assert bv == full[bv.id]


@pytest.mark.parametrize("ids", ["classic", ["nope"], ("kitt-sum", "nope")])
def test_compare_all_rejects_unknown_ids(ids, monkeypatch):
    # before any work: no context is built
    monkeypatch.setattr(bounds, "BoundContext", None)
    bad = ids if isinstance(ids, str) else "nope"
    with pytest.raises(ValueError, match=f"'{bad}'"):
        compare_all(EXAMPLE1, ids=ids)


def test_compare_all_propagates_programming_errors(monkeypatch):
    def broken(ctx, t):
        raise TypeError("bug in an evaluator")

    monkeypatch.setitem(bounds._BOUNDS, "kitt-sum", (broken, False))
    with pytest.raises(TypeError):
        compare_all(EXAMPLE1, t_grid=21, theta_grid=240)


def test_compare_all_records_numrad_errors_as_nan_rows(monkeypatch):
    def overflowing(ctx, t):
        raise NonFinite("kitt-sum overflowed")

    monkeypatch.setitem(bounds._BOUNDS, "kitt-sum", (overflowing, False))
    report = compare_all(EXAMPLE1, t_grid=21, theta_grid=240)
    row = next(bv for bv in report.bounds if bv.id == "kitt-sum")
    assert math.isnan(row.value)
    assert row.detail["error"] == "kitt-sum overflowed"
    assert "kitt-sum" not in report.slacks
    assert report.bounds[-1] is row


@pytest.mark.parametrize("scale", [1e-200, 1e150, 1e155, 1e200])
def test_compare_all_at_extreme_scales_raises_nothing(scale):
    # Overflowing operands give inf or a NaN row that says why; no other
    # exception escapes the narrowed handler.  (Whether the values are
    # sound at these scales is not checked here.)
    rng = np.random.default_rng(4)
    for a in (ginibre(rng, 4), JORDAN2):
        report = compare_all(scale * a, t_grid=21, theta_grid=240)
        assert math.isfinite(report.omega.value)
        assert sorted(bv.id for bv in report.bounds) == sorted(CATALOG_IDS)
        for bv in report.bounds:
            assert not math.isnan(bv.value) or bv.detail["error"]


def test_an_overflowing_hermitian_part_is_inf():
    # (M + M*)/2 of a finite operand can overflow: its norm is inf, not a
    # LAPACK failure or a NaN
    with np.errstate(over="ignore"):
        assert bounds.hnorm(np.full((2, 2), 1e308)) == math.inf
    g = ginibre(np.random.default_rng(4), 4)
    for scale in (3e153, 6e153):
        for bv in compare_all(scale * g, t_grid=101, theta_grid=240).bounds:
            if math.isnan(bv.value):
                assert "did not converge" not in bv.detail["error"], bv
    # at 6e153 the stack of aluthge-t's transforms is finite but does not
    # fit: its rows get inf, not a rotation that overflows inside LAPACK
    with pytest.raises(NonFinite):
        minimize_over_t("aluthge-t", 6e153 * g, 101)
    bv = aluthge_half(1.2e154 * np.array([[0.6, 0.3], [0.2, -0.5j]]))
    assert bv.value == bv.detail["inner"] == math.inf
    # an overflowing schwarz-radius row has the detail keys of a finite one
    bv = schwarz_radius(1e150 * g, weight_params(0.001))
    finite = schwarz_radius(g, weight_params(0.5))
    assert bv.value == math.inf and bv.detail.keys() == finite.detail.keys()


ENTRY_POINTS = {
    "compare_all": lambda a: compare_all(a, t_grid=21, theta_grid=240),
    "minimize_over_t": lambda a: minimize_over_t("aluthge-t", a, 21),
    "fourth_power": lambda a: fourth_power(a, weight_params(0.3)),
    "kato": lambda a: kato(a, np.ones(a.shape[0]), np.ones(a.shape[0]), 0.3),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_points_set_the_error_state_and_restore_it(name):
    # Overflow is an ordinary edge case: it warns of nothing, the caller's
    # error state changes no result, and that state is back after a
    # return or a raise.
    call = ENTRY_POINTS[name]
    g = ginibre(np.random.default_rng(4), 4)
    for scale in (1e150, 1e200):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            quiet = _outcome(lambda: call(scale * g))
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)], scale
        with np.errstate(over="raise", invalid="raise"):
            before = np.geterr()
            assert repr(_outcome(lambda: call(scale * g))) == repr(quiet)
            assert np.geterr() == before
    with np.errstate(over="raise", invalid="raise"):
        before = np.geterr()
        with pytest.raises(DomainError):
            call(np.zeros((0, 0)))
        assert np.geterr() == before


def test_compare_all_rejects_empty_matrix():
    with pytest.raises(DomainError):
        compare_all(np.zeros((0, 0)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_bound_of_a_zero_matrix_is_positive_zero_at_every_t(n):
    # what lets minimize_over_t stop at the first grid point where ||A|| = 0:
    # the full scan's first-index minimum is there
    ctx = BoundContext(np.zeros((n, n)))
    ts = np.linspace(T_MIN, 1 - T_MIN, bounds.DEFAULT_T_GRID)
    with np.errstate(over="ignore", invalid="ignore"):
        for bound_id, (fn, scan) in bounds._BOUNDS.items():
            for t in (ts.tolist() if scan else [None]):
                value = fn(ctx, t)[0]
                assert value == 0 and math.copysign(1, value) == 1, (
                    bound_id, t, value)


def test_compare_all_of_a_zero_matrix_evaluates_each_weighted_bound_once(
        monkeypatch):
    calls = {bid: _count_scalar_calls(monkeypatch, bid)
             for bid in T_DEPENDENT_IDS}
    report = compare_all(np.zeros((3, 3)))
    assert calls == {bid: [T_MIN] for bid in T_DEPENDENT_IDS}
    assert all(bv.value == 0 for bv in report.bounds)
    assert {bv.t_used for bv in report.bounds
            if bv.id in T_DEPENDENT_IDS} == {T_MIN}


# ---------------------------------------------------------------------------
# what a context keeps: its fixed powers and its bounds' values by (id, t)

def test_context_computes_each_fixed_power_once(monkeypatch):
    polar = importlib.import_module("numrad.polar")
    calls = []  # (basis, r) of every fixed power computed
    psd_power = polar.psd_power

    def counted(v, w, r):
        if r in polar.FIXED_POWERS:
            calls.append((id(v), r))
        return psd_power(v, w, r)

    monkeypatch.setattr(polar, "psd_power", counted)
    g = ginibre(np.random.default_rng(2026), 4)
    for settings in ((1001, 720, True), (9, 240, False)):
        calls.clear()
        compare_all(g, *settings)
        # X, Y, X^2 and Y^2, and X^(1/2) for the Aluthge transform at 1/2
        assert len(calls) == len(set(calls)) >= 5, calls


def test_context_keeps_no_power_that_depends_on_t():
    ctx = BoundContext(ginibre(np.random.default_rng(2026), 4))
    minimize_over_t("aluthge-t", ctx)
    assert set(ctx._x_powers) | set(ctx._y_powers) <= {0.5, 1.0, 2.0}
    for bound_id in sorted(T_DEPENDENT_IDS):
        minimize_over_t(bound_id, ctx)
    assert set(ctx._x_powers) | set(ctx._y_powers) <= {0.5, 1.0, 2.0}


def test_a_campaign_trial_builds_each_aluthge_transform_once(monkeypatch):
    # aluthge-t's lower end and value at t share A_t, and yamazaki,
    # aluthge-half and aluthge-t share A_(1/2): over these 40 trials the
    # bounds built A_t 257 times for 146 distinct (core, t) pairs; a
    # build is a miss of the core's cache, which every context on the
    # core shares
    polar = importlib.import_module("numrad.polar")
    builds = []
    aluthge = polar._Spectral.aluthge

    def counted(core, t):
        if t not in core._aluthge:
            builds.append((id(core._aluthge), t))
        return aluthge(core, t)

    monkeypatch.setattr(polar._Spectral, "aluthge", counted)
    total = 0
    for ens in ENSEMBLES:
        config = CampaignConfig(ens, 3, 8, 0)
        for index in range(config.trials):
            builds.clear()
            run_trial(config, index)
            assert len(builds) == len(set(builds)), (ens, index)
            total += len(builds)
    assert total == 146


def test_a_matrix_is_validated_once_where_it_enters(monkeypatch):
    # as_matrix runs at the public doors only: a report validates its
    # matrix once, in the core, and a trial adds the
    # argument checks of the public pointwise functions it calls; the
    # arrays numrad builds from them (A_t, A^2, powers, products) are not
    # validated again
    calls = []
    as_matrix = importlib.import_module("numrad.matrix").as_matrix

    def counted(a):
        calls.append(np.shape(a))
        return as_matrix(a)

    for info in pkgutil.iter_modules(numrad.__path__):
        module = importlib.import_module(f"numrad.{info.name}")
        if hasattr(module, "as_matrix"):
            monkeypatch.setattr(module, "as_matrix", counted)
    compare_all(SHIFT_234)
    assert len(calls) == 1
    for ens in ENSEMBLES:
        config = CampaignConfig(ens, 3, 8, 0)
        for index in range(config.trials):
            calls.clear()
            run_trial(config, index)
            assert len(calls) <= 10, (ens, index)


@pytest.mark.parametrize("theta_grid", [0, 3, 2.5, True])
def test_bound_context_rejects_a_bad_theta_grid(theta_grid):
    # checked where the grid enters, before any sweep divides by it
    with pytest.raises(ValueError, match="theta_grid"):
        BoundContext(SHIFT_234, theta_grid)


@pytest.mark.parametrize("refine", [True, False])
def test_a_report_on_a_core_shares_it_with_the_same_bits(refine):
    # a context built on a core takes over its SVD and kept matrices, and
    # a report on the core is the report on its matrix
    for a in (SHIFT_234, ginibre(np.random.default_rng(2026), 8)):
        core = _Spectral(a)
        ctx = BoundContext(core)
        assert ctx.sigma is core.sigma and ctx.isometry is core.isometry
        assert ctx.aluthge(0.3) is core.aluthge(0.3)
        assert (repr(compare_all(core, refine=refine))
                == repr(compare_all(a, refine=refine)))


def test_a_nan_in_the_t_scan_raises_non_finite_where_it_is_met(monkeypatch):
    # a NaN certifies nothing: the scan names it and stops, visiting no
    # more of the grid than a clean scan does
    a = ginibre(np.random.default_rng(2026), 4)
    calls = _count_scalar_calls(monkeypatch, "weighted-power")
    minimize_over_t("weighted-power", BoundContext(a, refine=False))
    clean, hole = len(calls), calls[-1]
    bound, scan = bounds._BOUNDS["weighted-power"]

    def holed(ctx, t):
        value, detail = bound(ctx, t)
        return (math.nan if t == hole else value), detail

    monkeypatch.setitem(bounds._BOUNDS, "weighted-power", (holed, scan))
    calls.clear()
    with pytest.raises(NonFinite, match=f"weighted-power: NaN at t={hole}"):
        minimize_over_t("weighted-power", BoundContext(a, refine=False))
    assert hole in calls and len(calls) <= clean < bounds.DEFAULT_T_GRID


def test_compare_all_evaluates_each_bound_once_at_its_t_star(monkeypatch):
    # the report's value at t* is the one minimize_over_t evaluated
    calls = {bid: _count_scalar_calls(monkeypatch, bid)
             for bid in T_DEPENDENT_IDS}
    report = compare_all(ginibre(np.random.default_rng(2026), 4), 101, 360)
    for bv in report.bounds:
        if bv.id in T_DEPENDENT_IDS:
            ts = calls[bv.id]
            assert ts.count(bv.t_used) == 1 and len(ts) == len(set(ts))


# ---------------------------------------------------------------------------
# the pruned t-scan against the full scan it replaces

@np.errstate(over="ignore", invalid="ignore")  # as minimize_over_t's
def _full_scan(bound_id, ctx, grid_points):
    """The unpruned scan: every grid point, first-index argmin, golden
    refinement around it if ctx.refine.  Returns (t*, value, lo, hi), with
    [lo, hi] the refinement's bracket (t* itself with refine off)."""
    def f(t):
        return bounds._evaluate(bound_id, ctx, float(t)).value

    ts = np.linspace(T_MIN, 1 - T_MIN, grid_points)
    vals = np.array([f(t) for t in ts])
    best = int(np.argmin(vals))
    if not math.isfinite(vals[best]):
        raise NonFinite(f"{bound_id}: all grid evaluations overflowed "
                        f"(e.g. t={ts[best]})")
    t_star = lo = hi = float(ts[best])
    value = float(vals[best])
    if ctx.refine and grid_points > 1:
        lo = float(ts[max(best - 1, 0)])
        hi = float(ts[min(best + 1, grid_points - 1)])
        t_ref, v_ref, _ = golden_min(f, lo, hi, bounds.REFINE_TOL)
        if v_ref < value:
            t_star, value = float(t_ref), float(v_ref)
    return t_star, value, lo, hi


def _outcome(fn):
    try:
        return fn()
    except NonFinite as exc:
        return ("NonFinite", str(exc))


def _closed_form(bound_id, a, grid_points, theta_grid, refine):
    """(t*, f(t*)) where minimize_over_t takes bound_id's closed-form
    minimum, or None where it scans: with refine on, on a grid of more
    than one point, on a nonzero matrix and where f(t*) is finite."""
    ctx = BoundContext(a, theta_grid, refine)
    t_star = bounds._BOUNDS[bound_id][1].t_star(ctx)
    if not (t_star and refine and grid_points > 1 and ctx.norm_a > 0):
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        value = bounds._evaluate(bound_id, ctx, t_star).value
    return (t_star, value) if math.isfinite(value) else None


def _assert_scans_agree(a, grid_points, theta_grid, refine):
    # and aluthge-t on the coarse theta-grids, where its kappa is largest
    runs = [(bid, theta_grid, refine) for bid in sorted(T_DEPENDENT_IDS)]
    runs += [("aluthge-t", coarse, False) for coarse in (8, 17)]
    for bound_id, theta, on in runs:
        # separate contexts, so that no cached value passes between them
        want = _outcome(lambda: _full_scan(
            bound_id, BoundContext(a, theta, on), grid_points))
        want, bracket = want[:2], want[2:]
        got = _outcome(lambda: minimize_over_t(
            bound_id, BoundContext(a, theta, on), grid_points))
        closed = _closed_form(bound_id, a, grid_points, theta, on)
        if closed:
            # the exact minimum, which the refinement only approaches
            assert got == closed, (bound_id, theta, on)
            assert got[1] <= want[1] * (1 + 1e-15), (bound_id, got, want)
        elif on and bounds._BOUNDS[bound_id][1].slope and bracket:
            # the secant's refinement meets other points of Brent's bracket
            lo, hi = bracket
            assert lo <= got[0] <= hi, (bound_id, theta, got, bracket)
            assert got[1] <= want[1] * (1 + 1e-15), (bound_id, got, want)
        else:
            assert got == want, (bound_id, theta, on)


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_pruned_scan_equals_full_scan_over_ensembles(ensemble, monkeypatch):
    # a coarser refinement, for both scans, keeps the test quick
    monkeypatch.setattr(bounds, "REFINE_TOL", 1e-6)
    rng = np.random.default_rng(list(ENSEMBLES).index(ensemble) + 610)
    for n in (2, 3, 5, 8):
        a = sample(ensemble, n, rng)
        for theta_grid in (240, 360, 720):
            for refine in (True, False):
                _assert_scans_agree(a, 15, theta_grid, refine)


@pytest.mark.parametrize("name", ["SHIFT_234", "SHIFT_342"])
def test_pruned_scan_equals_full_scan_on_examples(name):
    # product is flat on these, so every grid point ties for the minimum
    a = {"SHIFT_234": SHIFT_234, "SHIFT_342": SHIFT_342}[name]
    for refine in (True, False):
        _assert_scans_agree(a, 101, 720, refine)


def test_pruned_scan_equals_full_scan_on_edge_inputs():
    rng = np.random.default_rng(611)
    g = ginibre(rng, 5)
    rank_two = g[:, :2] @ g[:2, :]
    for a in (rank_two, JORDAN2, 1e150 * g, 1e150 * rank_two):
        for theta_grid in (17, 240, 720):
            _assert_scans_agree(a, 31, theta_grid, True)


def _count_scalar_calls(monkeypatch, bound_id):
    """Record the t of every evaluation of a weighted bound."""
    calls = []
    bound, t_dependent = bounds._BOUNDS[bound_id]

    def counted(ctx, t):
        calls.append(t)
        return bound(ctx, t)

    monkeypatch.setitem(bounds._BOUNDS, bound_id, (counted, t_dependent))
    return calls


def test_pruned_scan_overflow_matches_full_scan(monkeypatch):
    # at this scale the grid overflows: some bounds are finite only on
    # part of the grid, and others nowhere
    a = 1e150 * ginibre(np.random.default_rng(612), 4)
    calls = _count_scalar_calls(monkeypatch, "schwarz-radius")
    outcomes = {}
    for bound_id in sorted(T_DEPENDENT_IDS):
        outcomes[bound_id] = _outcome(lambda: minimize_over_t(
            bound_id, a, 31))
    assert outcomes["schwarz-radius"][0] == "NonFinite"
    # no value is finite, so the scan visits every point, once
    assert sorted(calls) == np.linspace(T_MIN, 1 - T_MIN, 31).tolist()
    assert any(isinstance(v[1], float) for v in outcomes.values())
    _assert_scans_agree(a, 31, 720, True)


def test_pruned_scan_skips_most_of_the_grid(monkeypatch):
    calls = _count_scalar_calls(monkeypatch, "aluthge-t")
    minimize_over_t("aluthge-t", BoundContext(SHIFT_234, refine=False), 201)
    assert 1 <= len(calls) <= 20
    calls.clear()
    g = ginibre(np.random.default_rng(617), 8)
    minimize_over_t("aluthge-t", BoundContext(g, refine=False), 1001)
    assert 1 <= len(calls) <= 30
    calls.clear()
    # 719 angles is prime, so the lower ends sweep the full grid
    minimize_over_t("aluthge-t", BoundContext(SHIFT_234, 719, False), 1001)
    assert 1 <= len(calls) <= 30
    # the campaign's 9-point grid: the middle point's value, and the lower
    # ends of its neighbours, most often certify it
    rng = np.random.default_rng(625)
    calls.clear()
    for ens in ENSEMBLES:
        for _ in range(4):
            minimize_over_t("aluthge-t", BoundContext(sample(ens, 3, rng), 240,
                                                      False), 9)
    assert len(calls) <= 30, len(calls)


def test_aluthge_t_minimisation_solves_few_angles(monkeypatch):
    # every theta-grid angle solved through radius._top: the grid stages
    # of the sweeps of A_t and A_t^2, as the lower ends solve none (5,112
    # before the sweeps were warm-started across t, 1,966 with it, 767 with
    # lower ends from the subgrids, 228 with them from the peak angles, 177
    # with secant steps in t)
    rows = count_top_rows(monkeypatch)
    calls = _count_scalar_calls(monkeypatch, "aluthge-t")
    matrices = []  # per np.linalg.eigvalsh call, the matrices it solves
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        matrices.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    minimize_over_t("aluthge-t", ginibre(np.random.default_rng(2026), 8))
    assert sum(rows) <= 177, sum(rows)
    # the grid and the t-refinement, 2 and 1 (2 and 6 with Brent's
    # method); the lower ends solve no eigenproblem per grid point (their
    # term_mod took one stack of 1,001 matrices)
    assert len(calls) <= 3, len(calls)
    assert max(matrices) < 1001, max(matrices)


def test_context_sweeps_warm_start_across_t_with_the_same_bits(monkeypatch):
    g = ginibre(np.random.default_rng(618), 6)
    for theta_grid, refine in ((720, True), (240, False), (17, True)):
        ctx = BoundContext(g, theta_grid, refine)
        # the order of a golden t-refinement's evaluations, then far ones
        for t in (0.5, 0.4, 0.4001, 0.40005, 0.400051, 0.4000505, 0.9, 0.1):
            alu = ctx.aluthge(t)
            for kind, m in (("alu", alu), ("alu2", alu @ alu)):
                assert ctx.sweep(kind, t, m) == pruned_sweep(
                    m, theta_grid, refine).value, (kind, t, theta_grid)
    # a matrix that does not fit is inf and keeps no record
    ctx = BoundContext(g)
    assert ctx.sweep("alu", 0.3, np.full((6, 6), NORM_MAX)) == math.inf
    assert ctx.near("alu", 0.3) is None
    alu = ctx.aluthge(0.3001)
    assert ctx.sweep("alu", 0.3001, alu) == pruned_sweep(alu).value
    # a repeated (kind, t) is swept once, from its record, zero matrix or
    # not: JORDAN2's A_t and A_t^2 are zero at every t
    swept = []

    def counted(m, *args):
        swept.append(m)
        return warm_sweep(m, *args)

    monkeypatch.setattr(bounds, "warm_sweep", counted)
    for a in (g, JORDAN2):
        ctx = BoundContext(a, 240, False)
        minimize_over_t("aluthge-t", ctx, 31)
        records = {kind: ctx._swept[kind] for kind in ("alu", "alu2")}
        count = len(swept)
        assert count == sum(map(len, records.values())), (count, records)
        for kind, kept in records.items():
            for t, m, _, _, value in kept:
                assert ctx.sweep(kind, t, m) == value
            assert any(m.any() for _, m, *_ in kept) == (a is g)
        assert len(swept) == count
        swept.clear()
    # a sweep warm-started from a zero matrix's record solves the angles of
    # a cold one, with its bits, on a grid with a subgrid and on a prime one
    rows = count_top_rows(monkeypatch)
    for theta_grid in (720, 17):
        want = pruned_sweep(g, theta_grid).value
        cold, rows[:] = rows[:], []
        ctx = BoundContext(g, theta_grid)
        ctx.sweep("m", 0.3, np.zeros((6, 6), dtype=complex))
        assert ctx.near("m", 0.31)[0] == 0.3
        assert ctx.sweep("m", 0.31, g) == want and rows == cold, (rows, cold)
        rows.clear()


def test_nearest_swept_t_takes_the_larger_of_two_at_the_same_distance():
    # the record that warm-starts a sweep and gives _omega_lower its peak
    # angle, found by bisect on the records sorted by t, is at the nearest
    # t swept, and of two at the same rounded distance the larger: a walk
    # outward from 1/2 on a dyadic grid, then each midpoint, at exactly the
    # same distance from both of its neighbours; and t's near 0, whose
    # distances to 0.9 round alike
    walk = [0.5] + [0.5 + side * k / 32 for k in range(1, 16)
                    for side in (-1, 1)]
    mids = [(2 * k + 1) / 64 for k in range(1, 31)]
    ties, m = 0, np.eye(2)
    for walked in (walk + mids[::2] + mids[::-2], [2e-20, 1e-20, 3e-20, 0.9]):
        ctx, ts = BoundContext(m, 8), []
        for t in walked:
            want = min(ts[::-1], key=lambda s: abs(s - t), default=None)
            record = ctx.near("m", t)
            assert (record and record[0]) == want, t
            ties += sum(abs(s - t) == abs(want - t) for s in ts) > 1
            ctx.sweep("m", t, m)
            bisect.insort(ts, t)
    assert ties == len(mids) + 1, ties


# Scalar evaluations of the whole catalog, and theta-grid angles solved
# (radius._top rows, which the warm starts of the sweeps in t keep low), in
# a default compare_all: a budget may be tightened, never loosened.
# weighted-r and product take their closed-form minimum, at one evaluation
# each, as does aluthge-t on JORDAN2, whose A_(1/2) is zero (1,082
# evaluations and 990 angles before).  Secant steps on aluthge-t's slope
# took SHIFT_234 from 148 evaluations and 708 angles, hermitian-8 from 47
# and 228, and G from 81 and 446.
EVALUATION_BUDGETS = {
    "SHIFT_234": (SHIFT_234, 143, 558),
    "hermitian-8": (sample("hermitian", 8, np.random.default_rng(2026)), 42,
                    218),
    "JORDAN2": (JORDAN2, 56, 720),
    "G": (ginibre(np.random.default_rng(4), 4), 76, 387),
}


@pytest.mark.parametrize("name", EVALUATION_BUDGETS)
def test_a_default_report_keeps_its_evaluation_budget(name, monkeypatch):
    a, budget, angle_budget = EVALUATION_BUDGETS[name]
    calls = {bid: _count_scalar_calls(monkeypatch, bid) for bid in CATALOG_IDS}
    rows = count_top_rows(monkeypatch)
    compare_all(a)
    counts = {bid: len(ts) for bid, ts in calls.items()}
    assert calls["weighted-r"] == calls["product"] == [0.5], counts
    assert sum(counts.values()) <= budget, counts
    assert sum(rows) <= angle_budget, sum(rows)


def test_quasi_convex_scan_visits_few_points(monkeypatch):
    # every weighted bound has a row; aluthge-t's widens the scan for its
    # sweeps and takes lower ends and a slope, weighted-r's and product's
    # give t* = 1/2, and the others keep the defaults
    rows = {bid: row for bid, (_, row) in bounds._BOUNDS.items() if row}
    alu = rows.pop("aluthge-t")
    ctx = BoundContext(SHIFT_234, 240)
    assert alu.kappa(ctx) == math.cos(math.pi / 240) ** -0.5
    assert alu.lower is bounds._aluthge_lower
    assert alu.slope is bounds._aluthge_slope
    assert alu.t_star(ctx) is None and alu.t_star(BoundContext(JORDAN2)) == 0.5
    for bid, row in rows.items():
        assert (row.kappa(ctx), row.lower, row.slope) == (1, None, None), bid
        assert row.t_star(ctx) == (0.5 if bid in ("weighted-r", "product")
                                   else None), bid
    g = ginibre(np.random.default_rng(617), 8)
    for bound_id in sorted(T_DEPENDENT_IDS):
        calls = _count_scalar_calls(monkeypatch, bound_id)
        minimize_over_t(bound_id, BoundContext(g, refine=False), 1001)
        assert 1 <= len(calls) <= 25, (bound_id, len(calls))
    # product is flat on SHIFT_234: every point ties for the minimum, so
    # the walk goes end to end, once
    calls = _count_scalar_calls(monkeypatch, "product")
    minimize_over_t("product", BoundContext(SHIFT_234, refine=False), 1001)
    assert sorted(calls) == np.linspace(T_MIN, 1 - T_MIN, 1001).tolist()


def test_quasi_convex_bounds_are_quasi_convex_on_the_grid():
    # the premise of _quasi_convex_scan: at every grid point the value,
    # divided by kappa and widened down by BRACKET_REL, is at most the
    # larger of the smallest values, widened up, on its two sides (+inf
    # stays +inf); kappa is cos(pi/N)^(-1/2) for aluthge-t, whose omega
    # terms are sweeps on N angles, and 1 for the others
    rng = np.random.default_rng(620)
    mats = [SHIFT_234, SHIFT_342]
    mats += [sample(ens, n, rng) for ens in ENSEMBLES for n in (2, 3, 5, 8)]
    g = ginibre(np.random.default_rng(4), 4)
    mats += [1e-150 * g, 1e150 * g, 3e153 * g]
    ts = np.linspace(T_MIN, 1 - T_MIN, 101)
    for a in mats:
        for theta_grid, refine in ((240, False), (720, True)):
            ctx = BoundContext(a, theta_grid, refine)
            for bound_id in sorted(T_DEPENDENT_IDS):
                kappa = (math.cos(math.pi / theta_grid) ** -0.5
                         if bound_id == "aluthge-t" else 1.0)
                with np.errstate(over="ignore", invalid="ignore"):
                    vals = np.array([
                        bounds._evaluate(bound_id, ctx, t).value
                        for t in ts.tolist()])
                    widen = radius.BRACKET_REL * (abs(vals) + ctx.norm_a)
                    low = np.where(vals == math.inf, math.inf,
                                   vals / kappa - widen)
                    high = vals + widen
                assert not np.isnan(vals).any()
                left = np.minimum.accumulate(high)[:-2]
                right = np.minimum.accumulate(high[::-1])[::-1][2:]
                assert (low[1:-1] <= np.maximum(left, right)).all(), (
                    bound_id, a.shape, ctx.norm_a, theta_grid)


def test_aluthge_term_mod_is_log_convex_in_t():
    # the step of aluthge-t's proof that takes the transpose:
    # t -> log lambda_max(A_t*A_t + A_tA_t*) is convex, so on a uniform
    # grid each value squared is at most the product of its neighbours',
    # to rounding (over 3,000 random matrices with n <= 4, lambda_max's
    # second differences fell no lower than -4.9e-15 of its largest value,
    # and -1.1e-13 at scales up to 1e+-100, where sigma^(1-t) sigma^t
    # rounds with t ln(sigma))
    rng = np.random.default_rng(626)
    g = ginibre(rng, 5)
    mats = [sample(ens, n, rng) for ens in ENSEMBLES for n in (2, 3, 5)]
    mats += [JORDAN2, g[:, :2] @ g[:2, :]]
    ts = np.linspace(T_MIN, 1 - T_MIN, 401).tolist()
    for a in mats:
        ctx = BoundContext(a)
        lam = np.array([bounds.hnorm(alu.conj().T @ alu + alu @ alu.conj().T)
                        for alu in map(ctx.aluthge, ts)])
        floor = 1e-13 * lam.max()
        assert (lam[1:-1] ** 2 <= lam[:-2] * lam[2:] * (1 + 1e-12)
                + floor**2).all(), a.shape
        second = lam[:-2] - 2 * lam[1:-1] + lam[2:]
        assert (second >= -1e-13 * lam.max()).all(), a.shape


def test_pruned_scan_evaluates_points_without_a_finite_lower_end(monkeypatch):
    # a lower end that is NaN or inf certifies nothing, so the middle
    # point's neighbours must be evaluated; aluthge-t is the one bound whose
    # scan takes lower ends that are not its values
    calls = _count_scalar_calls(monkeypatch, "aluthge-t")
    near = np.linspace(T_MIN, 1 - T_MIN, 9)[[3, 5]].tolist()
    for hole in (math.nan, math.inf):
        # the omega terms of the lower end, the only part a sweep bounds
        monkeypatch.setattr(bounds, "_omega_lower",
                            lambda ctx, kind, t, m: hole)
        for a in (EXAMPLE2, ginibre(np.random.default_rng(614), 4)):
            calls.clear()
            minimize_over_t("aluthge-t", BoundContext(a, 240, False), 9)
            assert set(near) <= set(calls)
            _assert_scans_agree(a, 9, 240, True)


SWEEP_SETTINGS = [(240, False), (360, True), (720, False), (17, True)]


def _assert_aluthge_lower_end_holds(a, theta_grid, refine, grid_points=61):
    # the lower end that the scan takes at the middle point's neighbours,
    # at every grid t, before the widening that covers rounding; it is
    # -inf, which certifies nothing, where it is not finite
    ctx = BoundContext(a, theta_grid, refine)
    lower = []
    with np.errstate(invalid="ignore", over="ignore"):
        for t in np.linspace(T_MIN, 1 - T_MIN, grid_points).tolist():
            lo = bounds._aluthge_lower(ctx, t)
            v = bounds._evaluate("aluthge-t", ctx, t).value
            tol = 1e-12 * (abs(v) + ctx.norm_a)
            assert -math.inf <= lo < math.inf and lo <= v + tol, (t, lo, v)
            lower.append(lo)
    return np.array(lower)


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_aluthge_lower_end_holds_the_value_at_every_t(ensemble):
    rng = np.random.default_rng(list(ENSEMBLES).index(ensemble) + 615)
    for n in (1, 2, 3, 6):
        a = sample(ensemble, n, rng)
        for theta_grid, refine in SWEEP_SETTINGS:
            lower = _assert_aluthge_lower_end_holds(a, theta_grid, refine)
            assert np.isfinite(lower).all()


def test_aluthge_lower_end_holds_the_value_on_edge_inputs():
    g = ginibre(np.random.default_rng(616), 5)
    # at 1e-161 and 1e-162 the squared terms of the bound are subnormal
    scales = (1e-200, 1e-162, 1e-161, 1e-150, 1e150, 3e153, 1e155)
    for a in [JORDAN2, g[:, :2] @ g[:2, :]] + [s * g for s in scales]:
        for theta_grid, refine in SWEEP_SETTINGS:
            _assert_aluthge_lower_end_holds(a, theta_grid, refine)


def _omega_terms(monkeypatch, a, theta_grid, refine, ts):
    """(the omega terms (kind, t, matrix, value) that _aluthge_lower takes
    on a context of a at each t of ts: first with nothing swept, at angle
    0, then after aluthge-t's evaluation at every fifth t, at the peak
    angle of the nearest t evaluated; the set of the t's evaluated)."""
    terms = []
    omega_lower = bounds._omega_lower

    def recorded(ctx, kind, t, m):
        terms.append((kind, t, m, omega_lower(ctx, kind, t, m)))
        return terms[-1][-1]

    monkeypatch.setattr(bounds, "_omega_lower", recorded)
    ctx = BoundContext(a, theta_grid, refine)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in ts:
            bounds._aluthge_lower(ctx, t)
        for t in ts[::5]:
            bounds._evaluate("aluthge-t", ctx, t)
        for t in ts:
            bounds._aluthge_lower(ctx, t)
    return terms, set(ts[::5])


@pytest.mark.parametrize("theta_grid", [8, 11, 16, 240, 360, 720])
@pytest.mark.parametrize("refine", [True, False])
def test_aluthge_omega_terms_at_a_swept_peak_bracket_the_sweep(
        theta_grid, refine, monkeypatch):
    # each omega term of aluthge-t's lower end is ||Re(e^{i theta} M)|| for
    # M = A_t or A_t^2: at most omega(M), which is at most the grid maximum
    # of M's sweep over cos(pi/N) (Johnson's outer polygon); and at a t
    # whose M was swept, at least that sweep's value, an attained g at its
    # peak angle, which the term takes
    rng = np.random.default_rng(613)
    mats = [sample(ens, n, rng) for ens in ENSEMBLES for n in (2, 3, 6)]
    mats += [JORDAN2, np.diag([1.0, -2.0, 1.5j]), np.zeros((3, 3))]
    ts = np.linspace(T_MIN, 1 - T_MIN, 21).tolist()
    widen = 1 / math.cos(math.pi / theta_grid)
    for a in mats:
        terms, swept = _omega_terms(monkeypatch, a, theta_grid, refine, ts)
        assert len(terms) == 4 * len(ts)
        grid_max = {}
        for i, (kind, t, m, term) in enumerate(terms):
            if (kind, t) not in grid_max:
                grid_max[kind, t] = radius_sweep(m, theta_grid, False).value
            w = grid_max[kind, t]
            assert 0 <= term <= w * widen + 1e-12 * (1 + w), (kind, t)
            if t in swept and i >= 2 * len(ts):
                value = BoundContext(a, theta_grid, refine).sweep(
                    kind, t, m)
                assert term >= value - 1e-14 * value, (kind, t)


def test_coarse_step():
    assert coarse_step(720) == 16
    assert coarse_step(240) == 16
    assert coarse_step(360) == 15
    assert coarse_step(16) == 4
    assert coarse_step(11) == 1


def test_context_sweep_gives_non_finite_matrices_inf():
    # each matrix swept by the context: inf where it is not finite or does
    # not fit, where the omega term of aluthge-t's lower end is 0
    ms = np.stack([np.eye(2)] * 8).astype(complex)
    ms[1::3, 0, 1] = np.inf
    ms[3, 1, 0] = np.nan
    ms[-1, 1, 1] = NORM_MAX  # finite, but its norm overflows
    bad = ~np.isfinite(ms).all(axis=(-2, -1))
    bad[-1] = True
    ctx = BoundContext(np.eye(2))
    for i, m in enumerate(ms):
        want = (math.inf, 0.0) if bad[i] else (1.0, 1.0)
        assert (ctx.sweep("m", i, m), bounds._omega_lower(ctx, "alu", 0.5, m)
                ) == pytest.approx(want, rel=1e-15), i


@pytest.mark.parametrize("ensemble", sorted(EXACT_OMEGA))
def test_aluthge_omega_terms_at_a_swept_peak_are_below_the_exact_radius(
        ensemble, monkeypatch):
    # on these ensembles A_t, and so A_t^2, is again normal, a multiple of
    # a unitary, or nonnegative, and has the same closed form for omega,
    # which the omega term of aluthge-t's lower end at each A_t and A_t^2
    # may not exceed, at angle 0 or at a swept neighbour's peak angle
    exact = EXACT_OMEGA[ensemble]
    rng = np.random.default_rng(sorted(EXACT_OMEGA).index(ensemble) + 642)
    ts = np.linspace(T_MIN, 1 - T_MIN, 61).tolist()
    for n in (1, 2, 3, 5, 8, 16):
        a = sample(ensemble, n, rng)
        for theta_grid, refine in SWEEP_SETTINGS:
            terms, _ = _omega_terms(monkeypatch, a, theta_grid, refine, ts)
            assert len(terms) == 4 * len(ts)
            for kind, t, m, term in terms:
                assert 0 <= term <= exact(m) * (1 + 1e-14), (kind, t)
    # a matrix that does not fit has omega term 0
    ctx = BoundContext(a)
    ctx.sweep("alu", 0.5, ctx.aluthge(0.5))
    assert bounds._omega_lower(ctx, "alu", 0.5, np.full((n, n), NORM_MAX)) == 0


def test_aluthge_lower_end_solves_no_grid_angle(monkeypatch):
    # each omega term is one eigensolve at a peak angle, where lower ends
    # from subgrids solved 2 x 45 angles at N = 720; with term_mod's that
    # makes three Hermitian eigensolves, at most two of them for the omega
    # terms
    rows = count_top_rows(monkeypatch)
    solved = []  # per eigensolve, the matrices it solves
    for name in ("eigvalsh", "eigh"):
        def counted(m, *args, solve=getattr(np.linalg, name), **kwargs):
            solved.append(int(np.prod(np.shape(m)[:-2])))
            return solve(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    in_omega = []
    omega_lower = bounds._omega_lower

    def counted_omega(*args):
        before = sum(solved)
        value = omega_lower(*args)
        in_omega.append(sum(solved) - before)
        return value

    monkeypatch.setattr(bounds, "_omega_lower", counted_omega)
    g = ginibre(np.random.default_rng(2026), 8)
    for a in (SHIFT_234, g, JORDAN2):
        ctx = BoundContext(a)
        bounds._evaluate("aluthge-t", ctx, 0.5)
        for t in (0.5, 0.3, 0.7001):
            rows.clear()
            solved.clear()
            in_omega.clear()
            bounds._aluthge_lower(ctx, t)
            assert rows == [], rows
            assert sum(solved) <= 3 and sum(in_omega) <= 2, (solved, in_omega)


def test_compare_all_minimizes_through_the_module_global(monkeypatch):
    # perfbench's traced run names its spans from the first argument
    seen = []
    minimize = bounds.minimize_over_t

    def traced(*args, **kwargs):
        seen.append(args[0])
        return minimize(*args, **kwargs)

    monkeypatch.setattr(bounds, "minimize_over_t", traced)
    compare_all(SHIFT_234)
    assert sorted(seen) == sorted(T_DEPENDENT_IDS)
    assert len(seen) == 6


# ---------------------------------------------------------------------------
# aluthge-t's slope in t, and the secant steps on it that refine its t*

# the nilpotent shift: sigma = (1, 1, 0) with an exact 0, and A_t = E_23 at
# every t, so aluthge-t is constant
SHIFT3 = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
SLOPE_TS = (0.15, 0.3, 0.45, 0.62, 0.85)


def _slope_and_difference(a, t, h=1e-5):
    """aluthge-t's _aluthge_slope at t, where it was evaluated, with an
    error state in which log(0) raises, and its central difference."""
    ctx = BoundContext(a)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        bounds._evaluate("aluthge-t", ctx, t)
        slope = bounds._aluthge_slope(ctx, t, 1e-3)
    below, above = (bounds._evaluate("aluthge-t", ctx, s).value
                    for s in (t - h, t + h))
    return slope, (above - below) / (2 * h)


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_aluthge_slope_matches_a_central_difference(ensemble):
    rng = np.random.default_rng(list(ENSEMBLES).index(ensemble) + 637)
    for n in (3, 5, 8):
        a = sample(ensemble, n, rng)
        for t in SLOPE_TS:
            slope, diff = _slope_and_difference(a, t)
            if (ensemble, n) == ("nilpotent", 3):
                # A_t is a nilpotent 2x2 block: A_t*A_t + A_tA_t* has a
                # double top eigenvalue at every t, and its slope is not
                # taken
                assert slope is None, t
            else:
                assert abs(slope - diff) <= 1e-7 * abs(diff), (n, t, slope,
                                                               diff)


@pytest.mark.parametrize("name", ["SHIFT_234", "SHIFT_342", "SHIFT3"])
def test_aluthge_slope_matches_a_central_difference_on_examples(name):
    a = {"SHIFT_234": SHIFT_234, "SHIFT_342": SHIFT_342,
         "SHIFT3": SHIFT3}[name]
    for t in SLOPE_TS:
        slope, diff = _slope_and_difference(a, t)
        assert abs(slope - diff) <= 1e-7 * abs(diff), (t, slope, diff)
        if name == "SHIFT3":
            assert slope == diff == 0, t


def _refined_both_ways(monkeypatch, a):
    """Refine-on aluthge-t on a, with the secant steps and with Brent's
    method alone: ((t*, value, the t's evaluated), the same for Brent's,
    the secant's results)."""
    calls = _count_scalar_calls(monkeypatch, "aluthge-t")
    results = []
    secant = bounds.secant_min

    def traced(*args):
        results.append(secant(*args))
        return results[-1]

    with monkeypatch.context() as m:
        m.setattr(bounds, "secant_min", traced)
        got = (*minimize_over_t("aluthge-t", a), calls[:])
    calls.clear()
    with monkeypatch.context() as m:
        bound, row = bounds._BOUNDS["aluthge-t"]
        m.setitem(bounds._BOUNDS, "aluthge-t",
                  (bound, dataclasses.replace(row, slope=None)))
        want = (*minimize_over_t("aluthge-t", a), calls[:])
    return got, want, results


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_secant_refinement_is_no_worse_than_brents_over_ensembles(
        ensemble, monkeypatch):
    rng = np.random.default_rng(list(ENSEMBLES).index(ensemble) + 643)
    evaluations = [0, 0]
    for n in (2, 3, 5, 8):
        for _ in range(3):
            got, want, _ = _refined_both_ways(monkeypatch,
                                              sample(ensemble, n, rng))
            assert got[1] <= want[1] * (1 + 1e-15), (n, got, want)
            assert len(got[2]) <= len(want[2]), (n, got, want)
            evaluations = [evaluations[0] + len(got[2]),
                           evaluations[1] + len(want[2])]
    assert evaluations[0] < evaluations[1], evaluations


def test_secant_refinement_is_no_worse_than_brents_on_examples(monkeypatch):
    rng = np.random.default_rng(2026)
    mats = [SHIFT_234, SHIFT_342] + [ginibre(rng, 8) for _ in range(5)]
    evaluations = [0, 0]
    for a in mats:
        got, want, results = _refined_both_ways(monkeypatch, a)
        assert results[0] is not None
        assert got[1] <= want[1] * (1 + 1e-15), (got, want)
        assert len(got[2]) <= len(want[2]), (got, want)
        evaluations = [evaluations[0] + len(got[2]),
                       evaluations[1] + len(want[2])]
    assert evaluations[0] * 3 <= evaluations[1] * 2, evaluations


@pytest.mark.parametrize("ensemble", ["hermitian", "unitary-scaled"])
def test_secant_refinement_stops_at_once_on_a_normal_matrix(ensemble,
                                                           monkeypatch):
    # A_t = A at every t, and the X-only norms are least at 1/2, a grid
    # point, where the slope is at its rounding level
    a = sample(ensemble, 5, np.random.default_rng(647))
    got, _, results = _refined_both_ways(monkeypatch, a)
    assert got[0] == 0.5 and results == [(0.5, got[1])]
    # no evaluation off the grid
    grid = np.linspace(T_MIN, 1 - T_MIN, bounds.DEFAULT_T_GRID).tolist()
    assert got[2] and set(got[2]) <= set(grid)


@pytest.mark.parametrize("name", ["nilpotent-3", "1e-200 G", "2e153 G"])
def test_secant_refinement_falls_back_to_brents_bits(name, monkeypatch):
    # a double top eigenvalue of term_mod at every t, which can split into
    # a kink of lambda_1; a sum under the root that underflows to 0, where
    # the slope at t* is not finite; a value that overflows at the other
    # end of the bracket, where the slope is not finite either
    g = ginibre(np.random.default_rng(4), 4)
    a = {"nilpotent-3": sample("nilpotent", 3, np.random.default_rng(649)),
         "1e-200 G": 1e-200 * g, "2e153 G": 2e153 * g}[name]
    got, want, results = _refined_both_ways(monkeypatch, a)
    assert results == [None] and got[:2] == want[:2]
    # it fell back before any new evaluation: at t*, or at an end that the
    # scan had evaluated (on 2e153 G it walks 508 points, most of them +inf)
    assert got[2] == want[2]
