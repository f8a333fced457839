import math
import warnings

import numpy as np
import pytest

from numrad import (CATALOG_IDS, T_DEPENDENT_IDS, BoundContext, DomainError,
                    NonFinite, WeightOutOfRange, aluthge_half,
                    aluthge_weighted, classic_envelope, compare_all,
                    fourth_power, integral_bound, integral_refined,
                    kittaneh_mixed, kittaneh_square, kittaneh_sum,
                    minimize_over_t, product_bound, radius_sweep,
                    schwarz_radius, weight_params, weighted_R,
                    weighted_power, yamazaki)
from numrad import bounds
from numrad.ensembles import ENSEMBLES, sample
from numrad.optimize import golden_min
from numrad.pointwise import kato
from numrad.polar import T_MIN
from numrad.radius import coarse_step, sweep_subgrid
from numrad.reference import SHIFT_234, SHIFT_342

from conftest import EXAMPLE1, EXAMPLE2, JORDAN2, ginibre, half_square_sum


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
    for a in (EXAMPLE1, ginibre(rng, 4)):
        general = aluthge_weighted(a, weight_params(0.5)).value
        special = aluthge_half(a).value
        assert general == pytest.approx(special, rel=1e-10)


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


def test_weight_params_window():
    assert weight_params(0.25).t == 0.25
    with pytest.raises(WeightOutOfRange):
        weight_params(0.0)
    with pytest.raises(WeightOutOfRange):
        weight_params(1.0)


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
    for bv in compare_all(3e153 * g, t_grid=101, theta_grid=240).bounds:
        if math.isnan(bv.value):
            assert "did not converge" not in bv.detail["error"], bv
    bv = aluthge_half(1.2e154 * np.array([[0.6, 0.3], [0.2, -0.5j]]))
    assert bv.value == bv.detail["inner"] == math.inf


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


# ---------------------------------------------------------------------------
# the pruned t-scan against the full scan it replaces

@np.errstate(over="ignore", invalid="ignore")  # as minimize_over_t's
def _full_scan(bound_id, ctx, grid_points, refine):
    """The unpruned scan: every grid point, first-index argmin, golden
    refinement around it."""
    def f(t):
        return bounds._evaluate(bound_id, ctx, float(t)).value

    ts = np.linspace(T_MIN, 1 - T_MIN, grid_points)
    vals = np.array([f(t) for t in ts])
    best = int(np.argmin(vals))
    if not math.isfinite(vals[best]):
        raise NonFinite(f"{bound_id}: all grid evaluations overflowed "
                        f"(e.g. t={ts[best]})")
    t_star, value = float(ts[best]), float(vals[best])
    if refine and grid_points > 1:
        lo = float(ts[max(best - 1, 0)])
        hi = float(ts[min(best + 1, grid_points - 1)])
        t_ref, v_ref, _ = golden_min(f, lo, hi, bounds.REFINE_TOL)
        if v_ref < value:
            t_star, value = float(t_ref), float(v_ref)
    return t_star, value


def _outcome(fn):
    try:
        return fn()
    except NonFinite as exc:
        return ("NonFinite", str(exc))


def _assert_scans_agree(a, grid_points, theta_grid, refine):
    for bound_id in sorted(T_DEPENDENT_IDS):
        # separate contexts, so that no cached value passes between them
        want = _outcome(lambda: _full_scan(
            bound_id, BoundContext(a, theta_grid=theta_grid,
                                   theta_refine=refine),
            grid_points, refine))
        got = _outcome(lambda: minimize_over_t(
            bound_id, None, grid_points, refine=refine,
            ctx=BoundContext(a, theta_grid=theta_grid, theta_refine=refine)))
        assert got == want, (bound_id, theta_grid, refine)


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
    """Record the float t of every scalar evaluation of a weighted bound;
    the calls at the grid's vector of t are not counted."""
    calls = []
    bound, t_dependent = bounds._BOUNDS[bound_id]

    def counted(ctx, t):
        if not isinstance(t, np.ndarray):
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
    minimize_over_t("aluthge-t", SHIFT_234, 201, refine=False)
    assert 1 <= len(calls) <= 20
    calls.clear()
    minimize_over_t("aluthge-t", ginibre(np.random.default_rng(617), 8),
                    1001, refine=False)
    assert 1 <= len(calls) <= 30
    calls.clear()
    # 719 angles is prime, so the probe rows sweep the full grid
    minimize_over_t("aluthge-t", None, 1001, refine=False,
                    ctx=BoundContext(SHIFT_234, theta_grid=719))
    assert 1 <= len(calls) <= 30


def test_pruned_scan_evaluates_points_without_a_finite_bracket(monkeypatch):
    # a grid point whose lower end is NaN or inf certifies nothing, so the
    # scalar evaluator must run there
    bound = bounds._BOUNDS["fourth-power"][0]

    def holed(ctx, t):
        value, detail = bound(ctx, t)
        if isinstance(t, np.ndarray):
            value = value.copy()
            value[1:-1:2] = math.nan
        return value, detail

    monkeypatch.setitem(bounds._BOUNDS, "fourth-power", (holed, True))
    for a in (EXAMPLE2, ginibre(np.random.default_rng(614), 4)):
        _assert_scans_agree(a, 41, 240, True)


def test_pruned_scan_equals_full_scan_with_a_small_stack_budget(monkeypatch):
    # many chunks, each with fewer probe rows than BRACKET_PROBES
    monkeypatch.setattr(bounds, "BRACKET_CHUNK_BYTES", 1 << 16)
    _assert_scans_agree(SHIFT_234, 101, 720, True)
    _assert_scans_agree(ginibre(np.random.default_rng(618), 4), 101, 720,
                        False)


BRACKET_SETTINGS = [(240, False), (360, True), (720, False), (17, True)]


def _assert_aluthge_bracket_holds(a, theta_grid, refine, grid_points=61):
    # the bracket as minimize_over_t gets it, before the widening that
    # covers rounding
    ctx = BoundContext(a, theta_grid=theta_grid, theta_refine=refine)
    ts = np.linspace(T_MIN, 1 - T_MIN, grid_points)
    assert grid_points > bounds.BRACKET_PROBES  # so some rows are not probes
    with np.errstate(invalid="ignore", over="ignore"):
        lower = bounds._lower("aluthge-t", ctx, ts)
        for t, lo in zip(ts, lower):
            v = bounds._evaluate("aluthge-t", ctx, float(t)).value
            tol = 1e-12 * (abs(v) + ctx.norm_a)
            assert not math.isfinite(lo) or lo <= v + tol, (t, lo, v)
    return lower


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_aluthge_bracket_holds_the_value_at_every_t(ensemble):
    rng = np.random.default_rng(list(ENSEMBLES).index(ensemble) + 615)
    for n in (1, 2, 3, 6):
        a = sample(ensemble, n, rng)
        for theta_grid, refine in BRACKET_SETTINGS:
            lower = _assert_aluthge_bracket_holds(a, theta_grid, refine)
            assert np.isfinite(lower).all()


def test_aluthge_bracket_holds_the_value_on_edge_inputs():
    g = ginibre(np.random.default_rng(616), 5)
    for a in (JORDAN2, g[:, :2] @ g[:2, :], 1e150 * g):
        for theta_grid, refine in BRACKET_SETTINGS:
            _assert_aluthge_bracket_holds(a, theta_grid, refine)


@pytest.mark.parametrize("theta_grid", [8, 11, 16, 240, 360, 720])
@pytest.mark.parametrize("refine", [True, False])
def test_subgrid_brackets_the_sweep(theta_grid, refine):
    rng = np.random.default_rng(613)
    step = coarse_step(theta_grid)
    assert theta_grid % step == 0 and theta_grid // step >= 3
    widen = 1 / math.cos(math.pi * step / theta_grid)
    mats = [sample(ens, n, rng) for ens in ENSEMBLES for n in (2, 3, 6)]
    mats += [JORDAN2, np.diag([1.0, -2.0, 1.5j]), np.zeros((3, 3))]
    lower = sweep_subgrid(np.stack([np.pad(m, (0, 6 - m.shape[0]))
                                    for m in mats]), theta_grid, step)[0]
    for m, g_c in zip(mats, lower):
        w = radius_sweep(m, theta_grid, refine=refine).value
        tol = 1e-12 * (1 + abs(w))
        assert g_c - tol <= w <= g_c * widen + tol


def test_coarse_step():
    assert coarse_step(720) == 16
    assert coarse_step(240) == 16
    assert coarse_step(360) == 15
    assert coarse_step(16) == 4
    assert coarse_step(11) == 1


def test_sweep_of_a_stack_gives_non_finite_matrices_inf():
    # with 2 rows every row is a probe; with 40 the probes are every third
    # row, a non-finite one among them, and rotated quotients give the rest
    for rows in (2, 40):
        ms = np.stack([np.eye(2)] * rows).astype(complex)
        ms[1::3, 0, 1] = np.inf
        ms[rows // 2, 1, 0] = np.nan
        lower = BoundContext(np.eye(2)).sweep(None, ms)
        bad = ~np.isfinite(ms).all(axis=(-2, -1))
        assert (lower[bad] == math.inf).all()
        assert lower[~bad] == pytest.approx(np.ones(rows - bad.sum()),
                                            rel=1e-15)
