"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line so the suite doubles as a
checklist when run with -s.  Tolerances are part of the contract and are
not to be loosened.
"""

import math
import time

import numpy as np
import pytest

from numrad import (aluthge, aluthge_half, integral_bound, kittaneh_mixed,
                    kittaneh_square, kittaneh_sum, minimize_over_t,
                    radius_oracle, radius_sweep, spectral_norm, yamazaki)
from numrad.bounds import BoundContext, _evaluate
from numrad.campaign import CampaignConfig, run_campaign
from numrad.ensembles import ENSEMBLES, sample
from numrad import pointwise
from numrad.polar import T_MIN, abs_value
from numrad.matrix import adjoint

from conftest import EXAMPLE1, EXAMPLE2, JORDAN2, ginibre, half_square_sum


def _report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_example1_regression():
    start = time.monotonic()
    _, wp_value = minimize_over_t("weighted-power", EXAMPLE1)
    wp_inner = wp_value**2
    ks_inner = kittaneh_square(EXAMPLE1).detail["inner"]
    k_sum = kittaneh_sum(EXAMPLE1).value
    elapsed = time.monotonic() - start
    ok = (abs(wp_inner - 12.002) <= 5e-3
          and abs(ks_inner - 12.5) <= 1e-9
          and abs(k_sum - 3.5) <= 1e-9
          and math.sqrt(wp_inner) < 3.5
          and elapsed < 5.0)
    _report("example-1 regression", ok)


def test_example2_regression():
    start = time.monotonic()
    _, fp_value = minimize_over_t("fourth-power", EXAMPLE2)
    fp_inner = fp_value**2
    k_sum = kittaneh_sum(EXAMPLE2).value
    elapsed = time.monotonic() - start
    # 11.828736 is the minimum certified by the mpmath and scalar oracles
    # in test_bounds.py; the printed 9.32 carries a sign typo (README,
    # "Erratum").
    clauses = {
        f"fourth-power inner {fp_inner:.9f} != 11.828736 ± 1e-6":
            abs(fp_inner - 11.828736) <= 1e-6,
        f"kitt-sum {k_sum:.12f} != 3.5 ± 1e-9": abs(k_sum - 3.5) <= 1e-9,
        f"sqrt(inner) {math.sqrt(fp_inner):.6f} >= 3.5":
            math.sqrt(fp_inner) < 3.5,
        f"elapsed {elapsed:.2f}s >= 5s": elapsed < 5.0,
    }
    failed = [clause for clause, ok in clauses.items() if not ok]
    suffix = f" ({'; '.join(failed)})" if failed else ""
    _report("example-2 regression" + suffix, not failed)


def test_soundness_sweep():
    start = time.monotonic()
    dims = (2, 3, 4, 5, 6, 7, 8)
    per_dim = {d: 143 for d in dims}
    per_dim[8] = 142  # 1000 trials per ensemble in total
    total_violations = 0
    for e_idx, ensemble in enumerate(ENSEMBLES):
        for dim in dims:
            config = CampaignConfig(ensemble=ensemble, dim=dim,
                                    trials=per_dim[dim],
                                    seed=10_000 * e_idx + dim)
            _, violations = run_campaign(config)
            total_violations += violations
    elapsed = time.monotonic() - start
    ok = total_violations == 0 and elapsed < 600.0
    _report(f"soundness sweep ({total_violations} violations, "
            f"{elapsed:.0f}s)", ok)


def test_specialization_identities():
    # weighted-power and fourth-power at 1/2 are kitt-square, and aluthge-t
    # at 1/2 is aluthge-half, to the last bit; weighted-r at 1/2 and
    # kitt-sum agree to rounding
    rng = np.random.default_rng(31415)
    exact = ("weighted-power", "fourth-power")
    worst, same = 0.0, True
    for ensemble in [e for e in ENSEMBLES for _ in range(40)]:
        n = int(rng.integers(2, 9))
        ctx = BoundContext(sample(ensemble, n, rng))
        want = half_square_sum(ctx)[0]
        for general in exact:
            same &= _evaluate(general, ctx, 0.5).value == want
        same &= _evaluate("kitt-square", ctx).value == want
        general = _evaluate("aluthge-t", ctx, 0.5)
        special = _evaluate("aluthge-half", ctx)
        same &= (general.value, general.detail) == (special.value,
                                                     special.detail)
        lhs = _evaluate("weighted-r", ctx, 0.5).value
        rhs = _evaluate("kitt-sum", ctx).value
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    ok = same and worst <= 1e-10
    _report(f"specialization identities (exact {same}, worst {worst:.2e})",
            ok)


def test_ordering_chains():
    rng = np.random.default_rng(27182)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 9))
        a = ginibre(rng, n)
        ctx = BoundContext(a)
        alu_norm = spectral_norm(aluthge(a, 0.5).transform)
        mid = 0.5 * (ctx.norm_a + alu_norm)
        km = _evaluate("kitt-mixed", ctx).value
        ok &= _evaluate("aluthge-half", ctx).value <= mid + 1e-9
        ok &= mid <= km + 1e-9
        _, product_min = minimize_over_t("product", ctx, grid_points=101)
        ok &= product_min <= km + 1e-9
        integ = _evaluate("integral", ctx).value
        ok &= _evaluate("integral-refined", ctx).value <= integ + 1e-9
        ks = _evaluate("kitt-square", ctx).value
        ok &= integ <= ks + 1e-9
        ok &= _evaluate("kitt-sum", ctx).value <= ks + 1e-9
        if not ok:
            break
    _report("ordering chains", ok)


def test_oracle_equivalence():
    rng = np.random.default_rng(16180)
    worst_rel, worst_over = 0.0, -math.inf
    for i in range(100):
        n = int(rng.integers(2, 7))
        a = ginibre(rng, n)
        sweep = radius_sweep(a).value
        oracle = radius_oracle(a, trials=10**4, seed=1000 + i).value
        worst_rel = max(worst_rel, abs(oracle - sweep) / sweep)
        worst_over = max(worst_over, oracle - sweep)
    ok = worst_rel <= 1e-3 and worst_over <= 1e-6
    _report(f"oracle equivalence (worst rel {worst_rel:.2e})", ok)


def test_pointwise_lemma_suite():
    rng = np.random.default_rng(14142)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        a = ginibre(rng, n)
        b, c, d = (ginibre(rng, n) for _ in range(3))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        t = rng.uniform(T_MIN, 1 - T_MIN)
        r = rng.uniform(0.05, 3.0)
        p = abs_value(a)
        q = abs_value(adjoint(a))
        checks = (
            (pointwise.kato(a, x, y, t), 1e-9),
            (pointwise.mccarthy(a.conj().T @ a, x, r), 1e-9),
            (pointwise.schwarz_covariance(a, b, x), 1e-9),
            (pointwise.schwarz_self(a, x), 1e-9),
            (pointwise.cs_refinement(a, b, x), 1e-9),
            (pointwise.amer_bound(a, b, c, d), 1e-5),
            (pointwise.log_convexity(p, q, t), 1e-9),
        )
        violations += sum(1 for chk, tol in checks if chk.margin < -tol)
    ok = violations == 0
    _report(f"pointwise lemma suite ({violations} violations)", ok)


def test_integral_closed_form_vs_quadrature():
    rng = np.random.default_rng(17320)
    worst = 0.0
    # 1000-node Gauss-Legendre rule on [0, 1] for the integral of
    # ((1-s)X + sY)^2
    nodes, weights = np.polynomial.legendre.leggauss(1000)
    nodes = (nodes + 1) / 2
    weights = weights / 2
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a = ginibre(rng, n)
        x = abs_value(a)
        y = abs_value(adjoint(a))
        batch = ((1 - nodes)[:, None, None] * x
                 + nodes[:, None, None] * y)
        quad = np.einsum("s,sij,sjk->ik", weights, batch, batch)
        closed_inner = integral_bound(a).detail["inner"]
        quad_inner = float(np.max(np.abs(np.linalg.eigvalsh(quad))))
        worst = max(worst, abs(closed_inner - quad_inner)
                    / max(1.0, quad_inner))
    ok = worst <= 1e-6
    _report(f"integral closed form vs quadrature (worst {worst:.2e})", ok)


def test_tightness_witnesses():
    omega = radius_sweep(JORDAN2).value
    values = (kittaneh_sum(JORDAN2).value, yamazaki(JORDAN2).value,
              aluthge_half(JORDAN2).value, kittaneh_mixed(JORDAN2).value,
              omega)
    ok = all(abs(v - 0.5) <= 1e-9 for v in values)
    _report("tightness witnesses", ok)
