"""Built-in regression fixtures: two 3x3 weighted cyclic shifts.

For both matrices the interesting quantities have known values, which
makes them the canonical smoke test for the whole bound catalog.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import kittaneh_square, kittaneh_sum, minimize_over_t

SHIFT_234 = np.array([[0, 2, 0],
                      [0, 0, 3],
                      [4, 0, 0]], dtype=np.complex128)

SHIFT_342 = np.array([[0, 3, 0],
                      [0, 0, 4],
                      [2, 0, 0]], dtype=np.complex128)


@dataclass(frozen=True)
class ReferenceCheck:
    name: str
    got: float
    target: float
    tol: float
    kind: str = "approx"  # "approx": |got - target| <= tol; "positive": got > 0

    @property
    def passed(self) -> bool:
        if self.kind == "positive":
            return self.got > 0
        return abs(self.got - self.target) <= self.tol

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if self.kind == "positive":
            return f"{self.name} = {self.got:.6f} (must be > 0) {status}"
        return (f"{self.name} = {self.got:.6f} "
                f"(target {self.target} ± {self.tol:g}) {status}")


def run_reference_checks() -> list[ReferenceCheck]:
    """Evaluate every pinned regression figure."""
    checks = []

    _, wp_value = minimize_over_t("weighted-power", SHIFT_234)
    wp_inner = wp_value**2
    checks.append(ReferenceCheck("example1.weighted-power.inner",
                                 wp_inner, 12.002, 5e-3))
    checks.append(ReferenceCheck("example1.kitt-square.inner",
                                 kittaneh_square(SHIFT_234).detail["inner"],
                                 12.5, 1e-9))
    checks.append(ReferenceCheck("example1.kitt-sum",
                                 kittaneh_sum(SHIFT_234).value, 3.5, 1e-9))
    # strict refinement: sqrt of the minimized inner value beats 3.5
    checks.append(ReferenceCheck("example1.refinement-margin",
                                 3.5 - math.sqrt(wp_inner), 0.0, 0.0,
                                 kind="positive"))

    _, fp_value = minimize_over_t("fourth-power", SHIFT_342)
    fp_inner = fp_value**2
    # minimum of the diagonal operand at t* ~= 0.4388, certified at high
    # precision in the tests; the printed 9.32 has (9 - 7t)/2 in place of
    # (9 + 7t)/2 in the second diagonal entry
    checks.append(ReferenceCheck("example2.fourth-power.inner",
                                 fp_inner, 11.828736, 1e-6))
    checks.append(ReferenceCheck("example2.kitt-sum",
                                 kittaneh_sum(SHIFT_342).value, 3.5, 1e-9))
    checks.append(ReferenceCheck("example2.refinement-margin",
                                 3.5 - math.sqrt(fp_inner), 0.0, 0.0,
                                 kind="positive"))
    return checks
