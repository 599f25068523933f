"""Probes of the traced run, measured outside the item loop.

* Exact counts: solver iterations on each of the ten frozen oracle
  instances.  They repeat exactly from run to run on one commit.
* Clifford micro-probe: time per product on the sparse path (grade-1 times
  grade-1 in C_2, the operator-symbol case) and on the dense-table path
  (full times full in C_5, 32 x 32 blade pairs).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from fracbb import clifford
from fracbb.clifford import CliffordElement

from workloads import TOL, oracle_instances, solve_instance


def oracle_iteration_counts() -> tuple[dict[str, tuple[int, str]], list[str]]:
    """``norms.iterations.<instance>`` metrics, plus problems found on the way."""
    metrics, problems = {}, []
    for inst in oracle_instances():
        split = solve_instance(inst)
        metrics[f"norms.iterations.{inst['name']}"] = (split.iterations, "count")
        if not split.gap <= TOL:
            problems.append(f"probe {inst['name']}: gap {split.gap}")
        if abs(split.value - inst["expected"]) > 1e-4:
            problems.append(f"probe {inst['name']}: {split.value} vs oracle {inst['expected']}")
    return metrics, problems


def _us_per_product(x, y, count: int, repeats: int = 5) -> float:
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(count):
            clifford.multiply(x, y)
        samples.append((perf_counter() - start) / count)
    return 1e6 * statistics.median(samples)


def clifford_product_us(seed: int) -> dict[str, tuple[float, str]]:
    rng = np.random.default_rng([seed, 99])

    def element(n, masks):
        return CliffordElement(n, {m: complex(*rng.normal(size=2)) for m in masks})

    sparse = (element(2, (1, 2)), element(2, (1, 2)))
    dense = (element(5, range(32)), element(5, range(32)))
    return {
        "clifford.multiply_sparse.us": (_us_per_product(*sparse, count=20000), "us"),
        "clifford.multiply_dense.us": (_us_per_product(*dense, count=2000), "us"),
    }
