"""The benchmark's three workloads: seeded inputs, the work of each item, checks.

An item is one closed-loop request: ``work()`` calls public functions of
fracbb's modules and ``check(outcome)`` returns the list of problems found in
its output (empty when the output is correct).  Library calls go through
module attributes (``operators.invert_D2``, not an imported name), so the
traced run's wrappers see them.

Every workload draws its inputs from ``numpy.random.default_rng([seed, tag])``
while it is constructed; the same seed gives the same items in the same
order.  Items repeat in cycles: each cycle is a seeded permutation of a fixed
multiset of item kinds, so every run has the same mix.  ``Workload.items`` is
the run's pool of inputs; the timed loop runs it over and over, so that every
input is timed several times in one run.  An input may sit in the pool more
than once (the frozen mixed-solve instances); it is then the same ``Item``.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from fracbb import decomposition, disk, experiments, fileio, kernels, norms, operators, spectral
from fracbb.spectral import SpectralField, band_indices

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"

TOL = 1e-6
SQRT_PI = math.sqrt(math.pi)
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Item:
    kind: str
    work: Callable[[], object]
    check: Callable[[object], list[str]]


def load_test_module(name: str):
    """Import ``tests/<name>.py`` by path; the benchmark only reads it."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", TESTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_instances() -> list[dict]:
    """The ten frozen oracle instances, each with its field and frozen value."""
    regen = load_test_module("regen_oracle_values")
    frozen = load_test_module("frozen_values").SUBGRADIENT_VALUES
    out = []
    for inst in regen.oracle_instances():
        out.append(
            dict(
                name=inst["name"],
                field=regen.instance_field(inst),
                s=inst["s"],
                homogeneous=inst["homogeneous"],
                weights=regen.instance_weight_array(inst),
                points=inst["points"],
                expected=frozen[inst["name"]],
            )
        )
    return out


def solve_instance(inst: dict):
    return norms.sum_space_norm(
        inst["field"],
        s=inst["s"],
        homogeneous=inst["homogeneous"],
        tol=TOL,
        weights=inst["weights"],
        points_per_axis=inst["points"],
    )


def _cycles(rng: np.random.Generator, kinds: list[str], count: int) -> list[str]:
    order = []
    for _ in range(count):
        order += [kinds[i] for i in rng.permutation(len(kinds))]
    return order


class Workload:
    """A seeded pool of items, streamed in endless repeats, plus the items run once per run."""

    name = ""
    tag = 0
    #: Approximate seconds per item at the benchmark's defining commit; sets
    #: the fixed item count of a traced pass, never the untraced measurement.
    nominal_item_s = 0.0
    cycle_kinds: list[str] = []

    def __init__(self, seed: int, results_dir: Path):
        self.seed = seed
        self.results_dir = results_dir
        self.rng = np.random.default_rng([seed, self.tag])
        self.items: list[Item] = []

    def stream(self):
        while True:
            yield from self.items

    def per_run_items(self) -> list[Item]:
        return []

    def traced_item_count(self, seconds: float) -> int:
        """Whole cycles of items filling at most ``seconds`` at nominal speed."""
        cycle = len(self.cycle_kinds)
        return max(1, int(seconds / (self.nominal_item_s * cycle))) * cycle


# -- certify-corpus -------------------------------------------------------------


class CertifyCorpus(Workload):
    """The paper's empirical-constant experiments, one sample or series per item."""

    name = "certify-corpus"
    tag = 1
    nominal_item_s = 0.065
    cycle_kinds = ["bb1", "bb1", "bb1", "disk", "disk", "disk", "bb2", "bb2"]
    # 104 inputs, each timed about five times in a 30 s run.  Their p90 (the
    # 94th) falls among the 26 dim-2 samples, far above the other kinds, with
    # ten inputs beyond it.
    CYCLES = 13
    DECAYS = (0.75, 1.0, 1.5)

    def __init__(self, seed, results_dir):
        super().__init__(seed, results_dir)
        self.ratios: dict[tuple[str, str], float] = {}  # one per report row
        disks = 0
        for kind in _cycles(self.rng, self.cycle_kinds, self.CYCLES):
            if kind == "disk":
                decay = self.DECAYS[disks % len(self.DECAYS)]
                disks += 1
                series = disk.random_series(24, decay, self.rng)
                self.items.append(self._disk_item(f"series{disks}", series))
            else:
                dim, band = (1, 64) if kind == "bb1" else (2, 12)
                sample_seed = int(self.rng.integers(2**31))
                cfg = experiments.ExperimentConfig(
                    dim=dim, band=band, samples=1, seed=sample_seed, tol=TOL
                )
                self.items.append(self._bb_item(kind, cfg))

    def _bb_item(self, kind, cfg):
        def check(report):
            problems = []
            if report.failures or len(report.rows) != 1:
                problems.append(f"{kind}: {len(report.failures)} failed samples")
            for row in report.rows:
                if len(row.gaps) != cfg.dim + 1 or not all(g <= cfg.tol for g in row.gaps):
                    problems.append(f"{kind}: gaps {row.gaps} above tol")
                if not (math.isfinite(row.ratio) and row.ratio > 0):
                    problems.append(f"{kind}: ratio {row.ratio}")
                self.ratios[(kind, str(cfg.seed))] = row.ratio
            return problems

        return Item(kind, lambda: experiments.verify_bb(cfg), check)

    def _disk_item(self, key, series):
        def check(report):
            problems = []
            for row in report.rows:
                lhs = row.bergman**2
                if abs(lhs - math.pi * row.hminushalf**2) > 1e-12 * max(1.0, lhs):
                    problems.append(f"disk r={row.r}: bergman^2 != pi*boundary^2")
                if not row.ratio <= SQRT_PI + 1e-3:
                    problems.append(f"disk r={row.r}: ratio {row.ratio} above sqrt(pi)")
                # Both single-sided splits are feasible, so the certified
                # value can exceed neither by more than the gap tolerance.
                if row.mixed > min(row.l1, row.hminushalf) + TOL:
                    problems.append(f"disk r={row.r}: mixed {row.mixed} above feasible")
                self.ratios[("disk", f"{key}/r={row.r}")] = row.ratio
            return problems

        return Item("disk", lambda: disk.bbb_ratio(series, tol=TOL), check)

    def per_run_items(self):
        json_path = self.results_dir / f"{self.name}-seed{self.seed}-report.json"
        csv_path = self.results_dir / f"{self.name}-seed{self.seed}-report.csv"

        def work():
            rows = [(kind, key, ratio) for (kind, key), ratio in self.ratios.items()]
            aggregates = {}
            for kind in ("bb1", "bb2", "disk"):
                ratios = [ratio for k, _, ratio in rows if k == kind]
                aggregates[kind] = {
                    "max_ratio": max(ratios, default=0.0),
                    "median_ratio": float(np.median(ratios)) if ratios else 0.0,
                    "rows": len(ratios),
                }
            payload = {
                "schema_version": fileio.SCHEMA_VERSION,
                "command": "certify-corpus",
                "config": {"seed": self.seed, "tol": TOL},
                "aggregates": aggregates,
            }
            fileio.write_json(json_path, payload)
            fileio.write_csv_report(csv_path, ["kind", "key", "ratio"], rows)
            return len(rows), payload

        def check(outcome):
            rows, payload = outcome
            with open(json_path) as fh:
                if json.load(fh) != json.loads(json.dumps(payload)):
                    return ["report: JSON does not read back"]
            with open(csv_path, newline="") as fh:
                lines = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
            if len(lines) != rows + 1:
                return ["report: CSV row count differs"]
            return []

        return [Item("report", work, check)]


# -- mixed-solve ------------------------------------------------------------------


class MixedSolve(Workload):
    """Sum-space solves whose optimal split carries integrable (L1) mass."""

    name = "mixed-solve"
    tag = 2
    nominal_item_s = 2.1
    # One pool of ten: each frozen instance three times and one seeded field.
    # Wherever the seeded field's cost falls, the 5th of the ten ranked
    # latencies (p50) is a mixed_jitter_8 solve and the 9th (p90) a
    # mixed_flat_10 solve, so the mix cannot move either percentile.
    cycle_kinds = ["mixed_flat_8", "mixed_jitter_8", "mixed_flat_10"] * 3 + ["seeded"]
    BAND = 8
    POINTS = 32
    WEIGHT_SCALE = 5.0

    def __init__(self, seed, results_dir):
        super().__init__(seed, results_dir)
        frozen = {inst["name"]: inst for inst in oracle_instances()}
        mm = spectral.mode_matrix(1, self.BAND)
        freq = np.abs(mm[:, 0]).astype(float)
        weights = np.ones(len(mm))
        weights[freq > 0] = self.WEIGHT_SCALE * freq[freq > 0] ** -0.5
        coeffs = {
            (n,): 1.0 + 0.2 * self.rng.normal() for n in range(-self.BAND, self.BAND + 1) if n
        }
        field = SpectralField(1, self.BAND, coeffs, zero_mean=True)
        seeded = dict(name="seeded", field=field, s=-0.5, homogeneous=True,
                      weights=weights, points=self.POINTS, expected=None)
        items = {kind: self._item(seeded if kind == "seeded" else frozen[kind])
                 for kind in set(self.cycle_kinds)}
        self.items = [items[kind] for kind in _cycles(self.rng, self.cycle_kinds, 1)]

    def _item(self, inst):
        def check(split):
            problems = []
            if not split.gap <= TOL:
                problems.append(f"{inst['name']}: gap {split.gap}")
            if inst["expected"] is not None:
                if abs(split.value - inst["expected"]) > 1e-4:
                    problems.append(f"{inst['name']}: {split.value} vs oracle {inst['expected']}")
            else:
                f = inst["field"]
                bound = min(
                    self.WEIGHT_SCALE * norms.sobolev_norm(f, -0.5),
                    norms.l1_norm(spectral.inverse_transform(f, self.POINTS)),
                )
                if split.value > bound + TOL:
                    problems.append(f"seeded: {split.value} above feasible {bound}")
            return problems

        return Item(inst["name"], lambda: solve_instance(inst), check)


# -- operator-corpus ----------------------------------------------------------------


def _zero_mean_field(rng, dim, band):
    coeffs = {
        m: complex(rng.normal(), rng.normal()) for m in band_indices(dim, band) if any(m)
    }
    return SpectralField(dim, band, coeffs, zero_mean=True)


def _max_coefficient_gap(a: SpectralField, b: SpectralField) -> float:
    return max((v.norm() for v in (a - b).coeffs.values()), default=0.0)


class OperatorCorpus(Workload):
    """Multiplier, kernel, transform and decomposition round trips; no solver."""

    name = "operator-corpus"
    tag = 3
    nominal_item_s = 0.05
    # Five cheap 1-D items per 2-D item put the median in the middle of the
    # 1-D latencies and the p90 inside the 2-D ones, away from the gap between.
    cycle_kinds = ["op1"] * 5 + ["op2"]
    # 102 inputs, each timed about eight times in a 30 s run; ten lie beyond
    # the p90 (the 92nd), which falls among the 17 2-D items.
    CYCLES = 17
    SHAPES = {"op1": (1, 64, 16), "op2": (2, 16, 6)}  # dim, band, decomposition band

    def __init__(self, seed, results_dir):
        super().__init__(seed, results_dir)
        for kind in _cycles(self.rng, self.cycle_kinds, self.CYCLES):
            dim, band, dec_band = self.SHAPES[kind]
            g = _zero_mean_field(self.rng, dim, band)
            h = _zero_mean_field(self.rng, dim, dec_band)
            self.items.append(self._item(kind, g, h))

    def _item(self, kind, g, h):
        dim, band = g.dim, g.band

        def work():
            w = operators.invert_D2(g)
            dd = operators.dirac_D(operators.dirac_D(w))
            kernel = kernels.kernel_K_1d(band) if dim == 1 else kernels.kernel_K_nd(dim, band)
            via_kernel = spectral.convolve(kernel, g).scale(TWO_PI**-dim)
            round_trip = spectral.forward_transform(spectral.inverse_transform(g), band)
            parts = decomposition.solve_decomposition(h)
            return w, dd, via_kernel, round_trip, parts

        def check(outcome):
            w, dd, via_kernel, round_trip, parts = outcome
            problems = []
            residual = (dd - g).l2_coefficient_norm()
            if not residual <= 1e-10:
                problems.append(f"{kind}: D(D(invert_D2 g)) residual {residual:.3e}")
            kernel_gap = _max_coefficient_gap(via_kernel, w)
            if not kernel_gap <= 1e-10:
                problems.append(f"{kind}: kernel vs multiplier {kernel_gap:.3e}")
            trip = _max_coefficient_gap(round_trip, g)
            if not trip <= 1e-12:
                problems.append(f"{kind}: transform round trip {trip:.3e}")
            if not parts.residual <= 1e-10:
                problems.append(f"{kind}: decomposition residual {parts.residual:.3e}")
            return problems

        return Item(kind, work, check)

    def per_run_items(self):
        spec = kernels.KernelSpec(dim=2, band=4, kind="direction", direction=1)

        def check(scan):
            ratios = [row.ratio for row in scan.rows if row.ratio is not None]
            if scan.diverging or not all(r <= kernels.DIVERGENCE_RATIO for r in ratios):
                return [f"scan: sup ratios {ratios}"]
            return []

        return [Item("scan", lambda: kernels.sup_norm_scan(spec, [4, 8, 16, 32, 64]), check)]


WORKLOADS = {cls.name: cls for cls in (CertifyCorpus, MixedSolve, OperatorCorpus)}
