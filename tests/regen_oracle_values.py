"""Regenerate the frozen sum-space oracle values in frozen_values.py.

Run from the repository root:

    python3 tests/regen_oracle_values.py

Each instance is solved by the independent projected-subgradient oracle with
a long iteration budget; the resulting values are frozen into the test suite
so the regular test run stays fast.  Regeneration takes about ten minutes.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from oracles import sum_space_subgradient  # noqa: E402

from fracbb.spectral import SpectralField, mode_matrix  # noqa: E402

SUBGRADIENT_ITERATIONS = 2_500_000
SUBGRADIENT_STEP = 0.5


def independent_weights(mm: np.ndarray, s: float, homogeneous: bool, scale: float = 1.0):
    """Per-mode weights W with W**2 the Sobolev weight, built from scratch.

    Written out explicitly (not shared with the library) so a weight-table
    bug on either side cannot cancel.
    """
    norms = np.sqrt((mm.astype(float) ** 2).sum(axis=1))
    if homogeneous:
        mask = norms > 0
        w = np.ones(len(mm))
        w[mask] = scale * norms[mask] ** s
        return w, mask
    return scale * (1.0 + norms**2) ** (s / 2.0), np.ones(len(mm), dtype=bool)


def oracle_instances() -> list[dict]:
    """The ten frozen instances.

    Four decaying random circle fields probe the Sobolev-only regime, two
    one-sided series probe the inhomogeneous convention, one small torus
    field probes dimension two, and three scaled-weight instances force a
    genuinely mixed optimum so the integrable branch of the solver is
    exercised against the oracle.
    """
    rng = np.random.default_rng(20240817)
    instances = []
    for i, decay in enumerate([0.6, 1.0, 1.0, 1.5]):
        band = 4 + (i % 2) * 2
        coeffs = {
            (n,): (rng.normal() + 1j * rng.normal()) * abs(n) ** -decay
            for n in range(-band, band + 1)
            if n
        }
        instances.append(
            dict(
                name=f"circle_hom_{i}",
                dim=1,
                band=band,
                coeffs=coeffs,
                s=-0.5,
                homogeneous=True,
                weight_scale=1.0,
                points=4 * band,
            )
        )
    for i in range(2):
        band = 5
        coeffs = {
            (n,): (rng.normal() + 1j * rng.normal()) * max(n, 1) ** -0.75
            for n in range(0, band + 1)
        }
        instances.append(
            dict(
                name=f"circle_inhom_{i}",
                dim=1,
                band=band,
                coeffs=coeffs,
                s=-0.5,
                homogeneous=False,
                weight_scale=1.0,
                points=4 * band,
            )
        )
    band = 2
    coeffs = {}
    for m1 in range(-band, band + 1):
        for m2 in range(-band, band + 1):
            if (m1, m2) != (0, 0):
                coeffs[(m1, m2)] = (rng.normal() + 1j * rng.normal()) * (
                    m1 * m1 + m2 * m2
                ) ** -0.5
    instances.append(
        dict(
            name="torus_hom",
            dim=2,
            band=band,
            coeffs=coeffs,
            s=-1.0,
            homogeneous=True,
            weight_scale=1.0,
            points=4 * band,
        )
    )
    # Scaled-weight instances: with the Sobolev side five times more
    # expensive, the optimal split carries genuine integrable mass.
    instances.append(
        dict(
            name="mixed_flat_8",
            dim=1,
            band=8,
            coeffs={(n,): 1.0 for n in range(-8, 9) if n},
            s=-0.5,
            homogeneous=True,
            weight_scale=5.0,
            points=32,
        )
    )
    jitter = np.random.default_rng(5)
    instances.append(
        dict(
            name="mixed_jitter_8",
            dim=1,
            band=8,
            coeffs={(n,): 1.0 + 0.2 * jitter.normal() for n in range(-8, 9) if n},
            s=-0.5,
            homogeneous=True,
            weight_scale=5.0,
            points=32,
        )
    )
    instances.append(
        dict(
            name="mixed_flat_10",
            dim=1,
            band=10,
            coeffs={(n,): 1.0 for n in range(-10, 11) if n},
            s=-0.5,
            homogeneous=True,
            weight_scale=5.0,
            points=40,
        )
    )
    return instances


def instance_field(inst: dict) -> SpectralField:
    return SpectralField(
        inst["dim"], inst["band"], inst["coeffs"], zero_mean=inst["homogeneous"]
    )


def instance_weight_array(inst: dict) -> np.ndarray | None:
    """Solver-side weights; None for the default convention."""
    if inst["weight_scale"] == 1.0:
        return None
    w, _ = independent_weights(
        mode_matrix(inst["dim"], inst["band"]),
        inst["s"],
        inst["homogeneous"],
        inst["weight_scale"],
    )
    return w


def main() -> None:
    lines = [
        '"""Frozen expected values generated by regen_oracle_values.py.',
        "",
        "Sum-space norms of the ten oracle instances, computed by the independent",
        f"projected-subgradient solver ({SUBGRADIENT_ITERATIONS} iterations,",
        f"step {SUBGRADIENT_STEP}/sqrt(t)).",
        '"""',
        "",
        "SUBGRADIENT_VALUES = {",
    ]
    for inst in oracle_instances():
        f = instance_field(inst)
        fvec = f.data
        weight, h_mask = independent_weights(
            mode_matrix(inst["dim"], inst["band"]),
            inst["s"],
            inst["homogeneous"],
            inst["weight_scale"],
        )
        value = sum_space_subgradient(
            fvec[0],
            mode_matrix(inst["dim"], inst["band"]),
            weight,
            h_mask,
            inst["points"],
            SUBGRADIENT_ITERATIONS,
            step0=SUBGRADIENT_STEP,
        )
        print(f"{inst['name']}: {value:.12f}", flush=True)
        lines.append(f'    "{inst["name"]}": {value!r},')
    lines.append("}")
    out = pathlib.Path(__file__).parent / "frozen_values.py"
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
