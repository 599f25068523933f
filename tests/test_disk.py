import functools
import math

import numpy as np
import pytest

from fracbb import disk, norms, spectral
from fracbb.disk import (
    RADIUS_LADDER,
    PowerSeries,
    bbb_ratio,
    bergman_norm,
    boundary_trace,
    dilate,
    disk_boundary_weights,
    hminus_half_boundary_norm,
    mixed_boundary_norm,
    random_series,
    verify_bergman,
)
from fracbb.errors import ConvergenceError, InputError
from fracbb.norms import l1_norm, sobolev_norm, sum_space_norm
from fracbb.spectral import SpectralField, inverse_transform

from oracles import bergman_norm_quadrature

SQRT_PI = math.sqrt(math.pi)


def test_bergman_norm_closed_forms():
    assert bergman_norm(PowerSeries([1.0])) == pytest.approx(SQRT_PI, abs=1e-15)
    assert bergman_norm(PowerSeries([0.0, 1.0])) == pytest.approx(math.sqrt(math.pi / 2))
    assert bergman_norm(PowerSeries([1.0, 1.0])) == pytest.approx(
        math.sqrt(math.pi + math.pi / 2)
    )


def test_bergman_norm_matches_polar_quadrature():
    rng = np.random.default_rng(0)
    for _ in range(5):
        series = PowerSeries(rng.normal(size=6) + 1j * rng.normal(size=6))
        assert bergman_norm(series) == pytest.approx(
            bergman_norm_quadrature(series.coeffs), abs=1e-6
        )


def test_dilate():
    f = PowerSeries([0.0, 0.0, 1.0])
    assert dilate(f, 1.0).coeffs[2] == 1.0
    assert dilate(f, 0.5).coeffs[2] == pytest.approx(0.25)
    with pytest.raises(InputError):
        dilate(f, 0.0)
    with pytest.raises(InputError):
        dilate(f, 1.5)


def test_dilation_monotone_in_radius_with_abel_limit():
    rng = np.random.default_rng(1)
    for _ in range(10):
        f = PowerSeries(rng.normal(size=8) + 1j * rng.normal(size=8))
        radii = [0.3, 0.6, 0.9, 1.0]
        values = [bergman_norm(dilate(f, r)) for r in radii]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        # finitely supported series: the dilation norms converge to the norm
        assert abs(bergman_norm(dilate(f, 0.9999)) - bergman_norm(f)) < 1e-2
        assert values[-1] == pytest.approx(bergman_norm(f))


def test_boundary_trace():
    f = PowerSeries([1.0])
    trace = boundary_trace(f, 0.7)
    assert abs(trace.coeffs[(0,)].p0() - 1.0) < 1e-15
    fz = PowerSeries([0.0, 1.0])
    assert abs(boundary_trace(fz, 0.5).coeffs[(1,)].p0() - 0.5) < 1e-15
    rng = np.random.default_rng(2)
    f = PowerSeries(rng.normal(size=5))
    trace = boundary_trace(f, 0.9)
    for n in range(-trace.band, 0):
        assert (n,) not in trace.coeffs


def test_hminus_half_boundary_norm():
    assert hminus_half_boundary_norm(PowerSeries([1.0]), 0.3) == 1.0
    assert hminus_half_boundary_norm(PowerSeries([0.0, 1.0]), 0.5) == pytest.approx(
        math.sqrt(1.0 / 8.0)
    )


def test_bergman_equals_sqrt_pi_times_boundary_norm():
    # The closed forms agree exactly: bergman(f_r)**2 == pi * hminus(f, r)**2.
    rng = np.random.default_rng(3)
    for _ in range(50):
        f = PowerSeries(rng.normal(size=10) + 1j * rng.normal(size=10))
        r = float(rng.uniform(0.05, 1.0))
        lhs = bergman_norm(dilate(f, r)) ** 2
        rhs = math.pi * hminus_half_boundary_norm(f, r) ** 2
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_mixed_boundary_norm_bounds():
    rng = np.random.default_rng(4)
    f = random_series(12, 1.0, rng)
    r = 0.9
    tol = 1e-7
    split = mixed_boundary_norm(f, r, tol=tol)
    hm = hminus_half_boundary_norm(f, r)
    trace = boundary_trace(f, r)
    l1 = l1_norm(inverse_transform(trace))
    assert split.value <= hm + tol
    assert split.value <= l1 + tol
    assert split.gap >= 0.0


def test_mixed_boundary_norm_zero_series():
    split = mixed_boundary_norm(PowerSeries([0.0]), 0.9)
    assert split.value == 0.0


def test_bbb_ratio_report():
    rng = np.random.default_rng(5)
    f = random_series(16, 1.0, rng)
    report = bbb_ratio(f, radii=(0.9, 0.99), tol=1e-7)
    assert len(report.rows) == 2
    for row in report.rows:
        assert math.isfinite(row.ratio)
        assert row.bergman == pytest.approx(SQRT_PI * row.hminushalf, rel=1e-12)
    assert report.max_ratio >= SQRT_PI - 1e-6
    assert report.weight_convention_ratio > 0


def test_bbb_ratio_constant_series():
    report = bbb_ratio(PowerSeries([2.0]), radii=(0.9,), tol=1e-8)
    row = report.rows[0]
    # Pure-Sobolev split is optimal for a constant, so the ratio is sqrt(pi).
    assert row.ratio == pytest.approx(SQRT_PI, abs=1e-6)


def _ratio_row_reference(f, r, tol):
    """One radius's row and convention ratio, from one-radius formulas written out."""
    n = np.arange(len(f.coeffs))
    dilated = f.coeffs * r**n
    bergman = math.sqrt(2.0 * math.pi * float(((np.abs(dilated) ** 2) / (2 * n + 2)).sum()))
    band = max(f.order, 1)
    row = np.zeros((1, 2 * band + 1), dtype=complex)
    row[0, band : band + len(f.coeffs)] = f.coeffs * np.array([r**k for k in range(len(n))])
    row[row == 0] = 0
    trace = SpectralField.from_blade_vectors(1, band, (0,), row)
    hm = math.sqrt(float(((np.abs(f.coeffs) ** 2) * r ** (2 * n) / (1 + n)).sum()))
    mixed = sum_space_norm(
        trace, s=-0.5, homogeneous=False, tol=tol, weights=disk_boundary_weights(band)
    ).value
    section = sobolev_norm(trace, -0.5, homogeneous=False)
    values = (r, bergman, l1_norm(inverse_transform(trace)), hm, mixed)
    return values + (bergman / mixed if mixed > 0 else math.inf,), hm / section


@pytest.mark.parametrize("order, decay", [(0, 1.0), (8, 0.5), (24, 1.0), (40, -1.0)])
def test_bbb_ratio_ladder_matches_each_radius_alone(order, decay):
    # The stacked ladder gives every row, bit for bit, what the formulas of
    # one radius give it.
    f = random_series(order, decay, np.random.default_rng([order, 3]))
    radii = RADIUS_LADDER + (1.0, 0.3)
    report = bbb_ratio(f, radii=radii)
    expected = [_ratio_row_reference(f, r, 1e-6) for r in radii]
    for row, (values, _) in zip(report.rows, expected):
        got = (row.r, row.bergman, row.l1, row.hminushalf, row.mixed, row.ratio)
        assert [float(v).hex() for v in got] == [v.hex() for v in values]
    assert report.weight_convention_ratio == float(np.mean([c for _, c in expected]))
    assert report.max_ratio == max(row.ratio for row in report.rows)
    # The one-radius functions are one-radius calls of the same ladder.
    for r, (values, _) in zip(radii, expected):
        assert bergman_norm(dilate(f, r)).hex() == values[1].hex()
        assert hminus_half_boundary_norm(f, r).hex() == values[3].hex()
        assert mixed_boundary_norm(f, r).value.hex() == values[4].hex()


def _split_bits(split):
    return (split.value.hex(), split.gap.hex(), split.iterations, split.path, split.g.masks,
            split.h.masks, split.g.data.tobytes(), split.h.data.tobytes())


def test_bbb_ratio_rows_that_iterate_match_each_radius_alone(monkeypatch):
    # With the closed form settling nothing, every radius iterates from its
    # trace row and gives what its own solve gives; under a one-step cap the
    # ladder raises the first radius's own error and partial split.
    closed_form = norms._closed_form
    monkeypatch.setattr(
        norms, "_closed_form", lambda *args: [(False, found) for _, found in closed_form(*args)]
    )
    f = random_series(8, 1.0, np.random.default_rng([8, 3]))
    radii = (0.9, 0.999, 1.0)
    report = bbb_ratio(f, radii=radii)
    for row, r in zip(report.rows, radii):
        split = mixed_boundary_norm(f, r)
        assert split.path == "interior-point"
        assert (row.mixed.hex(), row.ratio.hex()) == (
            split.value.hex(), (bergman_norm(dilate(f, r)) / split.value).hex())
    monkeypatch.setattr(
        disk, "_sum_space_rows", functools.partial(norms._sum_space_rows, max_iterations=1)
    )
    with pytest.raises(ConvergenceError) as ladder:
        bbb_ratio(f, radii=radii)
    with pytest.raises(ConvergenceError) as alone:
        sum_space_norm(boundary_trace(f, radii[0]), s=-0.5, homogeneous=False,
                       weights=disk_boundary_weights(8), max_iterations=1)
    assert str(ladder.value) == str(alone.value)
    assert _split_bits(ladder.value.partial) == _split_bits(alone.value.partial)


def test_boundary_weight_tables_are_checked_once_per_band():
    tables = disk._boundary_tables(12)
    assert disk._boundary_tables(12) is tables
    for table, expected in zip(tables, norms._weights_for(1, 12, -0.5, False,
                                                          disk_boundary_weights(12))):
        assert table.tobytes() == expected.tobytes() and not table.flags.writeable


def test_bbb_ratio_of_no_radii_and_of_a_bad_radius():
    f = random_series(8, 1.0, np.random.default_rng(2))
    report = bbb_ratio(f, radii=())
    assert report.rows == () and report.max_ratio == 0.0
    assert report.weight_convention_ratio == 1.0
    for radii in ((0.9, 1.5), (0.0,), (0.9, -0.5, 0.99), (math.nan,)):
        with pytest.raises(InputError, match="radius must lie in"):
            bbb_ratio(f, radii=radii)


def test_szego_type_growth_finite_ratio():
    order = 24
    f = PowerSeries(np.ones(order + 1))
    report = bbb_ratio(f, radii=(0.99,), tol=1e-6)
    assert math.isfinite(report.rows[0].ratio)
    assert report.rows[0].ratio > 0


def test_disk_boundary_weights():
    w = disk_boundary_weights(3)
    assert w.shape == (7,)
    assert w[3] == 1.0  # mode 0
    assert w[4] == pytest.approx(2.0**-0.5)  # mode 1
    assert w[0] == pytest.approx(0.5)  # mode -3


def test_disk_boundary_weights_are_cached_and_read_only():
    w = disk_boundary_weights(3)
    assert disk_boundary_weights(3) is w
    with pytest.raises(ValueError):
        w[0] = 2.0


def test_hardy_embedding_empirical_constant_recorded():
    # ||f||_{L2(D)} <= C ||f||_{L1(S1)}: no closed constant exists, so the
    # corpus maximum is recorded and only finiteness is asserted.
    rng = np.random.default_rng(9)
    measured = []
    for _ in range(20):
        f = random_series(16, 1.0, rng)
        for r in (0.9, 0.99):
            trace = boundary_trace(f, r)
            l1 = l1_norm(inverse_transform(trace))
            measured.append(bergman_norm(dilate(f, r)) / l1)
    c_emp = max(measured)
    assert math.isfinite(c_emp) and c_emp > 0


def test_random_series_decay_law():
    rng = np.random.default_rng(7)
    f = random_series(20, 1.5, rng)
    mags = np.abs(f.coeffs)
    n = np.arange(21)
    assert np.allclose(mags, np.maximum(n, 1) ** -1.5, atol=1e-12)


@pytest.mark.parametrize("order, decay", [(-1, 1.0), (24, -300.0), (24, -150.0)])
def test_random_series_rejects_series_that_cannot_run(order, decay):
    # An empty series has ratio inf; 24**300 overflows to a non-finite
    # coefficient, and 24**150 is finite but its square overflows.
    with pytest.raises(InputError):
        random_series(order, decay, np.random.default_rng(0))


def test_verify_bergman_is_bbb_ratio_over_seeded_draws():
    radii = (0.9, 0.99)
    report = verify_bergman(corpus_size=3, order=8, decay=1.0, radii=radii, tol=1e-6, seed=4)
    rng = np.random.default_rng(4)
    per_series = [bbb_ratio(random_series(8, 1.0, rng), radii, tol=1e-6) for _ in range(3)]
    assert report.rows == tuple((k, row) for k, rep in enumerate(per_series) for row in rep.rows)
    assert report.max_ratio == max(rep.max_ratio for rep in per_series)
    assert report.mean_weight_convention_ratio == pytest.approx(
        np.mean([rep.weight_convention_ratio for rep in per_series]), rel=1e-15
    )


@pytest.mark.parametrize("decay", [-12.0, -30.0, -100.0])
def test_huge_boundary_traces_certify_in_closed_form_within_roundoff(decay):
    # Boundary values of 1e15 and more: the closed-form gap is a few units in
    # the last place of the value, which tol 1e-6 cannot meet but which is
    # only roundoff.  The gap is reported as computed.
    f = random_series(24, decay, np.random.default_rng(0))
    gaps = []
    for r in RADIUS_LADDER:
        split = mixed_boundary_norm(f, r)
        assert (split.path, split.iterations) == ("closed-form", 0)
        assert split.gap <= 16 * math.ulp(split.value)
        gaps.append(split.gap)
    assert max(gaps) > 1e-6


@pytest.mark.parametrize("seed", [-1, 2.5, True])
def test_verify_bergman_seeds_must_be_non_negative_integers(seed):
    with pytest.raises(InputError, match="seed must be an integer"):
        verify_bergman(corpus_size=1, decay=1.0, order=4, radii=[0.9], tol=1e-6, seed=seed)


def test_series_orders_past_the_cell_cap_are_refused_before_any_draw():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(InputError, match="more than"):
        random_series(10**11, 1.0, rng)
    assert rng.bit_generator.state == state
    with pytest.raises(InputError, match="more than"):
        verify_bergman(corpus_size=1, decay=1.0, order=10**11, radii=[0.9], tol=1e-6, seed=0)


def test_verify_bergman_refuses_an_oversized_grid_before_any_draw(monkeypatch):
    # With the cap at 2**12 cells, order 1025 passes random_series' check
    # (1026 coefficients) but not bbb_ratio's default grid of 4 * 1025 points.
    draws = []

    def spied(*args):
        draws.append(args)
        return random_series(*args)

    monkeypatch.setattr(spectral, "MAX_GRID_CELLS", 2**12)
    monkeypatch.setattr(disk, "random_series", spied)
    with pytest.raises(InputError, match="a grid of 4100 points"):
        verify_bergman(corpus_size=1, decay=1.0, order=1025, radii=[0.9], tol=1e-6, seed=0)
    assert draws == []
    verify_bergman(corpus_size=1, decay=1.0, order=1024, radii=[0.9], tol=1e-6, seed=0)
    assert len(draws) == 1
