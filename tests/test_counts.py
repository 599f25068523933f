"""One rule for every count, size and index a caller passes: an int or numpy
integer, never a bool or a float, within the site's range; else InputError."""

import numpy as np
import pytest

from fracbb.clifford import MAX_GENERATORS, CliffordElement
from fracbb.disk import random_series, verify_bergman
from fracbb.errors import AliasingError, InputError
from fracbb.experiments import ExperimentConfig, bilinear_A, bilinear_A_diracs
from fracbb.fileio import load_grid_csv
from fracbb.kernels import (KernelSpec, dyadic_block_sum, dyadic_range, kernel_component_nd,
                            sup_norm_scan)
from fracbb.operators import riesz
from fracbb.spectral import GridField, SpectralField, inverse_transform

F2 = SpectralField(2, 2, {(1, 0): 1.0})

# name -> (call with the value, least, most or None, the stored int or None)
SITES = {
    "clifford generators": (lambda v: CliffordElement(v).n, 1, MAX_GENERATORS),
    "field dim": (lambda v: SpectralField(v, 2).dim, 1, MAX_GENERATORS),
    "field band": (lambda v: SpectralField(1, v).band, 1, None),
    "blade-vector band": (
        lambda v: SpectralField.from_blade_vectors(1, v, (0,), np.ones((1, 2 * int(v) + 1))).band,
        1, None),
    "grid dim": (lambda v: GridField(v, 4, {}).dim, 1, MAX_GENERATORS),
    "grid points": (lambda v: GridField(1, v, {}).points_per_axis, 2, None),
    "riesz axis": (lambda v: riesz(F2, v).dim, 1, 2),
    "kernel spec dim": (lambda v: KernelSpec(v, 4, "K").dim, 1, MAX_GENERATORS),
    "kernel spec band": (lambda v: KernelSpec(2, v, "K").band, 1, None),
    "kernel spec direction": (lambda v: KernelSpec(2, 4, direction=v).direction, 1, 2),
    "kernel component axis": (lambda v: kernel_component_nd(2, v, 4).dim, 1, 2),
    "dyadic level": (lambda v: dyadic_range(v)[1], 0, None),
    "dyadic block dim": (lambda v: dyadic_block_sum(v, 1, 1, 0, (0.5,) * int(v)), 1, None),
    "dyadic block axis": (lambda v: dyadic_block_sum(2, v, 1, 0, (0.5, 0.5)), 1, 2),
    "scan band": (lambda v: sup_norm_scan(KernelSpec(1, 1, "K"), [v]).rows[0].band, 1, None),
    "series order": (lambda v: random_series(v, 1.0, np.random.default_rng(0)).order, 0, None),
    "corpus size": (lambda v: len(verify_bergman(v, 1.0, 2, (0.9,), 1e-6, 0).rows), 1, None),
    "corpus order": (lambda v: verify_bergman(1, 1.0, v, (0.9,), 1e-6, 0).max_ratio, 0, None),
    "config dim": (lambda v: ExperimentConfig(dim=v, band=2).dim, 1, MAX_GENERATORS),
    "config band": (lambda v: ExperimentConfig(band=v).band, 1, None),
    "bilinear truncation": (lambda v: bilinear_A({1: 1.0}, {-1: 1.0}, v), 1, None),
    "dirac truncation": (lambda v: bilinear_A_diracs(1.0, 0.5, [v]).truncations[0], 1, None),
}
STORED = {"clifford generators", "field dim", "field band", "blade-vector band", "grid dim",
          "grid points", "kernel spec dim", "kernel spec band", "kernel spec direction",
          "scan band", "series order", "config dim", "config band", "dirac truncation"}


def _bad_values(least, most):
    yield 2.5
    yield True
    yield least - 1
    if most is not None:
        yield most + 1


@pytest.mark.parametrize("site", sorted(SITES))
def test_every_count_is_an_integer_in_range(site):
    call, least, most = SITES[site]
    for bad in _bad_values(least, most):
        with pytest.raises(InputError):
            call(bad)
    # A numpy integer counts, and the int is what is kept.
    got = call(np.int64(max(least, 2) if most is None else min(max(least, 2), most)))
    if site in STORED:
        assert type(got) is int


def test_grid_file_dimension_is_a_count(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("re_1,im_1\n1,0\n2,0\n")
    for bad in _bad_values(1, MAX_GENERATORS):
        with pytest.raises(InputError):
            load_grid_csv(path, bad)
    assert type(load_grid_csv(path, np.int64(1)).dim) is int


def test_inverse_transform_points_are_counts_and_too_few_alias():
    f = SpectralField(1, 4, {(1,): 1.0})
    for few in (8, 0, -1, True, 2.5):
        with pytest.raises(AliasingError):
            inverse_transform(f, few)
    with pytest.raises(InputError, match="points per axis must be an integer"):
        inverse_transform(f, 40.7)
    assert type(inverse_transform(f, np.int64(16)).points_per_axis) is int


def test_zero_dimensional_grids_and_fractional_axes_are_input_errors():
    # These raised IndexError, not InputError.
    with pytest.raises(InputError):
        GridField(0, 4, {})
    with pytest.raises(InputError):
        kernel_component_nd(2, 1.5, 4)
    with pytest.raises(InputError):
        verify_bergman(2.5, 1.0, 2, (0.9,), 1e-6, 0)
