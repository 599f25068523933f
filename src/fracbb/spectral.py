"""Band-limited spectral fields on the n-torus and uniform-grid counterparts.

Fourier coefficients follow the ``(2*pi)**-n`` forward normalization

    u_hat(m) = (2*pi)**-n * integral_{T^n} u(x) exp(-i<m, x>) dx,

so synthesis is the plain sum ``u(x) = sum_m u_hat(m) exp(i<m, x>)`` and the
uniform-grid quadrature of the forward integral reduces to an FFT divided by
the point count.  The quadrature is exact (to roundoff) for fields whose band
fits the grid, which requires ``P >= 2*N + 1`` points per axis.

A field stores its coefficients as one dense complex array with a row per
Clifford blade and a column per mode of the band cube, in the canonical
order of :func:`mode_list`; grid samples are one array with a plane per
blade.  Truncation is a hard cube ``|m_j| <= N`` and no operation extends
the band silently.  Every Fourier multiplier and convolution is one
per-mode Clifford product of blade rows, :func:`_mode_product`, whose right
operand may be a stack of fields.  A new field drops its zero rows in one
pass.

The transform pair :func:`_coupling`, used by the public transforms and the
sum-space solver alike, is realized in one of two ways, chosen from the band
and the grid alone.  While the per-axis DFT matrix ``E[k, m] = exp(-i m x_k)
/ P`` has at most 128 * 65 entries (the default grid of band 32), both maps
are dense matmuls, one per axis, with the matrices cached per ``(band, P)``;
the band cube is lexicographic, so no gather or scatter is needed.  Larger
grids run one FFT per axis with a gather, and a scatter into one zero cube
reused by the pair.  On small grids numpy call overhead, not arithmetic, sets
the cost: on a 2-CPU machine a forward/adjoint pair at 32 points and band 8
took 4-8 us as matmuls, 17-30 us as per-axis FFTs and 45-52 us as ``fftn``
with gather and scatter, while past the rule the matmuls lose (1-D, 512
points, band 128: 3 times the FFTs; 2-D, 128 points, band 63: 1.3 times).
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Iterable, Iterator, Mapping, ValuesView
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .clifford import MAX_GENERATORS, CliffordElement, _blade_product
from .errors import AliasingError, InputError, _count

Index = tuple[int, ...]

#: Default grid oversampling factor (points per axis = OVERSAMPLE * band).
OVERSAMPLE = 4

TWO_PI = 2.0 * math.pi

#: Most entries of a band cube, a grid or a series; a complex array of 2**26 is 1 GiB.
MAX_GRID_CELLS = 2**26


def freq_norm(m: Index) -> float:
    """Euclidean norm of a frequency tuple."""
    return math.sqrt(sum(mj * mj for mj in m))


def normalize_index(m, dim: int) -> Index:
    if isinstance(m, (int, np.integer)):
        m = (int(m),)
    else:
        try:
            m = tuple(int(mj) for mj in m)
        except (TypeError, ValueError, OverflowError):
            raise InputError(f"frequency index {m!r} is not an integer tuple") from None
    if len(m) != dim:
        raise InputError(f"frequency index {m} has wrong dimension (expected {dim})")
    return m


def band_indices(dim: int, band: int) -> Iterator[Index]:
    """All lattice points of the symmetric cube ``|m_j| <= band``."""
    return itertools.product(range(-band, band + 1), repeat=dim)


@lru_cache(maxsize=128, typed=True)  # typed: a 4.0 or True never finds band 4's or 1's table
def mode_list(dim: int, band: int) -> tuple[Index, ...]:
    """Canonically ordered modes of the band cube (lexicographic).

    Only per-mode keys need these tuples (the dict constructor, the
    coefficient views, the coefficient-file reader and writer); array paths
    use :func:`mode_matrix`.
    """
    _check_shape(dim, band)
    return tuple(band_indices(dim, band))


@lru_cache(maxsize=128)
def _mode_positions(dim: int, band: int) -> dict[Index, int]:
    return {m: i for i, m in enumerate(mode_list(dim, band))}


@lru_cache(maxsize=128, typed=True)
def mode_matrix(dim: int, band: int) -> np.ndarray:
    """Integer (modes, dim) array of the band cube in canonical order.

    The rows of :func:`mode_list`, built from ``np.indices`` without its
    tuples.  Shared cached storage; treat as read-only.
    """
    _check_shape(dim, band)
    modes = np.ascontiguousarray(np.indices((2 * band + 1,) * dim, np.int64).reshape(dim, -1).T)
    modes -= band
    return modes


def _mean_column(rows: np.ndarray) -> np.ndarray:
    """View of rows' ``m = 0`` entries, the band cube's centre; a mean's square can underflow."""
    return rows[..., rows.shape[-1] // 2]


def _require_zero_mean(rows: np.ndarray, what: str) -> None:
    """An input error naming ``what`` unless the coefficient rows ``rows`` have no mean."""
    if _mean_column(rows).any():
        raise InputError(f"{what} requires a zero-mean field (nonzero coefficient at m = 0)")


@lru_cache(maxsize=128)
def _wrapped_index_arrays(dim: int, band: int, points: int) -> tuple[np.ndarray, ...]:
    """Per-axis FFT-cube positions of each band mode, for gather/scatter."""
    mm = mode_matrix(dim, band)
    return tuple(np.mod(mm[:, ax], points).astype(np.intp) for ax in range(dim))


def _check_shape(dim: int, band: int) -> tuple[int, int]:
    """``(dim, band)`` as ints, a band cube within ``MAX_GRID_CELLS``; else an input error."""
    dim, band = _count(dim, "dimension", 1, MAX_GENERATORS), _count(band, "band", 1)
    _check_size((2 * band + 1) ** dim, f"the mode cube of band {band} in dimension {dim}")
    return dim, band


def _check_size(size: int, what: str) -> None:
    """An input error if ``what``, an array of ``size`` entries, exceeds ``MAX_GRID_CELLS``."""
    if size > MAX_GRID_CELLS:
        raise InputError(f"{what} needs {size} entries, more than {MAX_GRID_CELLS}")


def _grid_shape(dim: int, points: int) -> tuple[int, ...]:
    """``(points,) * dim``, the shape of a grid within ``MAX_GRID_CELLS``."""
    _check_size(points**dim, f"a grid of {points} points per axis in dimension {dim}")
    return (points,) * dim


def grid_coordinates(dim: int, points: int) -> tuple[np.ndarray, ...]:
    """Meshgrid coordinate arrays ``x_k = 2*pi*k/P`` with 'ij' indexing."""
    axis = np.arange(points) * (TWO_PI / points)
    if dim == 1:
        return (axis,)
    return tuple(np.meshgrid(*([axis] * dim), indexing="ij"))


class SpectralField:
    """Band-limited Clifford-valued field stored as one dense coefficient array.

    ``data[r, k]`` is the component along blade ``masks[r]`` of the coefficient
    at mode ``mode_list(dim, band)[k]``.  Only blades with a nonzero entry get
    a row (``masks == (0,)`` for the zero field), in increasing mask order.
    Fields are immutable values and ``data`` is read-only; a field holds
    nothing else.  One mode's coefficient is read through :attr:`coeffs`.

    ``zero_mean`` is read from ``data``: true when the coefficient at ``m =
    0`` is zero.  The constructors' ``zero_mean=True`` is an input check.
    """

    __slots__ = ("dim", "band", "masks", "data")

    def __init__(self, dim: int, band: int, coeffs: Mapping | None = None, zero_mean: bool = False):
        dim, band = _check_shape(dim, band)
        positions = _mode_positions(dim, band)
        entries: dict[int, Mapping[int, complex]] = {}
        for m, value in (coeffs or {}).items():
            # A key equal to a mode tuple finds its column; others are normalized.
            col = positions.get(m) if isinstance(m, tuple) else None
            if col is None:
                m = normalize_index(m, dim)
                if any(abs(mj) > band for mj in m):
                    raise InputError(f"frequency {m} outside band {band}")
                col = positions[m]
            if not isinstance(value, CliffordElement):
                value = complex(value)
                if value:
                    entries[col] = {0: value}
            elif value.n != dim:
                raise InputError(f"coefficient at {mode_list(dim, band)[col]} lives in "
                                 f"C_{value.n}, field needs C_{dim}")
            elif value.comps:
                entries[col] = value.comps
        masks = sorted({mask for comps in entries.values() for mask in comps})
        data = np.zeros((len(masks), len(positions)), dtype=complex)
        for col, comps in entries.items():
            for mask, value in comps.items():
                data[masks.index(mask), col] = value
        if zero_mean:
            _require_zero_mean(data, "the zero_mean flag")
        self._assign(dim, band, tuple(masks), data)

    def _assign(self, dim, band, masks, data) -> None:
        """Store ``data`` (owned by the field from now on), dropping zero rows in one pass."""
        keep = data.any(axis=1).tolist()  # a few flags: Python's any and all are faster
        if not any(keep):
            masks, data = (0,), np.zeros((1, data.shape[1]), dtype=complex)
        elif not all(keep):
            masks, data = tuple(itertools.compress(masks, keep)), data[keep]
        data.flags.writeable = False
        self.dim, self.band, self.masks, self.data = dim, band, masks, data

    @classmethod
    def from_blade_vectors(cls, dim: int, band: int, masks: Iterable[int], vectors: np.ndarray,
                           zero_mean: bool = False) -> "SpectralField":
        """Field from per-blade coefficient rows aligned with ``mode_list``.

        ``vectors`` has shape ``(len(masks), modes)`` and is copied.
        """
        dim, band = _check_shape(dim, band)
        masks = tuple(int(mask) for mask in masks)
        if len(set(masks)) != len(masks) or not all(0 <= mk < 1 << dim for mk in masks):
            raise InputError(f"blade masks {masks} are not distinct masks of C_{dim}")
        data = np.asarray(vectors, dtype=complex)
        if data.shape != (len(masks), (2 * band + 1) ** dim):
            raise InputError(f"coefficient array of shape {data.shape} does not fit "
                             f"{len(masks)} blades on band {band}")
        if zero_mean:
            _require_zero_mean(data, "the zero_mean flag")
        order = sorted(range(len(masks)), key=masks.__getitem__)
        return cls._of(dim, band, tuple(masks[r] for r in order), data[order])

    @classmethod
    def _of(cls, dim, band, masks, data) -> "SpectralField":
        """Field owning ``data``, rows of the increasing ``masks`` of C_dim; unchecked."""
        field = cls.__new__(cls)
        field._assign(dim, band, masks, data)
        return field

    # -- read-only views -----------------------------------------------------

    @property
    def coeffs(self) -> "_CoefficientView":
        """Mapping from each nonzero mode to its Clifford coefficient."""
        return _CoefficientView(self)

    @property
    def zero_mean(self) -> bool:
        """True when the coefficient at ``m = 0`` is zero."""
        return not _mean_column(self.data).any()

    def is_scalar(self) -> bool:
        """True when every coefficient has only a scalar (unit) component."""
        return self.masks == (0,)

    # -- linear structure ----------------------------------------------------

    def _with(self, masks, data) -> "SpectralField":
        return SpectralField._of(self.dim, self.band, masks, data)

    def scale(self, factor: complex) -> "SpectralField":
        return self._with(self.masks, complex(factor) * self.data)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return self._combine(other, other.data)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return self._combine(other, -other.data)

    def _combine(self, other: "SpectralField", other_data: np.ndarray) -> "SpectralField":
        """``self + other`` with ``other``'s rows replaced by ``other_data``."""
        self._require_compatible(other)
        masks = tuple(sorted(set(self.masks) | set(other.masks)))
        data = np.zeros((len(masks), self.data.shape[1]), dtype=complex)
        data[[masks.index(mask) for mask in self.masks]] = self.data
        data[[masks.index(mask) for mask in other.masks]] += other_data
        return self._with(masks, data)

    def _require_compatible(self, other: "SpectralField") -> None:
        if self.dim != other.dim:
            raise InputError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.band != other.band:
            raise InputError(f"band mismatch: {self.band} vs {other.band}")

    # -- norms ---------------------------------------------------------------

    def l2_coefficient_norm(self) -> float:
        """Plain coefficient norm ``sqrt(sum ||u_hat(m)||**2)``."""
        return float(np.linalg.norm(self.data))

    def __repr__(self) -> str:
        return (f"SpectralField(dim={self.dim}, band={self.band}, modes={len(self.coeffs)}, "
                f"zero_mean={self.zero_mean})")


class _CoefficientView(Mapping):
    """Read-only ``mode -> CliffordElement`` view of a field's nonzero modes.

    Iterates in canonical (lexicographic) mode order; within a mode only the
    nonzero blades appear.  Elements are built when read, by
    :func:`_elements`: ``values()`` passes it the nonzero columns, ``view[m]``
    (and so ``get`` and ``items()``) a block of one column.
    """

    __slots__ = ("field", "cols")

    def __init__(self, field: SpectralField):
        self.field = field
        self.cols = np.flatnonzero(field.data.any(axis=0))

    def __len__(self) -> int:
        return len(self.cols)

    def __iter__(self) -> Iterator[Index]:
        modes = mode_list(self.field.dim, self.field.band)
        return (modes[col] for col in self.cols.tolist())

    def __getitem__(self, m) -> CliffordElement:
        field = self.field
        col = _mode_positions(field.dim, field.band).get(m)
        if col is None or not field.data[:, col].any():
            raise KeyError(m)
        return _elements(field.dim, field.masks, field.data[:, col : col + 1])[0]

    def values(self) -> ValuesView:
        return _CoefficientValues(self)


class _CoefficientValues(ValuesView):
    """The elements of the nonzero modes, from one :func:`_elements` call."""

    __slots__ = ()

    def __iter__(self) -> Iterator[CliffordElement]:
        field = self._mapping.field
        return iter(_elements(field.dim, field.masks, field.data[:, self._mapping.cols]))


def _elements(dim: int, masks: tuple[int, ...], block: np.ndarray) -> list[CliffordElement]:
    """The elements of the columns of ``block``, shaped ``(len(masks), k)``, in order.

    Every per-mode read builds its elements here, from one ``tolist`` of the
    block and one of its nonzero pattern (a ``bool`` cast, false at ``-0.0``
    too).  The dicts fill blade by blade, in mask order, each blade passing
    ``compress`` only its nonzero entries, so none is tested in Python.
    """
    rows = block.tolist()
    comps = [{} for _ in rows[0]]
    for mask, row, nonzero in zip(masks, rows, block.astype(bool).tolist()):
        for clean, z in itertools.compress(zip(comps, row), nonzero):
            clean[mask] = z
    return CliffordElement._of_each(dim, comps)


class GridField:
    """Samples of a Clifford-valued function on the uniform torus grid.

    ``data[r]`` is the plane of blade ``masks[r]``: the values at the grid
    points ``x_k = 2*pi*k/P``, shape ``(P,)*dim``, masks increasing in [0, 2**dim).  Every
    plane given is kept, zero planes too (each is a grid CSV column pair);
    with none, one zero scalar plane.  ``data`` is read-only.
    """

    __slots__ = ("dim", "points_per_axis", "masks", "data")

    def __init__(self, dim: int, points_per_axis: int, comps: Mapping[int, np.ndarray]):
        dim = _count(dim, "dimension", 1, MAX_GENERATORS)
        shape = (_count(points_per_axis, "points per axis", 2),) * dim
        planes: dict[int, np.ndarray] = {}
        for mask, plane in comps.items():
            if not 0 <= int(mask) < 1 << dim:
                raise InputError(f"blade mask {mask} out of range for C_{dim}")
            plane = np.asarray(plane, dtype=complex)
            if plane.shape != shape:
                raise InputError(f"plane for blade {mask} has shape {plane.shape}, expected {shape}")
            planes[int(mask)] = plane
        planes = planes or {0: np.zeros(shape, dtype=complex)}
        masks = tuple(sorted(planes))
        data = np.array([planes[mask] for mask in masks])
        data.flags.writeable = False
        self.dim, self.points_per_axis, self.masks, self.data = dim, shape[0], masks, data

    @classmethod
    def _of(cls, dim: int, points: int, masks: tuple[int, ...], data: np.ndarray) -> "GridField":
        """Field owning ``data``, the planes of the increasing ``masks``, unchecked."""
        grid = cls.__new__(cls)
        data.flags.writeable = False
        grid.dim, grid.points_per_axis, grid.masks, grid.data = dim, points, masks, data
        return grid

    @property
    def comps(self) -> Mapping[int, np.ndarray]:
        """Read-only mapping from each blade mask to its plane."""
        return MappingProxyType(dict(zip(self.masks, self.data)))

    @classmethod
    def from_scalar(cls, values: np.ndarray, dim: int | None = None) -> "GridField":
        values = np.asarray(values, dtype=complex)
        dim = values.ndim if dim is None else dim
        if values.ndim != dim:
            raise InputError(f"scalar samples have {values.ndim} axes, expected {dim}")
        return cls(dim, values.shape[0], {0: values})

    def magnitude(self) -> np.ndarray:
        """Pointwise Clifford coefficient norm, as a real array; squares summed in place."""
        total = np.abs(self.data[0])
        total **= 2
        power = None
        for plane in self.data[1:]:  # sum(axis=0)'s order, two planes alive at a time
            power = np.abs(plane, out=power)
            power **= 2
            total += power
        return np.sqrt(total, out=total)

    def quadrature_weight(self) -> float:
        return (TWO_PI / self.points_per_axis) ** self.dim

    def __repr__(self) -> str:
        return (
            f"GridField(dim={self.dim}, points_per_axis={self.points_per_axis}, "
            f"blades={list(self.masks)})"
        )


def _check_grid_band(points: int, band: int) -> None:
    if points < 2 * band + 1:
        raise AliasingError(
            f"grid with {points} points per axis cannot represent band {band}; "
            f"need at least {2 * band + 1}"
        )


def default_points(band: int) -> int:
    """Default grid size for a given band: ``OVERSAMPLE * band``, at least ``2*band + 1``."""
    return max(OVERSAMPLE * band, 2 * band + 1)


#: Largest per-axis DFT matrix, ``P * (2N + 1)`` entries, that the transform
#: pair applies densely; past it one FFT per axis is faster.  128 * 65 is the
#: matrix of the default grid of band 32.
_DENSE_MAX_ENTRIES = 128 * 65


@lru_cache(maxsize=32)
def _dft_matrices(band: int, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis analysis matrix ``E[k, m] = exp(-i m x_k) / P`` and ``E^H``.

    ``E`` has shape ``(P, 2N+1)`` with modes in increasing order; the phase
    ``m * k`` is reduced modulo ``P`` in integers, so every entry is accurate
    to roundoff.  Shared cached storage; treat as read-only.
    """
    phase = np.outer(np.arange(points), np.arange(-band, band + 1)) % points
    analysis = np.exp(phase * (-1j * TWO_PI / points)) / points
    synthesis = np.ascontiguousarray(analysis.conj().T)
    analysis.flags.writeable = synthesis.flags.writeable = False
    return analysis, synthesis


def _coupling(dim: int, band: int, points: int, *lead: int):
    """The transform pair: the analysis map ``A`` and its adjoint ``A*``.

    ``A`` maps grid planes ``lead + (P,)*dim`` to coefficient rows ``lead +
    (modes,)``: the uniform-grid quadrature ``fftn / P**n`` restricted to the
    band.  ``A*`` is its adjoint, ``P**-n`` times the synthesis.  ``lead`` is
    ``(blades,)`` for one field and ``(fields, blades)`` for a stack of
    fields, which runs as one batch of the single-field products, so every
    field gets the bits of its own call.  Up to ``_DENSE_MAX_ENTRIES`` entries
    of the per-axis DFT matrix both apply the cached matrices, one matmul per
    axis; larger grids run one FFT per axis, in the order ``fftn`` uses, and
    scatter into one zero cube owned by the pair.  A grid of more than
    ``MAX_GRID_CELLS`` cells is an input error.
    """
    shape = _grid_shape(dim, points)
    width = 2 * band + 1
    if points * width <= _DENSE_MAX_ENTRIES:
        analysis, synthesis = _dft_matrices(band, points)
        # One matrix product per field: a field's first product is a
        # matrix-vector one when it has one row, and BLAS rounds that kernel
        # differently from the matrix-matrix one.
        per_field = lead[:-1] + (-1,)

        def forward(planes: np.ndarray) -> np.ndarray:
            # The last axis first; then each earlier axis, with the modes of
            # the axes already done as a trailing block.
            out = planes.reshape(per_field + (points,)) @ analysis
            for done in range(1, dim):
                out = analysis.T @ out.reshape(-1, points, width**done)
            return out.reshape(lead + (-1,))

        def adjoint(rows: np.ndarray) -> np.ndarray:
            out = rows.reshape(per_field + (width,)) @ synthesis
            for done in range(1, dim):
                out = synthesis.T @ out.reshape(-1, width, points**done)
            return out.reshape(lead + shape)

        return forward, adjoint

    index = (slice(None),) * len(lead) + _wrapped_index_arrays(dim, band, points)
    axes = range(-1, -dim - 1, -1)
    cell_count = points**dim
    cube = np.zeros(lead + shape, dtype=complex)

    def forward(planes: np.ndarray) -> np.ndarray:
        for axis in axes:
            planes = np.fft.fft(planes, axis=axis)
        return planes[index] / cell_count

    def adjoint(rows: np.ndarray) -> np.ndarray:
        cube[index] = rows
        out = cube
        for axis in axes:
            out = np.fft.ifft(out, axis=axis)
        return out

    return forward, adjoint


def forward_transform(grid: GridField, band: int) -> SpectralField:
    """Fourier coefficients of grid samples by uniform-grid quadrature.

    Exact to roundoff for band-limited inputs; raises ``AliasingError`` when
    the grid is too coarse for the requested band.
    """
    P = grid.points_per_axis
    _check_grid_band(P, band)
    _, band = _check_shape(grid.dim, band)
    forward, _ = _coupling(grid.dim, band, P, len(grid.masks))
    return SpectralField._of(grid.dim, band, grid.masks, forward(grid.data))


def inverse_transform(field: SpectralField, points_per_axis: int | None = None) -> GridField:
    """Synthesis ``u(x_k) = sum_m u_hat(m) exp(i<m, x_k>)`` on the uniform grid."""
    P = default_points(field.band) if points_per_axis is None else points_per_axis
    if isinstance(P, numbers.Real):  # too few points, a bool or a fraction too, is aliasing
        _check_grid_band(P, field.band)
    P = _count(P, "points per axis", 2 * field.band + 1)
    planes = _synthesis(field.data, field.dim, field.band, P)
    return GridField._of(field.dim, P, field.masks, planes)


def _synthesis(rows: np.ndarray, dim: int, band: int, points: int) -> np.ndarray:
    """Grid planes ``lead + (P,)*dim`` of coefficient rows ``lead + (modes,)``.

    ``lead`` is ``(blades,)`` for one field or ``(fields, blades)`` for a
    stack (see :func:`_coupling`).
    """
    _, adjoint = _coupling(dim, band, points, *rows.shape[:-1])
    out = adjoint(rows)
    out *= points**dim  # in place: the same product, one plane set fewer
    return out


#: The 0 a blade's first product term is added to; a Python 0 costs a conversion per call.
_ZERO = np.zeros((), dtype=complex)


def _mode_product(f_masks, f_rows, g_masks, g_rows) -> tuple[tuple[int, ...], np.ndarray]:
    """Per-mode Clifford product ``(masks, rows)`` of blade rows, ``f`` on the left.

    ``g_rows`` may be a stack ``(..., blades, modes)``.  Rows ``a`` of f and
    ``b`` of g give ``sign(a, b) * f_a * g_b`` to blade ``a ^ b``, in order of
    ``a``, then ``b``: a blade's first term is added to 0 (a ``-0.0`` part
    becomes ``0.0``) and each later one to it.
    """
    masks = sorted({a ^ b for a in f_masks for b in g_masks})
    out = np.empty(g_rows.shape[:-2] + (len(masks), g_rows.shape[-1]), dtype=complex)
    started = set()
    for a, f_row in zip(f_masks, f_rows):
        for r, b in enumerate(g_masks):
            sign, blade = _blade_product(a, b)
            target = out[..., masks.index(blade), :]
            add = np.add if sign > 0 else np.subtract
            add(target if blade in started else _ZERO, f_row * g_rows[..., r, :], out=target)
            started.add(blade)
    return tuple(masks), out


def _field_product(f: SpectralField, g: SpectralField) -> SpectralField:
    """The field of :func:`_mode_product` of two fields' rows, ``f`` on the left."""
    f._require_compatible(g)
    return f._with(*_mode_product(f.masks, f.data, g.masks, g.data))


def convolve(f: SpectralField, g: SpectralField) -> SpectralField:
    """Coefficientwise convolution ``(2*pi)**n * f_hat(m) * g_hat(m)``.

    Clifford coefficients multiply in the order f then g; the order matters.
    """
    return _field_product(f, g).scale(TWO_PI**f.dim)


def project_zero_mean(f: SpectralField) -> SpectralField:
    """Drop the ``m = 0`` coefficient."""
    data = f.data.copy()
    _mean_column(data)[...] = 0
    return f._with(f.masks, data)
