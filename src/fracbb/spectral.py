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
the band silently.  Fourier multipliers and convolution are per-mode
Clifford products of two such arrays.

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
from collections.abc import Callable, ItemsView, Iterable, Iterator, Mapping, ValuesView
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .clifford import MAX_GENERATORS, CliffordElement, _blade_tables
from .errors import AliasingError, InputError

Index = tuple[int, ...]

#: Default grid oversampling factor (points per axis = OVERSAMPLE * band).
OVERSAMPLE = 4

TWO_PI = 2.0 * math.pi


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


@lru_cache(maxsize=128)
def mode_list(dim: int, band: int) -> tuple[Index, ...]:
    """Canonically ordered modes of the band cube (lexicographic).

    Only per-mode keys need these tuples (the dict constructor, ``get``, the
    coefficient views); array paths use :func:`mode_matrix`.
    """
    _check_shape(dim, band)
    return tuple(band_indices(dim, band))


@lru_cache(maxsize=128)
def _mode_positions(dim: int, band: int) -> dict[Index, int]:
    return {m: i for i, m in enumerate(mode_list(dim, band))}


@lru_cache(maxsize=128)
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


@lru_cache(maxsize=128)
def _wrapped_index_arrays(dim: int, band: int, points: int) -> tuple[np.ndarray, ...]:
    """Per-axis FFT-cube positions of each band mode, for gather/scatter."""
    mm = mode_matrix(dim, band)
    return tuple(np.mod(mm[:, ax], points).astype(np.intp) for ax in range(dim))


def _check_shape(dim: int, band: int) -> None:
    if not isinstance(dim, int) or not 1 <= dim <= MAX_GENERATORS:
        raise InputError(f"dimension must be an integer in [1, {MAX_GENERATORS}], got {dim!r}")
    if not isinstance(band, int) or band < 1:
        raise InputError(f"band must be a positive integer, got {band!r}")


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
    Fields are immutable values and ``data`` is read-only.

    ``zero_mean`` marks fields whose coefficient at ``m = 0`` is known to be
    zero; constructors enforce the invariant when the flag is set.
    """

    __slots__ = ("dim", "band", "masks", "data", "zero_mean")

    def __init__(
        self,
        dim: int,
        band: int,
        coeffs: Mapping | None = None,
        zero_mean: bool = False,
    ):
        _check_shape(dim, band)
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
        row = {mask: r for r, mask in enumerate(masks)}
        data = np.zeros((len(masks), len(positions)), dtype=complex)
        for col, comps in entries.items():
            for mask, value in comps.items():
                data[row[mask], col] = value
        self._assign(dim, band, tuple(masks), data, zero_mean)

    def _assign(self, dim, band, masks, data, zero_mean) -> None:
        """Store ``data`` (owned by the field from now on), dropping zero rows."""
        keep = [r for r in range(len(masks)) if data[r].any()]
        if not keep:
            masks, data = (0,), np.zeros((1, data.shape[1]), dtype=complex)
        elif len(keep) < len(masks):
            masks, data = tuple(masks[r] for r in keep), data[keep]
        if zero_mean and _mean_column(data).any():
            raise InputError("field flagged zero_mean has a nonzero coefficient at 0")
        data.flags.writeable = False
        self.dim, self.band, self.masks, self.data = dim, band, masks, data
        self.zero_mean = zero_mean

    @classmethod
    def from_blade_vectors(
        cls,
        dim: int,
        band: int,
        masks: Iterable[int],
        vectors: np.ndarray,
        zero_mean: bool = False,
    ) -> "SpectralField":
        """Field from per-blade coefficient rows aligned with ``mode_list``.

        ``vectors`` has shape ``(len(masks), modes)`` and is copied.
        """
        _check_shape(dim, band)
        masks = tuple(int(mask) for mask in masks)
        if len(set(masks)) != len(masks) or not all(0 <= mk < 1 << dim for mk in masks):
            raise InputError(f"blade masks {masks} are not distinct masks of C_{dim}")
        data = np.asarray(vectors, dtype=complex)
        if data.shape != (len(masks), (2 * band + 1) ** dim):
            raise InputError(f"coefficient array of shape {data.shape} does not fit "
                             f"{len(masks)} blades on band {band}")
        order = sorted(range(len(masks)), key=masks.__getitem__)
        data = data[order]  # a copy, in increasing mask order
        field = cls.__new__(cls)
        field._assign(dim, band, tuple(masks[r] for r in order), data, zero_mean)
        return field

    # -- read-only views -----------------------------------------------------

    @property
    def coeffs(self) -> "_CoefficientView":
        """Mapping from each nonzero mode to its Clifford coefficient."""
        return _CoefficientView(self)

    def get(self, m) -> CliffordElement:
        col = _mode_positions(self.dim, self.band).get(normalize_index(m, self.dim))
        if col is None:
            return CliffordElement.zero(self.dim)
        return _elements(self.dim, self.masks, self.data[:, col : col + 1])[0]

    def mean_coefficient(self) -> CliffordElement:
        return self.get((0,) * self.dim)

    def is_scalar(self) -> bool:
        """True when every coefficient has only a scalar (unit) component."""
        return self.masks == (0,)

    def scalar_coeffs(self) -> dict[Index, complex]:
        if not self.is_scalar():
            raise InputError("field has non-scalar Clifford components")
        view = self.coeffs
        return dict(zip(view, self.data[0, view.cols].tolist()))

    def blade_masks(self) -> tuple[int, ...]:
        return self.masks

    def blade_vectors(self) -> tuple[tuple[int, ...], np.ndarray]:
        """``(masks, data)``: the read-only per-blade rows aligned with ``mode_list``."""
        return self.masks, self.data

    # -- linear structure ----------------------------------------------------

    def _with(self, masks, data, zero_mean) -> "SpectralField":
        field = SpectralField.__new__(SpectralField)
        field._assign(self.dim, self.band, masks, data, zero_mean)
        return field

    def scale(self, factor: complex) -> "SpectralField":
        return self._with(self.masks, complex(factor) * self.data, self.zero_mean)

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
        return self._with(masks, data, self.zero_mean and other.zero_mean)

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
        return (
            f"SpectralField(dim={self.dim}, band={self.band}, "
            f"modes={len(self.coeffs)}, zero_mean={self.zero_mean})"
        )


class _CoefficientView(Mapping):
    """Read-only ``mode -> CliffordElement`` view of a field's nonzero modes.

    Iterates in canonical (lexicographic) mode order; within a mode only the
    nonzero blades appear.  Elements are built when read, by
    :func:`_elements`: ``values()`` and ``items()`` pass it the nonzero
    columns in chunks of ``_READ_CHUNK``, ``view[m]`` (like ``get`` and
    ``mean_coefficient``) a block of one column.
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

    def items(self) -> ItemsView:
        return _CoefficientItems(self)


class _CoefficientValues(ValuesView):
    """The elements of the nonzero modes, from one :func:`_elements` call per chunk of columns.

    A chunk's elements are built when the first of them is read, so a read
    that consumes them one by one holds at most ``_READ_CHUNK`` at a time.
    """

    __slots__ = ()

    def __iter__(self) -> Iterator[CliffordElement]:
        field, cols = self._mapping.field, self._mapping.cols
        dim, masks, data = field.dim, field.masks, field.data
        return itertools.chain.from_iterable(
            _elements(dim, masks, data[:, cols[start : start + _READ_CHUNK]])
            for start in range(0, len(cols), _READ_CHUNK)
        )


class _CoefficientItems(ItemsView):
    __slots__ = ()

    def __iter__(self) -> Iterator[tuple[Index, CliffordElement]]:
        return zip(self._mapping, self._mapping.values())


_READ_CHUNK = 4096  # columns per _elements call in a values() read


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
    points ``x_k = 2*pi*k/P``, shape ``(P,)*dim``, masks increasing.  Every
    plane given is kept, zero planes too (each is a grid CSV column pair);
    with none, one zero scalar plane.  ``data`` is read-only.
    """

    __slots__ = ("dim", "points_per_axis", "masks", "data")

    def __init__(self, dim: int, points_per_axis: int, comps: Mapping[int, np.ndarray]):
        if points_per_axis < 2:
            raise InputError("need at least 2 points per axis")
        shape = (int(points_per_axis),) * dim
        planes: dict[int, np.ndarray] = {}
        for mask, plane in comps.items():
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

    @classmethod
    def sample_scalar(cls, fn: Callable, dim: int, points_per_axis: int) -> "GridField":
        """Sample a scalar function of grid coordinates (vectorized callable)."""
        coords = grid_coordinates(dim, points_per_axis)
        return cls.from_scalar(np.asarray(fn(*coords), dtype=complex), dim)

    def magnitude(self) -> np.ndarray:
        """Pointwise Clifford coefficient norm, as a real array; squared and rooted in place."""
        power = np.abs(self.data)
        power **= 2
        total = power[0] if len(power) == 1 else power.sum(axis=0)
        return np.sqrt(total, out=total)

    def scalar_values(self) -> np.ndarray:
        if any(mask and plane.any() for mask, plane in zip(self.masks, self.data)):
            raise InputError("grid field has non-scalar Clifford components")
        return self.data[0] if self.masks[0] == 0 else np.zeros(self.data.shape[1:], complex)

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
    scatter into one zero cube owned by the pair.
    """
    shape = (points,) * dim
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
    if band < 1:
        raise InputError("band must be >= 1")
    forward, _ = _coupling(grid.dim, band, P, len(grid.masks))
    return SpectralField.from_blade_vectors(grid.dim, band, grid.masks, forward(grid.data))


def inverse_transform(field: SpectralField, points_per_axis: int | None = None) -> GridField:
    """Synthesis ``u(x_k) = sum_m u_hat(m) exp(i<m, x_k>)`` on the uniform grid."""
    P = default_points(field.band) if points_per_axis is None else int(points_per_axis)
    _check_grid_band(P, field.band)
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


def _mode_product(f: SpectralField, g: SpectralField, zero_mean: bool = False) -> SpectralField:
    """Per-mode Clifford product ``f_hat(m) * g_hat(m)``, with f on the left.

    Works on whole blade rows: rows ``a`` of f and ``b`` of g add
    ``sign(a, b) * f_a * g_b`` to row ``a ^ b`` of the result, in increasing
    order of ``a``.
    """
    f._require_compatible(g)
    sign = _blade_tables(f.dim)[0]
    masks = tuple(sorted({a ^ b for a in f.masks for b in g.masks}))
    data = np.zeros((len(masks), f.data.shape[1]), dtype=complex)
    for a, f_row in zip(f.masks, f.data):
        for b, g_row in zip(g.masks, g.data):
            term = f_row * g_row
            data[masks.index(a ^ b)] += term if sign[a, b] > 0 else -term
    return f._with(masks, data, zero_mean)


def convolve(f: SpectralField, g: SpectralField) -> SpectralField:
    """Coefficientwise convolution ``(2*pi)**n * f_hat(m) * g_hat(m)``.

    Clifford coefficients multiply in the order f then g; the order matters.
    """
    return _mode_product(f, g).scale(TWO_PI**f.dim)


def project_zero_mean(f: SpectralField) -> SpectralField:
    """Drop the ``m = 0`` coefficient and flag the result as zero-mean."""
    data = f.data.copy()
    _mean_column(data)[...] = 0
    return f._with(f.masks, data, True)
