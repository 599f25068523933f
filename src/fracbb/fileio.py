"""Coefficient JSON and grid CSV serialization, plus deterministic reports.

Coefficient files carry one entry per (frequency, blade) pair:

    {"dim": n, "band": N,
     "entries": [{"m": [m1, ..., mn], "alpha": [j1, ..., jk], "re": x, "im": y}]}

where ``alpha`` is the increasing Clifford basis subset (empty list = scalar
part).  Grid files are CSV, row-major over the grid, one (re, im) column pair
per Clifford basis element, with a header row naming the components.

All floating-point output uses 17 significant digits so values round-trip
bit-exactly, and entries are emitted in a canonical sorted order so identical
inputs produce identical bytes.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from typing import Iterable, Sequence

import numpy as np

from .clifford import MAX_GENERATORS, blade_label, mask_to_subset, subset_to_mask
from .errors import InputError, InvariantViolation, _count
from .spectral import GridField, SpectralField, _check_shape, _mode_positions, mode_list

SCHEMA_VERSION = 1


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def dumps_json(value, indent: int = 0) -> str:
    """JSON text with floats rendered via :func:`format_float`.

    Supports dict/list/str/bool/None/int/float trees; dict keys keep their
    insertion order (callers build them deterministically).  A non-finite
    float raises :class:`InvariantViolation`, since JSON has no spelling for it.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise InvariantViolation(f"non-finite value {value} cannot be written as JSON")
        return format_float(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {dumps_json(v, indent + 1)}"
            for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            return "[]"
        if all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in seq):
            return "[" + ", ".join(str(int(v)) for v in seq) + "]"
        items = ",\n".join(f"{inner}{dumps_json(v, indent + 1)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    raise InputError(f"cannot serialize value of type {type(value).__name__}")


def write_json(path, value) -> None:
    text = dumps_json(value)
    with open(path, "w") as fh:
        fh.write(text + "\n")


# -- coefficient files -------------------------------------------------------


def field_to_jsonable(field: SpectralField) -> dict:
    """One entry per nonzero ``data`` entry, read straight from the blade rows.

    Entries run over the modes in canonical order, then over the masks.  An
    entry is written where its value is nonzero; a ``-0.0`` part is written
    as such beside a nonzero one.
    """
    modes = mode_list(field.dim, field.band)
    subsets = [mask_to_subset(mask) for mask in field.masks]
    cols, rows = np.nonzero(field.data.T)
    entries = [
        {"m": list(modes[col]), "alpha": list(subsets[row]), "re": v.real, "im": v.imag}
        for col, row, v in zip(cols.tolist(), rows.tolist(), field.data[rows, cols].tolist())
    ]
    return {"dim": field.dim, "band": field.band, "entries": entries}


def save_coefficients(field: SpectralField, path) -> None:
    write_json(path, field_to_jsonable(field))


def field_from_jsonable(data: dict) -> SpectralField:
    """The field of coefficient-file data, read into blade rows.

    The entries of one mode and blade add up in file order, the first assigned
    and each later one added to it; the nonzero sums fill the rows.
    """
    try:
        dim, band = _integers((data["dim"], data["band"]))
        raw_entries = data["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed coefficient data: {exc}") from exc
    _check_shape(dim, band)  # before a mode table of the cube is built
    positions = _mode_positions(dim, band)
    sums: dict[tuple[int, int], complex] = {}  # (mask, column) -> sum
    for entry in raw_entries:
        try:
            m, subset = _integers(entry["m"]), _integers(entry["alpha"])
            value = complex(float(entry["re"]), float(entry["im"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed coefficient entry {entry!r}") from exc
        if not cmath.isfinite(value):
            raise InputError(f"non-finite coefficient in entry {entry!r}")
        col = positions.get(m)
        if col is None:
            raise InputError(f"frequency {m} outside the band-{band} cube of dimension {dim}")
        key = (subset_to_mask(subset, dim), col)
        sums[key] = sums[key] + value if key in sums else value
    masks = sorted({mask for mask, _ in sums})
    rows = np.zeros((len(masks), len(positions)), dtype=complex)
    for (mask, col), value in sums.items():
        rows[masks.index(mask), col] = value or 0j  # a zero sum, -0.0 parts too, is 0
    return SpectralField.from_blade_vectors(dim, band, masks, rows)


def _integers(values) -> tuple[int, ...]:
    """The entries of a frequency, blade or shape list; a non-integral number is a ValueError."""
    if any(isinstance(v, float) and not v.is_integer() for v in values):
        raise ValueError(f"non-integral index in {values!r}")
    return tuple(int(v) for v in values)


def _json_int(text: str):
    # format_float writes -0.0 as "-0", which JSON would read as the integer 0.
    return -0.0 if text == "-0" else int(text)


def load_coefficients(path) -> SpectralField:
    try:
        with open(path) as fh:
            data = json.load(fh, parse_int=_json_int)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read coefficient file {path}: {exc}") from exc
    return field_from_jsonable(data)


# -- grid files ---------------------------------------------------------------


def _label_to_mask(label: str, dim: int) -> int:
    if label == "1":
        return 0
    if not label.startswith("e"):
        raise InputError(f"unrecognized blade label {label!r}")
    return subset_to_mask(tuple(int(ch) for ch in label[1:]), dim)


def save_grid_csv(grid: GridField, path) -> None:
    header: list[str] = []
    for mask in grid.masks:
        label = blade_label(mask)
        header += [f"re_{label}", f"im_{label}"]
    # One row per grid point: the (re, im) pairs of its blades, bit for bit.
    cells = grid.data.reshape(len(grid.masks), -1).T.copy().view(float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in cells.tolist():
            writer.writerow([format_float(v) for v in row])


def load_grid_csv(path, dim: int) -> GridField:
    dim = _count(dim, "grid dimension", 1, MAX_GENERATORS)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [row for row in reader if row]
    except (OSError, StopIteration, csv.Error) as exc:
        raise InputError(f"cannot read grid file {path}: {exc}") from exc
    if len(header) % 2 != 0:
        raise InputError("grid CSV must have (re, im) column pairs")
    masks = []
    for col in range(0, len(header), 2):
        re_name, im_name = header[col], header[col + 1]
        if not re_name.startswith("re_") or not im_name.startswith("im_"):
            raise InputError(f"unexpected grid CSV columns {re_name!r}, {im_name!r}")
        if re_name[3:] != im_name[3:]:
            raise InputError(f"mismatched component pair {re_name!r}, {im_name!r}")
        mask = _label_to_mask(re_name[3:], dim)
        if mask in masks:
            raise InputError(f"repeated blade column pair {re_name!r}, {im_name!r}")
        masks.append(mask)
    count = len(rows)
    if count == 0:
        raise InputError(f"grid file {path} has no data rows")
    points = round(count ** (1.0 / dim))
    if points**dim != count:
        raise InputError(f"{count} grid rows do not form a cubic {dim}-D grid")
    if any(len(row) != len(header) for row in rows):
        raise InputError("grid CSV rows have inconsistent width")
    try:
        data = np.array([[float(v) for v in row] for row in rows], dtype=float)
    except ValueError as exc:
        raise InputError(f"non-numeric grid CSV cell: {exc}") from exc
    if not np.isfinite(data).all():
        raise InputError("grid CSV has a non-finite cell")
    # Each (re, im) column pair is one complex column, bit for bit, signed zeros too.
    planes = data.view(complex)
    shape = (points,) * dim
    comps = {mask: planes[:, i].reshape(shape) for i, mask in enumerate(masks)}
    return GridField(dim, points, comps)


# -- tabular reports ----------------------------------------------------------


def write_csv_report(
    path, header: Sequence[str], rows: Iterable[Sequence], config: dict | None = None
) -> None:
    """CSV with leading schema/config comment lines; floats at 17 digits."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema_version={SCHEMA_VERSION}\n")
        if config is not None:
            fh.write(f"# config={json.dumps(config, sort_keys=True)}\n")
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(
                [
                    format_float(v)
                    if isinstance(v, (float, np.floating))
                    else str(v)
                    for v in row
                ]
            )
