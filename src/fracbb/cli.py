"""Unified command-line entry point.

Subcommands: transform, apply-op, kernel, norm, mixed-norm, verify-bb,
verify-bergman, bilinear-a, decompose.  Structured reports are JSON, per-item
tables are CSV; both carry a schema-version field and serialize floats with
17 significant digits.  Identical invocations produce identical bytes: output
rows are canonically ordered and no timestamps are written.

Exit codes: 0 success, 2 input error, 3 numerical non-convergence,
4 internal invariant violation.  Input errors include malformed or non-finite
coefficient and grid files, and experiment settings that cannot run.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from . import __version__
from .decomposition import solve_decomposition
from .disk import RADIUS_LADDER, verify_bergman
from .errors import ConvergenceError, InputError, InvariantViolation, ToolkitError
from .experiments import (
    ExperimentConfig,
    bilinear_A,
    bilinear_A_diracs,
    verify_bb,
)
from .fileio import (
    SCHEMA_VERSION,
    dumps_json,
    field_to_jsonable,
    load_coefficients,
    load_grid_csv,
    save_coefficients,
    save_grid_csv,
    write_csv_report,
    write_json,
)
from .kernels import KernelSpec, sup_norm_scan
from .norms import SumSpaceSplit, l1_norm, l2_norm, sobolev_norm, sum_space_norm
from .operators import (
    dirac_D,
    dirac_Dbar,
    fractional_laplacian,
    invert_D,
    invert_D2,
    riesz,
)
from .spectral import forward_transform, inverse_transform

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONCONVERGENCE = 3
EXIT_INVARIANT = 4


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {exc}")


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals: {exc}")


def _emit(report: dict, out_path: str | None) -> None:
    if out_path:
        write_json(out_path, report)
    else:
        sys.stdout.write(dumps_json(report) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracbb",
        description="Spectral toolkit for fractional multiplier calculus on the torus and disk",
    )
    parser.add_argument("--version", action="version", version=f"fracbb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="grid samples <-> Fourier coefficients")
    p.add_argument("--direction", choices=["forward", "inverse"], required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dim", type=int, help="dimension of the grid file (forward)")
    p.add_argument("--band", type=int, help="target band (forward)")
    p.add_argument("--points", type=int, help="points per axis (inverse; default 4N)")

    p = sub.add_parser("apply-op", help="apply a multiplier operator to a coefficient file")
    p.add_argument(
        "--op",
        choices=["fraclap", "riesz", "riesz-conj", "D", "Dbar", "invD", "invD2"],
        required=True,
    )
    p.add_argument("--s", type=float, help="exponent for fraclap")
    p.add_argument("--axis", type=int, default=1, help="axis for riesz variants")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", help="output path (coefficient JSON to stdout if omitted)")

    p = sub.add_parser("kernel", help="emit kernel coefficients and/or a sup scan")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--band", type=int, required=True)
    p.add_argument("--axis", type=int, default=1)
    p.add_argument("--kind", choices=["sawtooth", "K", "direction"], default="direction")
    p.add_argument("--scan-bands", type=_int_list, help="comma-separated bands to scan")
    p.add_argument("--out", help="coefficient JSON output path")
    p.add_argument("--report", help="scan report CSV path")

    p = sub.add_parser("norm", help="norms of a coefficient file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--kind", choices=["l1", "l2", "sobolev"], required=True)
    p.add_argument("--s", type=float, default=0.0, help="Sobolev exponent")
    p.add_argument("--homogeneous", action="store_true")
    p.add_argument("--points", type=int, help="quadrature grid (l1/l2; default 4N)")
    p.add_argument("--out")

    p = sub.add_parser("mixed-norm", help="sum-space norm by convex optimization")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--s", type=float, help="Sobolev exponent (default -dim/2)")
    p.add_argument("--homogeneous", action="store_true")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--points", type=int, help="grid for the integrable part")
    p.add_argument("--max-iterations", type=int, default=100,
                   help="cap on Newton steps (default 100)")
    p.add_argument("--out")
    p.add_argument("--dump-split", metavar="PREFIX", help="write the achieved split")

    p = sub.add_parser("verify-bb", help="empirical constant of the fractional inequality")
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--band", type=int, default=64)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--decay", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out-json")
    p.add_argument("--out-csv")

    p = sub.add_parser("verify-bergman", help="disk-inequality ratios over a random corpus")
    p.add_argument("--corpus-size", type=int, default=100)
    p.add_argument("--decay", type=float, default=1.0)
    p.add_argument("--order", type=int, default=32, help="series truncation order")
    p.add_argument("--radii", type=_float_list, default=list(RADIUS_LADDER))
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--out-json")

    p = sub.add_parser("bilinear-a", help="the bilinear pairing on sequences or point masses")
    p.add_argument("--a", type=float, help="first point-mass angle")
    p.add_argument("--b", type=float, help="second point-mass angle")
    p.add_argument("--truncations", type=_int_list, default=[10, 100, 1000, 10000])
    p.add_argument("--in1", help="coefficient JSON for the first sequence")
    p.add_argument("--in2", help="coefficient JSON for the second sequence")
    p.add_argument("--out")

    p = sub.add_parser("decompose", help="constructive Riesz-system decomposition")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--dim", type=int, help="expected dimension (validated against the file)")
    p.add_argument("--conjugated", dest="conjugated", action="store_true", default=True)
    p.add_argument("--plain", dest="conjugated", action="store_false")
    p.add_argument("--out-prefix", required=True)

    return parser


# -- handlers -------------------------------------------------------------------


def _cmd_transform(args) -> int:
    if args.direction == "forward":
        if args.dim is None or args.band is None:
            raise InputError("forward transform needs --dim and --band")
        grid = load_grid_csv(args.infile, args.dim)
        save_coefficients(forward_transform(grid, args.band), args.out)
    else:
        field = load_coefficients(args.infile)
        save_grid_csv(inverse_transform(field, args.points), args.out)
    return EXIT_OK


def _cmd_apply_op(args) -> int:
    field = load_coefficients(args.infile)
    if args.op == "fraclap" and args.s is None:
        raise InputError("fraclap needs --s")
    apply = {
        "fraclap": lambda u: fractional_laplacian(u, args.s),
        "riesz": lambda u: riesz(u, args.axis),
        "riesz-conj": lambda u: riesz(u, args.axis, conjugated=True),
        "D": dirac_D, "Dbar": dirac_Dbar, "invD": invert_D, "invD2": invert_D2,
    }[args.op]
    result = apply(field)
    if args.out:
        save_coefficients(result, args.out)
    else:
        sys.stdout.write(dumps_json(field_to_jsonable(result)) + "\n")
    return EXIT_OK


def _cmd_kernel(args) -> int:
    spec = KernelSpec(dim=args.dim, band=args.band, kind=args.kind, direction=args.axis)
    if not args.out and not args.report:
        raise InputError("kernel needs --out and/or --report")
    if args.out:
        save_coefficients(spec.build(), args.out)
    if args.report:
        if not args.scan_bands:
            raise InputError("--report needs --scan-bands")
        report = sup_norm_scan(spec, args.scan_bands)
        write_csv_report(
            args.report,
            ["band", "sup", "ratio"],
            [
                (row.band, row.sup, "" if row.ratio is None else row.ratio)
                for row in report.rows
            ],
            config={
                "dim": args.dim,
                "kind": args.kind,
                "axis": args.axis,
                "scan_bands": args.scan_bands,
            },
        )
    return EXIT_OK


def _cmd_norm(args) -> int:
    field = load_coefficients(args.infile)
    if args.kind == "sobolev":
        value = sobolev_norm(field, args.s, homogeneous=args.homogeneous)
    else:
        grid = inverse_transform(field, args.points)
        value = l1_norm(grid) if args.kind == "l1" else l2_norm(grid)
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "norm",
            "config": {
                "in": str(args.infile),
                "kind": args.kind,
                "s": args.s,
                "homogeneous": bool(args.homogeneous),
                "points": args.points,
            },
            "value": float(value),
        },
        args.out,
    )
    return EXIT_OK


def _cmd_mixed_norm(args) -> int:
    field = load_coefficients(args.infile)
    split = sum_space_norm(
        field,
        s=args.s,
        homogeneous=args.homogeneous,
        tol=args.tol,
        points_per_axis=args.points,
        max_iterations=args.max_iterations,
    )
    if args.dump_split:
        save_coefficients(
            forward_transform(split.g, field.band), f"{args.dump_split}_g_coeffs.json"
        )
        save_grid_csv(split.g, f"{args.dump_split}_g.csv")
        save_coefficients(split.h, f"{args.dump_split}_h.json")
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "mixed-norm",
            "config": {
                "in": str(args.infile),
                "s": -field.dim / 2.0 if args.s is None else args.s,
                "homogeneous": bool(args.homogeneous),
                "tol": args.tol,
                "points": args.points,
            },
            "value": split.value,
            "gap": split.gap,
            "iterations": split.iterations,
            "path": split.path,
        },
        args.out,
    )
    return EXIT_OK


def _cmd_verify_bb(args) -> int:
    # The config's fields are the command's options, and the report echoes them.
    options = (f.name for f in dataclasses.fields(ExperimentConfig))
    cfg = ExperimentConfig(**{name: getattr(args, name) for name in options})
    report = verify_bb(cfg)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify-bb",
        "config": dataclasses.asdict(cfg),
        "aggregates": {
            "max_ratio": report.max_ratio,
            "median_ratio": report.median_ratio,
            **report.ratio_quantiles(),
            "failures": len(report.failures),
            "failure_rate": report.failure_rate,
            "samples_completed": len(report.rows),
        },
    }
    _emit(payload, args.out_json)
    if args.out_csv:
        header = ["id", "lhs", "rhs", "ratio"] + [f"gap_{j}" for j in range(cfg.dim + 1)]
        write_csv_report(
            args.out_csv,
            header,
            [
                (row.sample_id, row.lhs, row.rhs, row.ratio, *row.gaps)
                for row in report.rows
            ],
            config=payload["config"],
        )
    return EXIT_OK


def _cmd_verify_bergman(args) -> int:
    config_echo = {
        "corpus_size": args.corpus_size,
        "decay": args.decay,
        "order": args.order,
        "radii": [float(r) for r in args.radii],
        "tol": args.tol,
        "seed": args.seed,
    }
    report = verify_bergman(**config_echo)
    write_csv_report(
        args.out,
        ["series_id", "r", "bergman", "l1", "hminushalf", "mixed", "ratio"],
        [
            (series_id, row.r, row.bergman, row.l1, row.hminushalf, row.mixed, row.ratio)
            for series_id, row in report.rows
        ],
        config=config_echo,
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify-bergman",
        "config": config_echo,
        "aggregates": {
            "max_ratio": report.max_ratio,
            "mean_weight_convention_ratio": report.mean_weight_convention_ratio,
        },
    }
    if args.out_json:
        write_json(args.out_json, payload)
    return EXIT_OK


def _cmd_bilinear_a(args) -> int:
    if args.in1 or args.in2:
        if not (args.in1 and args.in2):
            raise InputError("sequence mode needs both --in1 and --in2")
        if not args.truncations or min(args.truncations) < 1:
            raise InputError("truncations must be positive integers")
        f1 = load_coefficients(args.in1)
        f2 = load_coefficients(args.in2)
        if not all(f.dim == 1 and f.is_scalar() for f in (f1, f2)):
            raise InputError("bilinear pairing takes scalar circle coefficient files")
        g1, g2 = (dict(zip(range(-f.band, f.band + 1), f.data[0].tolist())) for f in (f1, f2))
        truncation = max(args.truncations)
        value = bilinear_A(g1, g2, truncation)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "bilinear-a",
            "config": {"truncation": truncation},
            "value": {"re": value.real, "im": value.imag},
        }
    else:
        if args.a is None or args.b is None:
            raise InputError("point-mass mode needs --a and --b (or --in1/--in2)")
        trace = bilinear_A_diracs(args.a, args.b, args.truncations)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "bilinear-a",
            "config": {"a": args.a, "b": args.b, "truncations": list(trace.truncations)},
            "partial_sums": list(trace.partial_sums),
            "sup_partial": trace.sup_partial,
            "limit": trace.limit,
        }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    field = load_coefficients(args.infile)
    if args.dim is not None and args.dim != field.dim:
        raise InputError(f"--dim {args.dim} does not match file dimension {field.dim}")
    result = solve_decomposition(field, conjugated_riesz=args.conjugated)
    for j, part in enumerate(result.parts):
        save_coefficients(part, f"{args.out_prefix}_part{j}.json")
    write_json(
        f"{args.out_prefix}_report.json",
        {
            "schema_version": SCHEMA_VERSION,
            "command": "decompose",
            "config": {
                "in": str(args.infile),
                "conjugated": bool(args.conjugated),
                "dim": field.dim,
                "band": field.band,
            },
            "residual": result.residual,
            "sobolev_norms": list(result.sobolev_norms),
            "sup_norms": list(result.sup_norms),
            "bound_ratio": result.bound_ratio,
            "sum_ratio": result.sum_ratio,
        },
    )
    return EXIT_OK


_HANDLERS = {
    "transform": _cmd_transform,
    "apply-op": _cmd_apply_op,
    "kernel": _cmd_kernel,
    "norm": _cmd_norm,
    "mixed-norm": _cmd_mixed_norm,
    "verify-bb": _cmd_verify_bb,
    "verify-bergman": _cmd_verify_bergman,
    "bilinear-a": _cmd_bilinear_a,
    "decompose": _cmd_decompose,
}


def _error_report(kind: str, message: str, **extra) -> None:
    sys.stderr.write(dumps_json({"error": kind, "message": message, **extra}) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except InputError as exc:
        _error_report("input", str(exc))
        return EXIT_INPUT
    except ConvergenceError as exc:
        split = exc.partial
        extra = {}
        # An overflowed partial has no JSON form; the message still says why.
        if isinstance(split, SumSpaceSplit) and math.isfinite(split.value + split.gap):
            extra = dict(value=split.value, gap=split.gap, iterations=split.iterations)
        _error_report("non-convergence", str(exc), **extra)
        return EXIT_NONCONVERGENCE
    except InvariantViolation as exc:
        _error_report("invariant-violation", str(exc))
        return EXIT_INVARIANT
    except ToolkitError as exc:
        _error_report("internal", str(exc))
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
