"""Command-line surface: build models, run the verification suite, and apply
transforms, convolutions and pairings to user data.

`verify --unitary` reads the file with `load_unitary` and hands the matrix
to `MultiplicativeUnitary.from_matrix`: an exact permutation matrix (entries
exactly 0 or 1, one 1 in every row and every column) is verified as a
permutation W, so unitarity and the pentagon are exact and report bound 0;
every other matrix is verified as a dense W.

Exit codes: 0 success, 1 a check failed (the first failing check is named on
stderr), 2 the source failed to load or validate.

Input files (unitaries, functions, Cayley tables) are strict JSON (RFC 8259),
parsed by orjson (`groups.read_json`): a NaN or Infinity token, or a number
beyond the double range, exits 2.

JSON numbers are written with 17 significant digits so doubles round-trip
losslessly, a row of Python floats through one % template; reports are
deterministic for a given seed apart from the elapsed-time fields.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain

import numpy as np

from . import fourier as ft
from . import models
from .engine import MultiplicativeUnitary
from .groups import (FiniteGroup, cyclic, dihedral, direct_product, load_group, read_json,
                     symmetric)
from .linalg import DEFAULT_TOL, as_complex_matrix
from .verify import DEFAULT_SEED, run_suite


def _fmt_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f'{pad}  {json.dumps(k)}: {_fmt_json(v, indent + 1)}'
                for k, v in value.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(type(v) is float for v in value):  # not bool, int or numpy scalars
            return ("[" + "%.17g, " * (len(value) - 1) + "%.17g]") % tuple(value)
        if all(isinstance(v, (bool, int, float, np.bool_, np.integer, np.floating))
               for v in value):
            return "[" + ", ".join(_fmt_json(v) for v in value) + "]"
        rows = [f"{pad}  {_fmt_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value)}")


def write_json(data: dict, out: str | None):
    text = _fmt_json(data) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def matrix_to_json(w: np.ndarray, n: int) -> dict:
    w = np.asarray(w, dtype=complex)
    return {"n": n, "re": w.real.tolist(), "im": w.imag.tolist()}


def load_unitary(path) -> np.ndarray:
    """Dense W import: JSON { "n": leg dimension, "re": [[...]], "im": [[...]] }
    for the n^2 x n^2 matrix in first-leg-major order.  The file is strict
    JSON (`read_json`): a NaN or Infinity token, or a number beyond the
    double range, is a ValueError, which `main` reports with exit code 2."""
    data = read_json(path)
    for key in ("n", "re", "im"):
        if not isinstance(data, dict) or key not in data:
            raise ValueError(f"{path}: missing field '{key}'")
    n = data["n"]
    if type(n) is not int or n < 1:  # bool is an int subclass; JSON true is not a dimension
        raise ValueError(f"{path}: field 'n' must be a positive integer, got {n!r}")
    for key in ("re", "im"):  # JSON numbers only: true is a bool, an object a dict
        rows = data[key]      # and rows of one length, so numpy sees a matrix
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)
                and len(set(map(len, rows))) <= 1
                and set(map(type, chain.from_iterable(rows))) <= {int, float}):
            raise ValueError(f"{path}: field '{key}' must be a matrix of JSON numbers")
    re = np.asarray(data["re"], dtype=float)
    im = np.asarray(data["im"], dtype=float)
    if re.shape != (n * n, n * n) or im.shape != (n * n, n * n):
        raise ValueError(f"{path}: expected an {n * n} x {n * n} matrix for leg "
                         f"dimension {n}")
    return as_complex_matrix(re + 1j * im)


def parse_group_spec(spec: str) -> FiniteGroup:
    """Grammar: cyclic:<n>, dihedral:<m>, s3, s4, product:<spec>x<spec>,
    or a Cayley-table file path."""
    if spec == "s3":
        return symmetric(3)
    if spec == "s4":
        return symmetric(4)
    if spec.startswith("cyclic:"):
        return cyclic(int(spec.split(":", 1)[1]))
    if spec.startswith("dihedral:"):
        return dihedral(int(spec.split(":", 1)[1]))
    if spec.startswith("product:"):
        rest = spec[len("product:"):]
        for i, ch in enumerate(rest):
            if ch != "x":
                continue
            try:
                left = parse_group_spec(rest[:i])
                right = parse_group_spec(rest[i + 1:])
            except (ValueError, OSError):
                continue
            return direct_product(left, right)
        raise ValueError(f"cannot parse product spec {spec!r}")
    return load_group(spec)


def cmd_verify(args) -> int:
    if args.group:
        source = models.build(parse_group_spec(args.group))
        name = source.group.name
    else:
        source = MultiplicativeUnitary.from_matrix(load_unitary(args.unitary))
        name = args.unitary
    report = run_suite(source, tol_value=args.tol, seed=args.seed, model_name=name)
    write_json(report.to_json_dict(), args.out)
    if report.first_failed is not None:
        note = next(c.note for c in report.checks if c.name == report.first_failed)
        print(f"first failing check: {report.first_failed}" + (f" ({note})" if note else ""),
              file=sys.stderr)
        return 1
    print(f"all {len(report.checks)} checks passed for {report.model}", file=sys.stderr)
    return 0


def cmd_fourier(args) -> int:
    model = models.build(parse_group_spec(args.group))
    values = models.load_function(args.function, model.n)
    if args.inverse:
        out = ft.inverse_fourier(model.qg, models.L(model, values))
        payload = models.function_to_json(np.diagonal(out))
    else:
        out = ft.fourier(model.qg, models.pi(model, values))
        payload = matrix_to_json(out, model.n)
        payload["coefficients"] = models.function_to_json(models.L_function(model, out))["values"]
    write_json(payload, args.out)
    return 0


def cmd_convolve(args) -> int:
    model = models.build(parse_group_spec(args.group))
    fa = models.load_function(args.a, model.n)
    fc = models.load_function(args.c, model.n)
    qg = model.qg
    if args.dual:
        first = ft.convolve_dual(qg, models.L(model, fa), models.L(model, fc))
        second = ft.convolve_dual_direct(qg, models.L(model, fa), models.L(model, fc))
        out_values = models.L_function(model, first)
    else:
        first = ft.convolve(qg, models.pi(model, fa), models.pi(model, fc))
        second = ft.convolve_direct(qg, models.pi(model, fa), models.pi(model, fc))
        out_values = models.pi_function(model, first)
    gap = float(np.max(np.abs(first - second)))
    if gap > args.tol:
        print(f"convolution routes disagree (deviation {gap:.3e})", file=sys.stderr)
        return 1
    payload = models.function_to_json(out_values)
    payload["route_deviation"] = gap
    write_json(payload, args.out)
    return 0


def cmd_pair(args) -> int:
    model = models.build(parse_group_spec(args.group))
    fa = models.load_function(args.a, model.n)
    fb = models.load_function(args.b, model.n)
    value = ft.pairing(model.qg, models.L(model, fb), models.pi(model, fa))
    group_sum = complex(np.sum(fa * fb))
    payload = {
        "via_inverse": [value.via_inverse.real, value.via_inverse.imag],
        "via_forward": [value.via_forward.real, value.via_forward.imag],
        "via_w": [value.via_w.real, value.via_w.imag],
        "group_sum": [group_sum.real, group_sum.imag],
        "spread": max(value.spread, abs(value.via_inverse - group_sum)),
    }
    write_json(payload, args.out)
    return 0


def cmd_dft_compare(args) -> int:
    model = models.build(parse_group_spec(args.group))
    cmp = models.dft_compare(model, models.load_function(args.function, model.n))
    payload = {
        "diagonal": models.function_to_json(cmp.diagonal)["values"],
        "character_sums": models.function_to_json(cmp.character_sums)["values"],
        "deviation": cmp.deviation,
    }
    write_json(payload, args.out)
    if cmp.deviation > args.tol:
        print(f"dft comparison deviates by {cmp.deviation:.3e}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgft",
        description="Quantum group Fourier engine: verify models, transform, "
                    "convolve and pair functions on finite groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the full verification suite")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--group", help="group spec (cyclic:<n>, dihedral:<m>, s3, s4, "
                                     "product:<spec>x<spec>, or a Cayley-table file)")
    src.add_argument("--unitary", help="multiplicative unitary JSON file (an exact "
                                       "permutation matrix is verified as a permutation W)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", help="report file (default: stdout)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("fourier", help="Fourier transform of a function")
    p.add_argument("--group", required=True)
    p.add_argument("--function", required=True, help="function JSON file")
    p.add_argument("--inverse", action="store_true",
                   help="map a coefficient function through the inverse transform")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_fourier)

    p = sub.add_parser("convolve", help="convolution product, checked on both routes")
    p.add_argument("--group", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--dual", action="store_true")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_convolve)

    p = sub.add_parser("pair", help="dual pairing along all three routes")
    p.add_argument("--group", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_pair)

    p = sub.add_parser("dft-compare", help="character-basis diagonal vs the DFT")
    p.add_argument("--group", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_dft_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tol = getattr(args, "tol", 0.0)
        if not 0.0 <= tol < float("inf"):  # also rejects NaN
            raise ValueError(f"--tol must be finite and non-negative, got {tol}")
        return args.fn(args)
    except (ValueError, OSError) as exc:  # includes CayleyTableError, NonAbelianInput
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
