"""Command-line interface.

Each ``_cmd_*`` returns its document: a dict, written as JSON, or text.
``cli_dispatch`` alone writes it: to stdout, ending it with a newline if
it has none, or byte for byte to the ``--out`` file.

Exit codes: 0 success, 1 usage problem, 2 data problem (unreadable or
malformed files, degenerate datasets, failed solves).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .bayes_lp import DEFAULT_PRIOR_SD, assemble_bayes_region, build_lp, solve_lp
from .closed_form import _BUILDERS, js_test
from .latin3 import (_latin_order, build_latin_region, cyclic_latin, normalize_corner,
                     rejects3, square_from_json)
from .mediation import DataError, _read_columns, load_csv, product_method_stats
from .pvalues import benjamini_hochberg, bonferroni, minimax_pvalue
from .regions import (_DEGENERATE, RegionFormatError, RegionValidationError, deserialize,
                      rejection_prob_at_point, serialize)
from .simulate import (SimSpec, _csv, sample_sobel_density, simulate_power,
                       simulate_pvalue_ecdf)
from .statmath import _alpha

__all__ = ["cli_dispatch", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")

    def _parse_optional(self, arg_string):
        # A dash-led string that starts no option of this parser is a value,
        # such as -1e-3, -inf or -0.5,1,2, so an option expecting one takes
        # it instead of failing with "expected one argument".
        name = arg_string.split("=", 1)[0]
        if name[:1] == "-" and not any(o.startswith(name) for o in self._option_string_actions):
            return None
        return super()._parse_optional(arg_string)


def _echo(value: float) -> float | str:
    """An input value for standard JSON: +-inf become "inf"/"-inf"."""
    return value if math.isfinite(value) else repr(value)


def _floats(text: str, flag: str, form: str) -> tuple[float, ...]:
    """The comma-separated numbers of ``text``, as many as ``form`` shows:
    'X,Y' two, 'Z1,Z2,Z3' three, and 'X,...' one or more (empty items skipped)."""
    parts = text.split(",")
    if form.endswith(",..."):
        parts = [v for v in parts if v.strip()]
        counted = len(parts) >= 1
    else:
        counted = len(parts) == form.count(",") + 1
    if not counted:
        raise _UsageError(f"{flag} expects '{form}', got {text!r}")
    try:
        return tuple(map(float, parts))
    except ValueError:
        raise _UsageError(f"{flag} expects numbers, got {text!r}") from None


def _names(text: str) -> list[str]:
    """The comma-separated names of ``text``, stripped like CSV header names."""
    return [name for name in map(str.strip, text.split(",")) if name]


def _cmd_region_build(args) -> str:
    return serialize(_BUILDERS[args.method](args.alpha))


def _load_region(path: str):
    with open(path) as fh:
        return deserialize(fh.read())


def _cmd_test(args) -> dict:
    if args.region is not None:
        region = _load_region(args.region)
        alpha, method = region.alpha, region.kind
    else:
        if args.alpha is None:
            raise _UsageError("test: --alpha is required without --region")
        alpha, method = _alpha(args.alpha), args.method
        region = None if method == "js" else _BUILDERS[method](alpha)  # js_test needs no grid
    z = (args.zx, args.zy)
    payload = {"alpha": alpha, "method": method,
               "zx": _echo(args.zx), "zy": _echo(args.zy)}
    if region is None:
        res = js_test(z, alpha)
        payload["reject"] = res.reject
        payload["p_value"] = res.p_value
    else:
        prob = rejection_prob_at_point(region, z)
        payload["rejection_probability"] = prob
        payload["reject"] = prob >= _DEGENERATE
    return payload


def _cmd_test3(args) -> dict:
    z = _floats(args.z, "--z", "Z1,Z2,Z3")
    _, k = _latin_order(args.alpha)  # before a square is built or read
    if args.square == "cyclic":
        square = normalize_corner(cyclic_latin(k)).square
    else:
        with open(args.square) as fh:
            text = fh.read()
        try:
            square = square_from_json(text)
        except ValueError as exc:  # a malformed file is a data problem
            raise DataError(str(exc)) from exc
    region = build_latin_region(square, args.alpha)
    return {"alpha": args.alpha, "z": [_echo(v) for v in z],
            "reject": rejects3(region, z), "order": square.k}


def _cmd_pvalue(args) -> dict:
    res = minimax_pvalue((args.zx, args.zy))
    return {"p": res.p, "method": res.method}


def _cmd_adjust(args) -> str:
    pvals = _read_columns(args.infile, ["p"])[:, 0].tolist()
    for row, p in enumerate(pvals, start=1):
        if not 0.0 <= p <= 1.0:
            raise DataError(f"{args.infile}: row {row}, column 'p': "
                            f"p-value must lie in [0, 1], got {p!r}")
    decisions = (benjamini_hochberg if args.rule == "bh" else bonferroni)(pvals, args.q)
    return _csv("p,reject", (f"{p!r},{'true' if d else 'false'}"
                             for p, d in zip(pvals, decisions)))


def _cmd_bayes_solve(args) -> str:
    problem = build_lp(args.alpha, args.m, args.prior_sd)
    try:
        solution = solve_lp(problem)
    except RuntimeError as exc:
        raise DataError(str(exc)) from exc
    if solution.solver_status != "optimal":
        raise DataError(f"solver finished with status {solution.solver_status}")
    return serialize(assemble_bayes_region(problem, solution, derandomize=args.derandomize))


def _cmd_fit(args) -> dict:
    covars = _names(args.covars)
    data = load_csv(args.data, args.y, args.a, args.m, covars)
    model = "interaction" if args.interaction else "main_effects"
    fit, z = product_method_stats(data, model, args.a_prime, args.a_dblprime)
    return {
        "delta_x_hat": fit.delta_x_hat, "delta_y_hat": fit.delta_y_hat,
        "se_x": fit.se_x, "se_y": fit.se_y, "n": fit.n, "model": fit.model,
        "a_prime": fit.a_prime, "a_dblprime": fit.a_dblprime,
        "zx": z.zx, "zy": z.zy,
    }


def _cmd_sim_power(args) -> str:
    methods = tuple(_names(args.methods))
    deltas = tuple(_floats(part.strip(), "--deltas", "X,Y")
                   for part in args.deltas.split(";") if part.strip())
    if not deltas:
        raise _UsageError(f"--deltas expects 'X,Y;X,Y;...', got {args.deltas!r}")
    region = _load_region(args.bayes_region) if args.bayes_region else None
    spec = SimSpec(methods, deltas, args.n, args.reps, args.seed, args.alpha, region,
                   bayes_randomized=not args.derandomized_bayes)
    return simulate_power(spec).to_csv()


def _cmd_sim_ecdf(args) -> str:
    delta = _floats(args.delta, "--delta", "X,Y")
    return simulate_pvalue_ecdf(args.reps, delta, seed=args.seed).to_csv()


def _cmd_sim_sobel(args) -> str:
    dxs = _floats(args.delta_x, "--delta-x", "X,...")
    return sample_sobel_density(dxs, args.n, args.reps, args.seed).to_csv()


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="compnull",
                     description="Optimal tests of a product-of-coefficients null.")
    sub = parser.add_subparsers(dest="command", required=True)
    out = _Parser(add_help=False)  # the --out option of every leaf command
    out.add_argument("--out")

    p_region = sub.add_parser("region", help="region document utilities")
    region_sub = p_region.add_subparsers(dest="region_command", required=True)
    p_rb = region_sub.add_parser("build", parents=[out],
                                 help="construct and serialize a region")
    p_rb.add_argument("--alpha", type=float, required=True)
    p_rb.add_argument("--method", choices=_BUILDERS, default="minimax")
    p_rb.set_defaults(func=_cmd_region_build)

    p_test = sub.add_parser("test", parents=[out], help="two-coordinate decision at a point")
    p_test.add_argument("--zx", type=float, required=True)
    p_test.add_argument("--zy", type=float, required=True)
    p_test.add_argument("--alpha", type=float)
    p_test.add_argument("--method", choices=_BUILDERS, default="minimax")
    p_test.add_argument("--region", help="region document built earlier")
    p_test.set_defaults(func=_cmd_test)

    p_t3 = sub.add_parser("test3", parents=[out], help="three-coordinate decision at a point")
    p_t3.add_argument("--z", required=True, help="Z1,Z2,Z3")
    p_t3.add_argument("--alpha", type=float, required=True)
    p_t3.add_argument("--square", default="cyclic",
                      help="'cyclic' or a square JSON file")
    p_t3.set_defaults(func=_cmd_test3)

    p_pv = sub.add_parser("pvalue", parents=[out], help="generalized p-value of a point")
    p_pv.add_argument("--zx", type=float, required=True)
    p_pv.add_argument("--zy", type=float, required=True)
    p_pv.set_defaults(func=_cmd_pvalue)

    p_adj = sub.add_parser("adjust", parents=[out], help="multiple-testing adjustment")
    p_adj.add_argument("rule", choices=("bh", "bonferroni"))
    p_adj.add_argument("--q", type=float, required=True)
    p_adj.add_argument("--in", dest="infile", required=True,
                       help="CSV with a header row and a 'p' column")
    p_adj.set_defaults(func=_cmd_adjust)

    p_bayes = sub.add_parser("bayes", help="Bayes-risk LP utilities")
    bayes_sub = p_bayes.add_subparsers(dest="bayes_command", required=True)
    p_bs = bayes_sub.add_parser("solve", parents=[out],
                                help="build, solve, and persist a region")
    p_bs.add_argument("--alpha", type=float, required=True)
    p_bs.add_argument("--m", type=int, required=True)
    p_bs.add_argument("--prior-sd", type=float, default=DEFAULT_PRIOR_SD)
    p_bs.add_argument("--derandomize", action="store_true")
    p_bs.set_defaults(func=_cmd_bayes_solve)

    p_fit = sub.add_parser("fit", parents=[out], help="fit mediation regressions from CSV")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--y", required=True)
    p_fit.add_argument("--a", required=True)
    p_fit.add_argument("--m", required=True)
    p_fit.add_argument("--covars", default="", help="comma-separated names")
    p_fit.add_argument("--interaction", action="store_true")
    p_fit.add_argument("--a-prime", type=float, default=1.0)
    p_fit.add_argument("--a-dblprime", type=float, default=0.0)
    p_fit.set_defaults(func=_cmd_fit)

    p_sim = sub.add_parser("simulate", help="Monte Carlo harnesses")
    sim_sub = p_sim.add_subparsers(dest="sim_command", required=True)

    p_sp = sim_sub.add_parser("power", parents=[out], help="rejection-rate curves")
    p_sp.add_argument("--methods", default="minimax,js")
    p_sp.add_argument("--deltas", default="0,0", help="'X,Y;X,Y;...'")
    p_sp.add_argument("--alpha", type=float, default=0.05)
    p_sp.add_argument("--n", type=int, default=50)
    p_sp.add_argument("--reps", type=int, required=True)
    p_sp.add_argument("--seed", type=int, required=True)
    p_sp.add_argument("--bayes-region", help="region document for the bayes method")
    p_sp.add_argument("--derandomized-bayes", action="store_true")
    p_sp.set_defaults(func=_cmd_sim_power)

    p_se = sim_sub.add_parser("ecdf", parents=[out], help="p-value ECDF table")
    p_se.add_argument("--reps", type=int, required=True)
    p_se.add_argument("--delta", default="0,0")
    p_se.add_argument("--seed", type=int, default=0)
    p_se.set_defaults(func=_cmd_sim_ecdf)

    p_sd = sim_sub.add_parser("sobel-density", parents=[out], help="product-statistic samples")
    p_sd.add_argument("--delta-x", required=True, help="comma-separated means")
    p_sd.add_argument("--n", type=int, default=100)
    p_sd.add_argument("--reps", type=int, required=True)
    p_sd.add_argument("--seed", type=int, default=0)
    p_sd.set_defaults(func=_cmd_sim_sobel)

    return parser


def cli_dispatch(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        doc = args.func(args)
        text = doc if isinstance(doc, str) else json.dumps(doc, sort_keys=True, allow_nan=False)
        if args.out is None:
            sys.stdout.write(text if text.endswith("\n") else text + "\n")
        else:
            with open(args.out, "w") as fh:
                fh.write(text)
        return 0
    except _UsageError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    except (RegionFormatError, RegionValidationError, DataError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


main = cli_dispatch
