"""Command-line interface.

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
from .closed_form import (AlphaSpec, build_extended_region, build_js_region,
                          build_minimax_region, js_test)
from .latin3 import (build_latin_region, cyclic_latin, normalize_corner, rejects3,
                     square_from_json)
from .mediation import DataError, load_csv, product_method_stats
from .pvalues import benjamini_hochberg, bonferroni, minimax_pvalue
from .regions import (RegionFormatError, RegionValidationError, deserialize,
                      rejection_prob_at_point, serialize)
from .simulate import (SimSpec, sample_sobel_density, simulate_power,
                       simulate_pvalue_ecdf)
from .statmath import _alpha

__all__ = ["cli_dispatch", "main"]

_MAX_LATIN_ORDER = 200  # a Latin region's K^3 label tensor takes 64 MB at K = 200
_MAX_GRID_ORDER = 1000  # a minimax/extended grid has (2*floor(1/alpha) + 2)^2 cells
_MAX_LP_ORDER = 256  # the Bayes LP's memory grows as m^3: ~0.3 GB at m = 256


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


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, allow_nan=False)


def _echo(value: float) -> float | str:
    """An input value for standard JSON: +-inf become "inf"/"-inf"."""
    return value if math.isfinite(value) else repr(value)


def _parse_pair(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError(f"{flag} expects 'X,Y', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise _UsageError(f"{flag} expects numbers, got {text!r}") from None


def _check_grid_order(alpha: float) -> None:
    """Refuse a level whose minimax/extended grid exceeds _MAX_GRID_ORDER."""
    if 1.0 / _alpha(alpha) >= _MAX_GRID_ORDER + 1:
        raise ValueError(f"order floor(1/alpha) (alpha={alpha!r}) exceeds the limit of "
                         f"{_MAX_GRID_ORDER}; alpha must be > 1/{_MAX_GRID_ORDER + 1}")


def _build_region(method: str, alpha: float):
    if method in ("minimax", "extended"):
        _check_grid_order(alpha)
    if method == "minimax":
        return build_minimax_region(alpha)
    if method == "extended":
        return build_extended_region(alpha)
    if method == "js":
        return build_js_region(alpha)
    raise _UsageError(f"unknown region method {method!r}")


def _cmd_region_build(args) -> int:
    region = _build_region(args.method, args.alpha)
    _emit(serialize(region), args.out)
    return 0


def _load_region(path: str):
    with open(path) as fh:
        return deserialize(fh.read())


def _cmd_test(args) -> int:
    if args.region is not None:
        region = _load_region(args.region)
        method = region.kind
    else:
        if args.alpha is None:
            raise _UsageError("test: --alpha is required without --region")
        region = _build_region(args.method, args.alpha)
        method = args.method
    z = (args.zx, args.zy)
    payload = {"alpha": region.alpha, "method": method,
               "zx": _echo(args.zx), "zy": _echo(args.zy)}
    if method == "js":
        res = js_test(z, region.alpha)
        payload["reject"] = res.reject
        payload["p_value"] = res.p_value
    else:
        prob = rejection_prob_at_point(region, z)
        payload["rejection_probability"] = prob
        payload["reject"] = prob == 1.0
    _emit(_json(payload), args.out)
    return 0


def _cmd_test3(args) -> int:
    parts = args.z.split(",")
    if len(parts) != 3:
        raise _UsageError(f"--z expects 'Z1,Z2,Z3', got {args.z!r}")
    try:
        z = tuple(float(v) for v in parts)
    except ValueError:
        raise _UsageError(f"--z expects numbers, got {args.z!r}") from None
    k = AlphaSpec.from_alpha(args.alpha).k
    if k is None:
        raise ValueError(f"alpha={args.alpha!r} must be 1/K for an integer order K")
    if k > _MAX_LATIN_ORDER:
        raise ValueError(f"order K={k:.6g} (alpha={args.alpha!r}) exceeds the limit of "
                         f"{_MAX_LATIN_ORDER}; alpha must be >= {1 / _MAX_LATIN_ORDER!r}")
    if args.square == "cyclic":
        square = normalize_corner(cyclic_latin(k)).square
    else:
        with open(args.square) as fh:
            square = square_from_json(fh.read())
    region = build_latin_region(square, args.alpha)
    payload = {"alpha": args.alpha, "z": [_echo(v) for v in z],
               "reject": rejects3(region, z), "order": square.k}
    _emit(_json(payload), args.out)
    return 0


def _cmd_pvalue(args) -> int:
    res = minimax_pvalue((args.zx, args.zy))
    _emit(_json({"p": res.p, "method": res.method}), args.out)
    return 0


def _cmd_adjust(args) -> int:
    with open(args.infile) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "p":
        raise DataError(f"{args.infile}: expected a CSV with header 'p'")
    try:
        pvals = [float(v) for v in lines[1:]]
    except ValueError as exc:
        raise DataError(f"{args.infile}: non-numeric p-value ({exc})") from None
    if args.rule == "bh":
        decisions = benjamini_hochberg(pvals, args.q)
    else:
        decisions = bonferroni(pvals, args.q)
    rows = ["p,reject"]
    rows += [f"{p!r},{'true' if d else 'false'}" for p, d in zip(pvals, decisions)]
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def _cmd_bayes_solve(args) -> int:
    if args.m > _MAX_LP_ORDER:
        raise ValueError(f"order m={args.m} exceeds the limit of {_MAX_LP_ORDER}")
    problem = build_lp(args.alpha, args.m, args.prior_sd)
    solution = solve_lp(problem)
    if solution.solver_status != "optimal":
        sys.stderr.write(f"solver finished with status {solution.solver_status}\n")
        return 2
    region = assemble_bayes_region(problem, solution, derandomize=args.derandomize)
    _emit(serialize(region), args.out)
    return 0


def _cmd_fit(args) -> int:
    covars = [c for c in (args.covars.split(",") if args.covars else []) if c]
    data = load_csv(args.data, args.y, args.a, args.m, covars)
    model = "interaction" if args.interaction else "main_effects"
    fit, z = product_method_stats(data, model, args.a_prime, args.a_dblprime)
    payload = {
        "delta_x_hat": fit.delta_x_hat, "delta_y_hat": fit.delta_y_hat,
        "se_x": fit.se_x, "se_y": fit.se_y, "n": fit.n, "model": fit.model,
        "a_prime": fit.a_prime, "a_dblprime": fit.a_dblprime,
        "zx": z.zx, "zy": z.zy,
    }
    _emit(_json(payload), args.out)
    return 0


def _parse_deltas(text: str) -> tuple[tuple[float, float], ...]:
    out = []
    for part in text.split(";"):
        part = part.strip()
        if part:
            out.append(_parse_pair(part, "--deltas"))
    if not out:
        raise _UsageError(f"--deltas expects 'X,Y;X,Y;...', got {text!r}")
    return tuple(out)


def _cmd_sim_power(args) -> int:
    methods = tuple(m for m in args.methods.split(",") if m)
    if {"minimax", "extended"} & set(methods):
        _check_grid_order(args.alpha)
    region = _load_region(args.bayes_region) if args.bayes_region else None
    spec = SimSpec(methods, _parse_deltas(args.deltas), args.n, args.reps,
                   args.seed, args.alpha, region,
                   bayes_randomized=not args.derandomized_bayes)
    _emit(simulate_power(spec).to_csv(), args.out)
    return 0


def _cmd_sim_ecdf(args) -> int:
    delta = _parse_pair(args.delta, "--delta")
    table = simulate_pvalue_ecdf(args.reps, delta, seed=args.seed)
    _emit(table.to_csv(), args.out)
    return 0


def _cmd_sim_sobel(args) -> int:
    try:
        dxs = [float(v) for v in args.delta_x.split(",") if v.strip()]
    except ValueError:
        raise _UsageError(f"--delta-x expects numbers, got {args.delta_x!r}") from None
    if not dxs:
        raise _UsageError("--delta-x expects at least one value")
    table = sample_sobel_density(dxs, args.n, args.reps, args.seed)
    _emit(table.to_csv(), args.out)
    return 0


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="compnull",
                     description="Optimal tests of a product-of-coefficients null.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_region = sub.add_parser("region", help="region document utilities")
    region_sub = p_region.add_subparsers(dest="region_command", required=True)
    p_rb = region_sub.add_parser("build", help="construct and serialize a region")
    p_rb.add_argument("--alpha", type=float, required=True)
    p_rb.add_argument("--method", choices=("minimax", "extended", "js"),
                      default="minimax")
    p_rb.add_argument("--out")
    p_rb.set_defaults(func=_cmd_region_build)

    p_test = sub.add_parser("test", help="two-coordinate decision at a point")
    p_test.add_argument("--zx", type=float, required=True)
    p_test.add_argument("--zy", type=float, required=True)
    p_test.add_argument("--alpha", type=float)
    p_test.add_argument("--method", choices=("minimax", "extended", "js"),
                        default="minimax")
    p_test.add_argument("--region", help="region document built earlier")
    p_test.add_argument("--out")
    p_test.set_defaults(func=_cmd_test)

    p_t3 = sub.add_parser("test3", help="three-coordinate decision at a point")
    p_t3.add_argument("--z", required=True, help="Z1,Z2,Z3")
    p_t3.add_argument("--alpha", type=float, required=True)
    p_t3.add_argument("--square", default="cyclic",
                      help="'cyclic' or a square JSON file")
    p_t3.add_argument("--out")
    p_t3.set_defaults(func=_cmd_test3)

    p_pv = sub.add_parser("pvalue", help="generalized p-value of a point")
    p_pv.add_argument("--zx", type=float, required=True)
    p_pv.add_argument("--zy", type=float, required=True)
    p_pv.add_argument("--out")
    p_pv.set_defaults(func=_cmd_pvalue)

    p_adj = sub.add_parser("adjust", help="multiple-testing adjustment")
    p_adj.add_argument("rule", choices=("bh", "bonferroni"))
    p_adj.add_argument("--q", type=float, required=True)
    p_adj.add_argument("--in", dest="infile", required=True,
                       help="CSV with header 'p', one p-value per line")
    p_adj.add_argument("--out")
    p_adj.set_defaults(func=_cmd_adjust)

    p_bayes = sub.add_parser("bayes", help="Bayes-risk LP utilities")
    bayes_sub = p_bayes.add_subparsers(dest="bayes_command", required=True)
    p_bs = bayes_sub.add_parser("solve", help="build, solve, and persist a region")
    p_bs.add_argument("--alpha", type=float, required=True)
    p_bs.add_argument("--m", type=int, required=True)
    p_bs.add_argument("--prior-sd", type=float, default=DEFAULT_PRIOR_SD)
    p_bs.add_argument("--derandomize", action="store_true")
    p_bs.add_argument("--out")
    p_bs.set_defaults(func=_cmd_bayes_solve)

    p_fit = sub.add_parser("fit", help="fit mediation regressions from CSV")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--y", required=True)
    p_fit.add_argument("--a", required=True)
    p_fit.add_argument("--m", required=True)
    p_fit.add_argument("--covars", default="", help="comma-separated names")
    p_fit.add_argument("--interaction", action="store_true")
    p_fit.add_argument("--a-prime", type=float, default=1.0)
    p_fit.add_argument("--a-dblprime", type=float, default=0.0)
    p_fit.add_argument("--out")
    p_fit.set_defaults(func=_cmd_fit)

    p_sim = sub.add_parser("simulate", help="Monte Carlo harnesses")
    sim_sub = p_sim.add_subparsers(dest="sim_command", required=True)

    p_sp = sim_sub.add_parser("power", help="rejection-rate curves")
    p_sp.add_argument("--methods", default="minimax,js")
    p_sp.add_argument("--deltas", default="0,0", help="'X,Y;X,Y;...'")
    p_sp.add_argument("--alpha", type=float, default=0.05)
    p_sp.add_argument("--n", type=int, default=50)
    p_sp.add_argument("--reps", type=int, required=True)
    p_sp.add_argument("--seed", type=int, required=True)
    p_sp.add_argument("--bayes-region", help="region document for the bayes method")
    p_sp.add_argument("--derandomized-bayes", action="store_true")
    p_sp.add_argument("--out")
    p_sp.set_defaults(func=_cmd_sim_power)

    p_se = sim_sub.add_parser("ecdf", help="p-value ECDF table")
    p_se.add_argument("--reps", type=int, required=True)
    p_se.add_argument("--delta", default="0,0")
    p_se.add_argument("--seed", type=int, default=0)
    p_se.add_argument("--out")
    p_se.set_defaults(func=_cmd_sim_ecdf)

    p_sd = sim_sub.add_parser("sobel-density", help="product-statistic samples")
    p_sd.add_argument("--delta-x", required=True, help="comma-separated means")
    p_sd.add_argument("--n", type=int, default=100)
    p_sd.add_argument("--reps", type=int, required=True)
    p_sd.add_argument("--seed", type=int, default=0)
    p_sd.add_argument("--out")
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
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    except (RegionFormatError, RegionValidationError, DataError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main(argv=None) -> int:
    return cli_dispatch(argv)
