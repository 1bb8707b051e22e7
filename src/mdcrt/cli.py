"""Command-line front end.

Commands: hnf, snf, gcld, lcrm, crt, robust, multistage, svp-search, drange,
simulate. Exit codes: 0 success, 2 parse or configuration error (including
``--trials`` or ``--jobs`` below 1) or an input too large to allocate for
(``MemoryError``), 3 mathematical inconsistency, 4 dimension above
``lattice.MAX_DIM`` (the exact SVP/CVP cap).

Decision-bearing numbers are printed exactly (integers, fractions); float
columns are display-only and suffixed ``_f``, and integers print in full:
``main`` lifts Python's default limit on int-to-str digits (3.11+) for the
call, keeping a limit set explicitly. Every command formats all of its
output before it writes any of it, so a command that fails, even while
formatting (under such an explicit limit), writes nothing to stdout.

``robust`` and ``multistage`` both run ``build_plan`` ->
``multistage_reconstruct`` -> ``final_region`` on ``config.declared_stages``:
``robust`` on the zero-stage plan, ``multistage`` on the config's grouping.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .config import ExperimentConfig, declared_stages, load_config
from .crt_core import crt_solve, gcld, lcrm
from .drange import max_coprime_set, max_dynamic_range
from .errors import ConfigInvalid, DimensionUnsupported, Inconsistent, MdcrtError
from .exact_linalg import format_vector, hnf, parse_matrix, parse_vector, snf
from .multistage import build_plan, final_region, multistage_reconstruct
from .simkit import (
    SweepConfig,
    raw_csv_lines,
    resolve_f,
    run_sweep,
    sqrt_float,
    summary_csv_lines,
)
from .svp_search import best_diagonal_svp, primes_below, search_max_svp

EXIT_PARSE = 2
EXIT_INCONSISTENT = 3
EXIT_CAPABILITY = 4


def _float_str(x: Fraction) -> str:
    """Display float of ``x``; ``inf`` or ``-inf`` past the float range."""
    try:
        return f"{float(x):.6g}"
    except OverflowError:
        return "inf" if x > 0 else "-inf"


def _cmd_hnf(args) -> int:
    m = parse_matrix(args.matrix)
    h = hnf(m)
    print(f"h = {h}\nu = {h.left_quotient(m)}")
    return 0


def _cmd_snf(args) -> int:
    dec = snf(parse_matrix(args.matrix))
    print(f"lambda = {dec.lam}\nu = {dec.u}\nv = {dec.v}")
    return 0


def _cmd_gcld(args) -> int:
    g = gcld(parse_matrix(args.a), parse_matrix(args.b))
    print(f"gcld = {g}\ndet = {g.det}")
    return 0


def _cmd_lcrm(args) -> int:
    r = lcrm(*[parse_matrix(m) for m in args.matrices])
    print(f"lcrm = {r}\ndet = {r.det}")
    return 0


def _cmd_crt(args) -> int:
    if len(args.congruence) < 1:
        raise ConfigInvalid("need at least one --congruence MODULUS REMAINDER")
    congruences = [(parse_matrix(m), parse_vector(r)) for m, r in args.congruence]
    value = crt_solve(congruences)
    print(f"value = {format_vector(value)}\nlcrm = {lcrm(*(m for m, _ in congruences))}")
    return 0


def _sweep_configs(cfg: ExperimentConfig, trials: int | None, only: str | None) -> list[SweepConfig]:
    """One sweep per enabled reconstructor, or for ``only`` when given;
    ``trials``, when given, overrides the config's."""
    out = []
    for recon in cfg.reconstructors:
        if only is not None and recon != only:
            continue
        out.append(
            SweepConfig(
                moduli=cfg.moduli,
                reconstructor=recon,
                grouping=cfg.grouping,
                taus=cfg.taus,
                trials=trials or cfg.trials,
                seed=cfg.seed,
                f_mode=cfg.f_mode,
                f_value=cfg.f_value,
            )
        )
    if not out:
        raise ConfigInvalid(f"config does not enable reconstructor {only!r}")
    return out


def _emit_sweeps(sweeps: list[SweepConfig], args) -> int:
    lines: list[str] = []
    raw_lines: list[str] = []
    # every sweep's plan, region and f before the first sweep runs, so a bad
    # grouping is rejected before any output or work
    resolved = [resolve_f(sweep) for sweep in sweeps]
    for sweep, fixed in zip(sweeps, resolved):
        if fixed is not None:
            print(f"# {sweep.reconstructor}: f = {format_vector(fixed)}", file=sys.stderr)
        summary = run_sweep(sweep, jobs=args.jobs, keep_raw=args.raw)
        block = summary_csv_lines(summary)
        lines.extend(block if not lines else block[1:])
        if args.raw:
            rblock = raw_csv_lines(summary)
            raw_lines.extend(rblock if not raw_lines else rblock[1:])
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    if args.raw:
        sys.stdout.write("\n".join(raw_lines) + "\n")
    return 0


def _bound_str(sq: Fraction | None) -> str:
    return "inf" if sq is None else str(sq)


def _cmd_reconstruct(args) -> int:
    """``robust``, ``multistage`` and ``simulate``: sweep the config's
    reconstructors (only ``args.recon``, when set), or, given remainders,
    reconstruct them through ``args.recon``'s plan and print its header, the
    estimate and the final region's size, or nothing if a step fails."""
    cfg = load_config(args.config)
    if not args.remainders:
        return _emit_sweeps(_sweep_configs(cfg, args.trials, args.recon), args)
    plan = build_plan(cfg.moduli, declared_stages(args.recon, cfg.grouping))
    final = plan.final.instance
    if args.recon == "single":
        bound = final.tau_bound_sq  # finite: the plan has two or more moduli
        header = [
            f"anchor = {final.anchor}",
            f"tau_bound_sq = {bound}",
            f"tau_bound_f = {sqrt_float(bound.numerator, bound.denominator):.6g}",
        ]
    else:
        bounds = ",".join(_bound_str(b.tau_max_sq) for b in plan.per_group_bounds)
        header = [
            f"final_anchor = {final.anchor}",
            f"per_group_bounds_sq = [{bounds}]",
            f"delta_final_sq = {_bound_str(final.tau_bound_sq)}",
        ]
    est = multistage_reconstruct(plan, [parse_vector(r) for r in args.remainders]).estimate
    print("\n".join(header + [
        f"estimate = ({','.join(str(x) for x in est)})",
        f"estimate_f = ({','.join(_float_str(x) for x in est)})",
        f"region_size = {final_region(plan).size}",
    ]))
    return 0


def _cmd_svp_search(args) -> int:
    if args.prime is not None:
        primes = [args.prime]
    else:
        a, b = args.range
        primes = [p for p in primes_below(b) if p >= a]
        if not primes:
            raise ConfigInvalid(f"--range {a} {b} holds no prime p with {a} <= p < {b}")
    results = [search_max_svp(p) for p in primes]  # NotPrime before any output
    print("\n".join(["prime,d,sqrt_d_f,floor_sqrt_p,achiever_count,first_achiever"] + [
        f"{p},{res.d},{res.sqrt_d:.6g},{best_diagonal_svp(p)},{len(res.achievers)},{min(res.achievers)}"
        for p, res in zip(primes, results)
    ]))
    return 0


def _cmd_drange(args) -> int:
    dynamic_range = max_dynamic_range(args.q, args.dim)  # validates q and dim before any output
    cs = max_coprime_set(args.q)
    print(f"q = {cs.cap}\nmembers = {list(cs.members)}\nproduct = {cs.product}\nrange = {dynamic_range}")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mdcrt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hnf", help="Hermite normal form of a matrix literal")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_hnf)

    p = sub.add_parser("snf", help="Smith normal form of a matrix literal")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_snf)

    p = sub.add_parser("gcld", help="greatest common left divisor")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_gcld)

    p = sub.add_parser("lcrm", help="least common right multiple")
    p.add_argument("matrices", nargs="+")
    p.set_defaults(func=_cmd_lcrm)

    p = sub.add_parser("crt", help="solve a congruence system exactly")
    p.add_argument(
        "--congruence",
        nargs=2,
        action="append",
        metavar=("MODULUS", "REMAINDER"),
        default=[],
    )
    p.set_defaults(func=_cmd_crt)

    for name, recon, help_text in (
        ("robust", "single", "robust reconstruction or sweep"),
        ("multistage", "multistage", "multistage reconstruction or sweep"),
        ("simulate", None, "run every reconstructor in a config"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config")
        if recon is not None:
            p.add_argument("--remainders", nargs="+", help="single-shot mode: one vector per modulus")
        p.add_argument("--trials", type=_positive_int, default=None)
        p.add_argument("--jobs", type=_positive_int, default=1)
        p.add_argument("--raw", action="store_true")
        p.add_argument("--out", default=None)
        p.set_defaults(func=_cmd_reconstruct, recon=recon, remainders=None)

    p = sub.add_parser("svp-search", help="max shortest-vector search over prime HNF lattices")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--prime", type=int)
    which.add_argument("--range", type=int, nargs=2, metavar=("A", "B"))
    p.set_defaults(func=_cmd_svp_search)

    p = sub.add_parser("drange", help="max dynamic range table under a determinant cap")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--dim", type=int, default=2)
    p.set_defaults(func=_cmd_drange)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Exact output has no length limit: where Python caps int-to-str
    # conversion (3.11+), its default cap is lifted for the call, and a cap
    # set explicitly (PYTHONINTMAXSTRDIGITS, sys.set_int_max_str_digits) stays.
    default = getattr(sys.int_info, "default_max_str_digits", None)
    lift = default is not None and sys.get_int_max_str_digits() == default
    if lift:
        sys.set_int_max_str_digits(0)
    try:
        return _run(build_parser().parse_args(argv))
    finally:
        if lift:
            sys.set_int_max_str_digits(default)


def _run(args) -> int:
    """Run the parsed command and map its errors to exit codes."""
    try:
        return args.func(args)
    except (ValueError, ConfigInvalid, OSError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return EXIT_PARSE
    except Inconsistent as e:
        print(f"inconsistent: {e}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except DimensionUnsupported as e:
        print(f"capability exceeded: {e}", file=sys.stderr)
        return EXIT_CAPABILITY
    except MdcrtError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
