"""Command line front end for exact correlator and volume computations.

Subcommands:

    tau INDICES          one <tau_{k_1} ... tau_{k_n}> with its genus
    table N KMAX         all nonzero width-N correlators with indices <= KMAX
    kappa LAMBDA [TAU]   one mixed <kappa_... tau_...> number
    wp G N               Weil-Petersson volume coefficients at genus G, N points
    wave [LAMBDA]        deformed wave-function components A, B for one s_lambda
    selftest             internal identity sweep; nonzero exit on any failure

Each subcommand builds its result once in all three forms (a JSON payload,
CSV rows, text lines) and hands them to `_emit`, the one writer of results
and the one reader of --format.  Values are exact rationals; JSON output
renders numerator and denominator as decimal-digit strings because table
entries overflow 64-bit integers.  Output is deterministic: equal invocations
produce byte-identical files; every trace runs in one process, so the
--workers count of `table` and `wp` is checked and has no effect.  Exit
codes: 0 success, 1 runtime or I/O failure, 2 usage.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from . import wk, wp
from .rationals import num_den, rat_str
from .selftest import run_selftest

_FORMATS = ("text", "json", "csv")


class _UsageError(Exception):
    """Bad command line input; reported with exit code 2."""


def _parse_indices(text: str, what: str, minimum: int = 0) -> tuple[int, ...]:
    """Comma list of integers >= minimum; empty string means no indices."""
    text = text.strip()
    if not text:
        return ()
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            value = int(piece)
        except ValueError:
            raise _UsageError(f"malformed {what} {piece!r}") from None
        if value < minimum:
            raise _UsageError(f"{what} must be >= {minimum}, got {value}")
        out.append(value)
    return tuple(out)


def _check_workers(args) -> None:
    """Refuse a --workers count below 1 as a usage error; every trace runs
    in this process, so a valid count changes nothing."""
    if args.workers < 1:
        raise _UsageError("--workers must be at least 1")


def _json_value(v) -> dict:
    num, den = num_den(v)
    return {"num": str(num), "den": str(den)}


def _emit(args, payload, header: list[str], rows: list[list], lines: list[str]) -> None:
    """Write one result as --format asks, to stdout or to --out.

    `payload` is the JSON document, `header` and `rows` the CSV table and
    `lines` the text, one entry per line without its newline.
    """
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = "".join(line + "\n" for line in lines)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _bracket_line(names: list[str], value, g: int | None) -> str:
    """Text line of one bracket, e.g. <kappa_2 tau_2> = 29/5760 (g=2)."""
    tail = f" (g={g})" if g is not None else " (no genus fits the dimension)"
    return f"<{' '.join(names)}> = {rat_str(value)}{tail}"


def _tau_header(n: int) -> list[str]:
    return [f"k{i + 1}" for i in range(n)] + ["g", "numerator", "denominator"]


def _tau_record(ks: tuple[int, ...], g: int | None, value) -> tuple:
    """JSON object, CSV row and text line of one <tau_k ...>; g is None
    when no genus fits the dimension."""
    num, den = num_den(value)
    obj = {"indices": list(ks), "genus": g, "value": _json_value(value)}
    row = [*ks, "" if g is None else g, num, den]
    return obj, row, _bracket_line([f"tau_{k}" for k in ks], value, g)


def _terms(coeffs: dict) -> list[tuple]:
    """(exponent, coefficient) pairs, largest exponent first."""
    return sorted(coeffs.items(), reverse=True)


def _poly_str(terms: list[tuple]) -> str:
    """One-line polynomial/series rendering of `_terms` output."""
    if not terms:
        return "0"
    parts = []
    for e, coeff in terms:
        c = rat_str(coeff)
        neg = c.startswith("-")
        if neg:
            c = c[1:]
        if e == 0:
            term = c
        else:
            power = "z" if e == 1 else f"z^{e}"
            term = power if c == "1" else f"{c} {power}"
        if not parts:
            parts.append("-" + term if neg else term)
        else:
            parts.append(("- " if neg else "+ ") + term)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_tau(args) -> int:
    ks = _parse_indices(args.indices, "tau index")
    if not ks:
        raise _UsageError("need at least one tau index")
    value = wk.correlator(ks, verify=args.verify)
    obj, row, line = _tau_record(ks, wk.genus(ks), value)
    _emit(args, obj, _tau_header(len(ks)), [row], [line])
    return 0


def _cmd_table(args) -> int:
    if args.n < 2:
        raise _UsageError("table width must be at least 2")
    if args.k_max < 0:
        raise _UsageError("k_max must be nonnegative")
    _check_workers(args)
    table = wk.n_point_table(args.n, args.k_max, verify=args.verify)
    records = [_tau_record(ks, wk.genus(ks), v) for ks, v in table.sorted_items()]
    objs, rows, lines = ([r[i] for r in records] for i in range(3))
    _emit(args, objs, _tau_header(args.n), rows, lines)
    return 0


def _cmd_kappa(args) -> int:
    lam = _parse_indices(args.lam, "kappa index", minimum=1)
    taus = _parse_indices(args.tau, "tau index")
    if not lam:
        raise _UsageError("need at least one kappa index")
    value = wp.mixed_correlator(lam, taus, verify=args.verify)
    g = wp.mixed_genus(lam, taus)
    lam = tuple(sorted(lam, reverse=True))
    payload = {
        "kappa": list(lam),
        "tau": list(taus),
        "genus": g,
        "value": _json_value(value),
    }
    row = [
        ";".join(str(j) for j in lam),
        ";".join(str(k) for k in taus),
        "" if g is None else g,
        *num_den(value),
    ]
    names = [f"kappa_{j}" for j in lam] + [f"tau_{k}" for k in taus]
    header = ["kappa", "tau", "g", "numerator", "denominator"]
    _emit(args, payload, header, [row], [_bracket_line(names, value, g)])
    return 0


def _cmd_wp(args) -> int:
    g, n = args.g, args.n
    if g < 0 or n < 1:
        raise _UsageError("need genus >= 0 and at least one point")
    if 3 * g - 3 + n < 0:
        raise _UsageError("the moduli space is empty for this (g, n)")
    _check_workers(args)
    vol = wp.wp_volume(g, n, verify=args.verify)
    entries = [
        (d, ks, vol.display_coefficient(d, ks), vol.volume_coefficient(d, ks))
        for (d, ks), _ in vol.sorted_items()
    ]
    payload = {
        "g": g,
        "n": n,
        "entries": [
            {"d": d, "indices": list(ks), "w": _json_value(w), "v": _json_value(v)}
            for d, ks, w, v in entries
        ],
    }
    header = ["d"] + [f"k{i + 1}" for i in range(n)]
    header += ["w_numerator", "w_denominator", "v_numerator", "v_denominator"]
    rows = [[d, *ks, *num_den(w), *num_den(v)] for d, ks, w, v in entries]
    lines = [f"W_{{{g},{n}}}: coefficient of s^d / prod z_i^(2 k_i + 2)"]
    lines += [f"  d={d} k={ks}  {rat_str(w)}" for d, ks, w, _ in entries]
    lines.append(f"v_{{{g},{n}}}: coefficient of s^d prod L_i^(2 k_i)")
    lines += [f"  d={d} k={ks}  {rat_str(v)}" for d, ks, _, v in entries]
    _emit(args, payload, header, rows, lines)
    return 0


def _cmd_wave(args) -> int:
    lam = _parse_indices(args.lam, "kappa index", minimum=1)
    lam = tuple(sorted(lam, reverse=True))
    depth = args.depth
    if depth < 1:
        raise _UsageError("--depth must be a positive order count")
    cap = sum(lam)
    dw = wp.deformed_wave(wp.kappa_times(cap), cap)
    label = "s_(" + ",".join(str(j) for j in lam) + ")" if lam else "s-independent part"
    components, rows, lines = [], [], []
    for which in ("A", "B"):
        p, q = dw.component(lam, which)
        series = wp.pair_series((p, q), -depth)
        parts = {
            part: _terms(poly.coefficients)
            for part, poly in (("P", p), ("Q", q), ("series", series))
        }
        components.append(
            {"name": which}
            | {part: [[e, _json_value(c)] for e, c in ts] for part, ts in parts.items()}
        )
        rows += [
            [which, part, e, *num_den(c)] for part, ts in parts.items() for e, c in ts
        ]
        lines += [
            f"{which}[{label}] = P c + Q q",
            f"  P: {_poly_str(parts['P'])}",
            f"  Q: {_poly_str(parts['Q'])}",
            f"  expansion to z^{-depth}: {_poly_str(parts['series'])}",
        ]
    payload = {"lambda": list(lam), "depth": depth, "components": components}
    header = ["component", "part", "exponent", "numerator", "denominator"]
    _emit(args, payload, header, rows, lines)
    return 0


def _cmd_selftest(args) -> int:
    depth = args.depth
    if depth < 6:
        raise _UsageError("selftest depth must be at least 6")
    results = run_selftest(
        depth=depth,
        inject_fault=args.inject_fault,
        shallow_truncation=args.shallow_truncation,
    )
    failures = sum(not r.ok for r in results)
    payload = [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results]
    rows = [[r.name, "ok" if r.ok else "fail", r.detail] for r in results]
    lines = [
        f"ok    {r.name}" if r.ok else f"FAIL  {r.name}: {r.detail}" for r in results
    ]
    lines.append(f"{len(results)} checks, {failures} failed (depth {depth})")
    _emit(args, payload, ["name", "status", "detail"], rows, lines)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, *, verify: bool = False, workers: bool = False) -> None:
    sub.add_argument(
        "--format", choices=_FORMATS, default="text", help="output format"
    )
    sub.add_argument("--out", default=None, help="write output to this path")
    if verify:
        sub.add_argument(
            "--verify",
            action="store_true",
            help="recompute under widened truncation budgets and compare",
        )
    if workers:
        sub.add_argument(
            "--workers",
            type=int,
            default=1,
            help="accepted for compatibility and checked (at least 1); every"
            " trace runs in this process, so it has no effect",
        )


# parse_args leaves the parser unchanged, so one instance serves every call
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdvcorr",
        description="Exact intersection numbers and Weil-Petersson volumes "
        "from KdV tau-function trace formulas.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("tau", help="one psi-class correlator")
    p.add_argument("indices", help="comma list of tau indices, e.g. 3,2")
    _add_common(p, verify=True)
    p.set_defaults(func=_cmd_tau)

    p = subs.add_parser("table", help="all nonzero correlators of one width")
    p.add_argument("n", type=int, help="number of insertions")
    p.add_argument("k_max", type=int, help="largest tau index")
    _add_common(p, verify=True, workers=True)
    p.set_defaults(func=_cmd_table)

    kappa_help = ("one mixed kappa-tau correlator, printed as the s_lambda"
                  " coefficient <kappa_lambda tau_...>/m(lambda)!")
    p = subs.add_parser("kappa", help=kappa_help, description=kappa_help)
    p.add_argument("lam", help="comma list of kappa indices, e.g. 1,1")
    p.add_argument(
        "tau",
        nargs="?",
        default="",
        help="comma list of tau indices (may be omitted)",
    )
    _add_common(p, verify=True)
    p.set_defaults(func=_cmd_kappa)

    p = subs.add_parser("wp", help="Weil-Petersson volume coefficients")
    p.add_argument("g", type=int, help="genus")
    p.add_argument("n", type=int, help="number of marked points")
    _add_common(p, verify=True, workers=True)
    p.set_defaults(func=_cmd_wp)

    p = subs.add_parser(
        "wave", help="deformed wave-function components for one s_lambda"
    )
    p.add_argument(
        "lam",
        nargs="?",
        default="",
        help="comma list of kappa indices (empty for the undeformed wave)",
    )
    _add_common(p)
    p.add_argument(
        "--depth",
        type=int,
        default=12,
        help="expansion order: expand each component down to z^-DEPTH"
        " (default 12)",
    )
    p.set_defaults(func=_cmd_wave)

    p = subs.add_parser("selftest", help="internal identity sweep")
    _add_common(p)
    p.add_argument(
        "--depth",
        type=int,
        default=12,
        help="check depth: compare series down to z^-DEPTH, at least 6"
        " (default 12)",
    )
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="corrupt one comparison on purpose to prove failures surface",
    )
    p.add_argument(
        "--shallow-truncation",
        action="store_true",
        help="run one window on half-depth matrices so the doubling check "
        "flags the instability",
    )
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ArithmeticError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
