"""Command line front end for exact correlator and volume computations.

Subcommands:

    tau INDICES          one <tau_{k_1} ... tau_{k_n}> with its genus
    table N KMAX         all nonzero width-N correlators with indices <= KMAX
    kappa LAMBDA [TAU]   one mixed <kappa_... tau_...> number
    wp G N               Weil-Petersson volume coefficients at genus G, N points
    wave [LAMBDA]        deformed wave-function components A, B for one s_lambda
    selftest             internal identity sweep; nonzero exit on any failure

Values are exact rationals; JSON output renders numerator and denominator as
decimal-digit strings because table entries overflow 64-bit integers.  Output
is deterministic: equal invocations produce byte-identical files whatever the
worker count.  Exit codes: 0 success, 1 runtime or I/O failure, 2 usage.
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


def _json_value(v) -> dict:
    num, den = num_den(v)
    return {"num": str(num), "den": str(den)}


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_table(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _bracket(ks) -> str:
    """Text form of one bracket, e.g. <tau_3 tau_2> or <kappa_2 tau_2>."""
    return "<" + " ".join(ks) + ">"


def _poly_str(coeffs: dict, variable: str = "z") -> str:
    """One-line polynomial/series rendering, largest exponent first."""
    if not coeffs:
        return "0"
    parts = []
    for e in sorted(coeffs, reverse=True):
        c = rat_str(coeffs[e])
        neg = c.startswith("-")
        if neg:
            c = c[1:]
        if e == 0:
            term = c
        else:
            power = variable if e == 1 else f"{variable}^{e}"
            term = power if c == "1" else f"{c} {power}"
        if not parts:
            parts.append("-" + term if neg else term)
        else:
            parts.append(("- " if neg else "+ ") + term)
    return " ".join(parts)


def _write(out_path: str | None, text: str) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_tau(args) -> int:
    ks = _parse_indices(args.indices, "tau index")
    if not ks:
        raise _UsageError("need at least one tau index")
    value = wk.correlator(ks, verify=args.verify)
    g = wk.genus(ks)
    names = [f"tau_{k}" for k in ks]
    if args.format == "json":
        text = _dump_json(
            {"indices": list(ks), "genus": g, "value": _json_value(value)}
        )
    elif args.format == "csv":
        num, den = num_den(value)
        header = [f"k{i + 1}" for i in range(len(ks))]
        header += ["g", "numerator", "denominator"]
        row = list(ks) + ["" if g is None else g, num, den]
        text = _csv_table(header, [row])
    else:
        tail = f" (g={g})" if g is not None else " (no genus fits the dimension)"
        text = f"{_bracket(names)} = {rat_str(value)}{tail}\n"
    _write(args.out, text)
    return 0


def _cmd_table(args) -> int:
    if args.n < 2:
        raise _UsageError("table width must be at least 2")
    if args.k_max < 0:
        raise _UsageError("k_max must be nonnegative")
    if args.workers < 1:
        raise _UsageError("--workers must be at least 1")
    table = wk.n_point_table(
        args.n, args.k_max, verify=args.verify, workers=args.workers
    )
    items = table.sorted_items()
    if args.format == "json":
        text = _dump_json(
            [
                {
                    "indices": list(ks),
                    "genus": wk.genus(ks),
                    "value": _json_value(v),
                }
                for ks, v in items
            ]
        )
    elif args.format == "csv":
        header = [f"k{i + 1}" for i in range(args.n)]
        header += ["g", "numerator", "denominator"]
        rows = []
        for ks, v in items:
            num, den = num_den(v)
            rows.append(list(ks) + [wk.genus(ks), num, den])
        text = _csv_table(header, rows)
    else:
        lines = []
        for ks, v in items:
            names = [f"tau_{k}" for k in ks]
            lines.append(f"{_bracket(names)} = {rat_str(v)} (g={wk.genus(ks)})")
        text = "".join(line + "\n" for line in lines)
    _write(args.out, text)
    return 0


def _cmd_kappa(args) -> int:
    lam = _parse_indices(args.lam, "kappa index", minimum=1)
    taus = _parse_indices(args.tau, "tau index")
    if not lam:
        raise _UsageError("need at least one kappa index")
    value = wp.mixed_correlator(lam, taus, verify=args.verify)
    g = wp.mixed_genus(lam, taus)
    lam = tuple(sorted(lam, reverse=True))
    names = [f"kappa_{j}" for j in lam] + [f"tau_{k}" for k in taus]
    if args.format == "json":
        text = _dump_json(
            {
                "kappa": list(lam),
                "tau": list(taus),
                "genus": g,
                "value": _json_value(value),
            }
        )
    elif args.format == "csv":
        num, den = num_den(value)
        header = ["kappa", "tau", "g", "numerator", "denominator"]
        row = [
            ";".join(str(j) for j in lam),
            ";".join(str(k) for k in taus),
            "" if g is None else g,
            num,
            den,
        ]
        text = _csv_table(header, [row])
    else:
        tail = f" (g={g})" if g is not None else " (no genus fits the dimension)"
        text = f"{_bracket(names)} = {rat_str(value)}{tail}\n"
    _write(args.out, text)
    return 0


def _cmd_wp(args) -> int:
    if args.g < 0 or args.n < 1:
        raise _UsageError("need genus >= 0 and at least one point")
    if 3 * args.g - 3 + args.n < 0:
        raise _UsageError("the moduli space is empty for this (g, n)")
    if args.workers < 1:
        raise _UsageError("--workers must be at least 1")
    vol = wp.wp_volume(args.g, args.n, verify=args.verify, workers=args.workers)
    items = vol.sorted_items()
    if args.format == "json":
        text = _dump_json(
            {
                "g": args.g,
                "n": args.n,
                "entries": [
                    {
                        "d": d,
                        "indices": list(ks),
                        "w": _json_value(vol.display_coefficient(d, ks)),
                        "v": _json_value(vol.volume_coefficient(d, ks)),
                    }
                    for (d, ks), _ in items
                ],
            }
        )
    elif args.format == "csv":
        header = [f"k{i + 1}" for i in range(args.n)]
        header = ["d"] + header
        header += ["w_numerator", "w_denominator", "v_numerator", "v_denominator"]
        rows = []
        for (d, ks), _ in items:
            wn, wd = num_den(vol.display_coefficient(d, ks))
            vn, vd = num_den(vol.volume_coefficient(d, ks))
            rows.append([d] + list(ks) + [wn, wd, vn, vd])
        text = _csv_table(header, rows)
    else:
        lines = [
            f"W_{{{args.g},{args.n}}}: "
            "coefficient of s^d / prod z_i^(2 k_i + 2)"
        ]
        for (d, ks), _ in items:
            w = vol.display_coefficient(d, ks)
            lines.append(f"  d={d} k={ks}  {rat_str(w)}")
        lines.append(
            f"v_{{{args.g},{args.n}}}: coefficient of s^d prod L_i^(2 k_i)"
        )
        for (d, ks), _ in items:
            v = vol.volume_coefficient(d, ks)
            lines.append(f"  d={d} k={ks}  {rat_str(v)}")
        text = "".join(line + "\n" for line in lines)
    _write(args.out, text)
    return 0


def _cmd_wave(args) -> int:
    lam = _parse_indices(args.lam, "kappa index", minimum=1)
    lam = tuple(sorted(lam, reverse=True))
    depth = args.depth
    if depth < 1:
        raise _UsageError("--depth must be a positive order count")
    dw = wp.deformed_wave(sum(lam))
    blocks = []
    for which in ("A", "B"):
        p, q = dw.component(lam, which)
        series = wp.wave_component_series(dw, lam, which, -depth)
        expansion = {e: series.coefficient(e) for e in series.support()}
        blocks.append((which, p, q, expansion))
    label = "s_(" + ",".join(str(j) for j in lam) + ")" if lam else "s-independent part"
    if args.format == "json":
        text = _dump_json(
            {
                "lambda": list(lam),
                "depth": depth,
                "components": [
                    {
                        "name": which,
                        "P": [
                            [e, _json_value(p[e])]
                            for e in sorted(p, reverse=True)
                        ],
                        "Q": [
                            [e, _json_value(q[e])]
                            for e in sorted(q, reverse=True)
                        ],
                        "series": [
                            [e, _json_value(expansion[e])]
                            for e in sorted(expansion, reverse=True)
                        ],
                    }
                    for which, p, q, expansion in blocks
                ],
            }
        )
    elif args.format == "csv":
        header = ["component", "part", "exponent", "numerator", "denominator"]
        rows = []
        for which, p, q, expansion in blocks:
            for part, coeffs in (("P", p), ("Q", q), ("series", expansion)):
                for e in sorted(coeffs, reverse=True):
                    num, den = num_den(coeffs[e])
                    rows.append([which, part, e, num, den])
        text = _csv_table(header, rows)
    else:
        lines = []
        for which, p, q, expansion in blocks:
            lines.append(f"{which}[{label}] = P c + Q q")
            lines.append(f"  P: {_poly_str(p)}")
            lines.append(f"  Q: {_poly_str(q)}")
            lines.append(f"  expansion to z^{-depth}: {_poly_str(expansion)}")
        text = "".join(line + "\n" for line in lines)
    _write(args.out, text)
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
    failures = [r for r in results if not r.ok]
    if args.format == "json":
        text = _dump_json(
            [
                {"name": r.name, "ok": r.ok, "detail": r.detail}
                for r in results
            ]
        )
    elif args.format == "csv":
        rows = [[r.name, "ok" if r.ok else "fail", r.detail] for r in results]
        text = _csv_table(["name", "status", "detail"], rows)
    else:
        lines = []
        for r in results:
            if r.ok:
                lines.append(f"ok    {r.name}")
            else:
                lines.append(f"FAIL  {r.name}: {r.detail}")
        lines.append(
            f"{len(results)} checks, {len(failures)} failed (depth {depth})"
        )
        text = "".join(line + "\n" for line in lines)
    _write(args.out, text)
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
            "--workers", type=int, default=1, help="parallel table workers"
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

    p = subs.add_parser("kappa", help="one mixed kappa-tau correlator")
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
