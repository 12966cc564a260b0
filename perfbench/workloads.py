"""Benchmark inputs, generated from a seed, and the checks on their outputs.

A request is a JSON object the child process executes:

    {"op": "cli", "argv": [...]}                      kdvcorr.cli.main(argv)
    {"op": "theta_matrix", "K": K}                    diffpoly.theta_matrix(K)
    {"op": "two_point_general", "p": p, "q": q}       diffpoly.two_point_general(
                                                          p, q, p + q + 3)

The seed chooses the indices of the point queries; the program sees only the
generated requests.  Checks compare every output against ``oracles`` (no
kdvcorr code) or, for three-point entries beyond the recursion's reach, the
release table in tests/data.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial
from pathlib import Path

import oracles

WORKLOADS = ("psi-tables", "wp-volumes", "point-queries", "jet-identities")

# Sizes keep a round near 5 s on a 2-core host, so that a run holds several
# rounds, and every single request under about 3 s, so that host-speed
# probes (hostspeed.py) bracket short stretches of work.  Point-queries keeps
# at least 200 requests, so that ten or more lie beyond p95.
PSI_TABLES = (("3", "16", "1"), ("4", "7", "1"), ("5", "4", "2"))  # n, k_max, workers
WP_VOLUMES = ((1, 2), (1, 3), (2, 1), (2, 2))
SELFTEST_DEPTH = 16
THETA_K = 16
SWEEP_MAX = 7  # two_point_general over p <= q, p + q <= SWEEP_MAX
QUERIES_PER_STRATUM = 8
TAU_MAX_GENUS = {2: 6, 3: 6, 4: 4}  # by width
KAPPA_MAX_GENUS = {1: 4, 2: 3, 3: 2}  # by number of kappa indices
KAPPA_MAX_INDEX, KAPPA_MAX_TAUS = 3, 2
# DVV reaches every value up to this genus in about a second; higher
# three-point entries with all indices >= 2 come from the release table
DVV_MAX_GENUS = 12


def make_requests(workload: str, seed: int) -> list[dict]:
    """The requests of one round.  Only point-queries depends on the seed:
    the other workloads are fixed request lists, kept in a fixed order
    because the caches they share (flow cache, Omega cache) and the garbage
    collector move latency between requests when the order changes."""
    if workload == "psi-tables":
        return [
            {"op": "cli", "argv": ["table", n, k, "--workers", w, "--format", "json"]}
            for n, k, w in PSI_TABLES
        ]
    if workload == "wp-volumes":
        return [
            {"op": "cli", "argv": ["wp", str(g), str(n), "--format", "json"]}
            for g, n in WP_VOLUMES
        ]
    if workload == "point-queries":
        return _point_queries(random.Random(f"{workload}:{seed}"))
    if workload == "jet-identities":
        sweep = [
            {"op": "two_point_general", "p": p, "q": q}
            for p in range(SWEEP_MAX + 1)
            for q in range(p, SWEEP_MAX + 1 - p)
        ]
        return [
            {"op": "cli", "argv": ["selftest", "--depth", str(SELFTEST_DEPTH),
                                   "--format", "json"]},
            {"op": "theta_matrix", "K": THETA_K},
        ] + sweep
    raise ValueError(f"unknown workload {workload!r}")


def _tau_candidates(width: int, g: int) -> list[tuple[int, ...]]:
    total = 3 * g - 3 + width
    if total < 0 or 2 * g - 2 + width <= 0:
        return []
    return [
        ks for ks in combinations_with_replacement(range(total + 1), width)
        if sum(ks) == total
    ]


def _kappa_candidates(m: int, g: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    out = []
    for lam in combinations_with_replacement(range(KAPPA_MAX_INDEX, 0, -1), m):
        for n in range(KAPPA_MAX_TAUS + 1):
            if 2 * g - 2 + n <= 0:
                continue
            rest = 3 * g - 3 + n - sum(lam)
            if rest < 0:
                continue
            for ks in combinations_with_replacement(range(rest + 1), n):
                if sum(ks) == rest:
                    out.append((lam, ks))
    return out


def _spread_sample(rng: random.Random, cands: list, count: int) -> list:
    """count draws from cands sorted by cost: one uniform draw from each of
    count equal slices, so every seed gets the same spread of costs."""
    cands = sorted(cands)
    out = []
    for i in range(count):
        lo, hi = i * len(cands) // count, (i + 1) * len(cands) // count
        out.append(cands[lo] if hi <= lo else rng.choice(cands[lo:hi]))
    return out


def _point_queries(rng: random.Random) -> list[dict]:
    """Stratified by (kind, width, genus): every seed draws the same number
    of queries from each stratum, spread over its cost range, so seeds differ
    in indices, not in mix.  Candidates sort on what a query costs: for tau
    the largest index, which sets the truncation budget; for kappa the
    number of tau insertions and the kappa indices, which set how many
    windows are traced and how wide."""
    reqs = []
    for width, max_genus in TAU_MAX_GENUS.items():
        for g in range(max_genus + 1):
            cands = [tuple(sorted(ks, reverse=True)) for ks in _tau_candidates(width, g)]
            for ks in _spread_sample(rng, cands, QUERIES_PER_STRATUM) if cands else ():
                ks = list(ks)
                rng.shuffle(ks)
                reqs.append({"op": "cli", "argv": [
                    "tau", ",".join(map(str, ks)), "--verify", "--format", "json"]})
    for m, max_genus in KAPPA_MAX_GENUS.items():
        for g in range(1, max_genus + 1):
            cands = [(len(ks), lam, tuple(sorted(ks, reverse=True)))
                     for lam, ks in _kappa_candidates(m, g)]
            for _, lam, ks in _spread_sample(rng, cands, QUERIES_PER_STRATUM) if cands else ():
                lam, ks = list(lam), list(ks)
                rng.shuffle(lam)
                rng.shuffle(ks)
                argv = ["kappa", ",".join(map(str, lam))]
                if ks:
                    argv.append(",".join(map(str, ks)))
                reqs.append({"op": "cli", "argv": argv + ["--verify", "--format", "json"]})
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# reference values


class Reference:
    """Oracle values, computed lazily once per benchmark run."""

    def __init__(self, root: Path):
        self.psi = oracles.PsiNumbers(oracles.two_point_numbers(64))
        raw = json.loads((root / "tests" / "data" / "three_point.json").read_text())
        self.frozen_three = {
            tuple(int(x) for x in key.split(",")): Fraction(int(v[0]), int(v[1]))
            for key, v in raw.items()
        }

    def tau(self, ks) -> Fraction | None:
        """<tau_ks>, or None when neither DVV nor the release table has it."""
        ks = tuple(sorted(ks))
        g = oracles.genus_of(ks)
        if len(ks) == 3 and min(ks) >= 2 and g is not None and g > DVV_MAX_GENUS:
            return self.frozen_three.get(ks)
        return self.psi(ks)


# ---------------------------------------------------------------------------
# checks: each returns None when the output is right, else a message


def _value(obj) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def check(ref: Reference, req: dict, out) -> str | None:
    if isinstance(out, dict) and "error" in out:
        return f"{req}: raised {out['error']}"
    op = req["op"]
    if op == "theta_matrix":
        return _check_theta(out)
    if op == "two_point_general":
        want = ref.psi((req["p"], req["q"]))
        got = Fraction(out)
        return None if got == want else f"<tau_{req['p']} tau_{req['q']}>: {got} != {want}"
    code, text = out["code"], out["stdout"]
    if code != 0:
        return f"{' '.join(req['argv'])}: exit code {code}"
    data = json.loads(text)
    cmd = req["argv"][0]
    if cmd == "table":
        return _check_table(ref, int(req["argv"][1]), int(req["argv"][2]), data)
    if cmd == "wp":
        return _check_wp(ref, int(req["argv"][1]), int(req["argv"][2]), data)
    if cmd == "tau":
        ks = [int(x) for x in req["argv"][1].split(",")]
        want = ref.tau(ks)
        ok = (data["indices"] == ks and data["genus"] == oracles.genus_of(ks)
              and _value(data["value"]) == want)
        return None if ok else f"tau {ks}: {data} != {want}"
    if cmd == "selftest":
        bad = [r["name"] for r in data if not r["ok"]]
        if not data or bad:
            return f"selftest failed checks: {bad or 'none ran'}"
        return None
    if cmd == "kappa":
        lam = [int(x) for x in req["argv"][1].split(",")]
        tail = req["argv"][2]
        ks = [] if tail.startswith("--") else [int(x) for x in tail.split(",")]
        want = oracles.kappa_number(ref.psi, lam, ks) / oracles.mult_factorial(lam)
        genus = oracles.genus_of([a + 1 for a in lam] + ks)
        ok = (data["kappa"] == sorted(lam, reverse=True) and data["tau"] == ks
              and data["genus"] == genus and _value(data["value"]) == want)
        return None if ok else f"kappa {lam} {ks}: {data} != {want}"
    return f"no check for {cmd}"


def _check_table(ref: Reference, n: int, k_max: int, data: list) -> str | None:
    want_keys = set()
    for ks in combinations_with_replacement(range(k_max + 1), n):
        if oracles.genus_of(ks) is not None and ref.tau(ks) != 0:
            want_keys.add(ks)
    got = {tuple(e["indices"]): e for e in data}
    if set(got) != want_keys:
        return (f"table {n} {k_max}: {len(set(got) - want_keys)} extra keys, "
                f"{len(want_keys - set(got))} missing")
    for ks, entry in got.items():
        if entry["genus"] != oracles.genus_of(ks):
            return f"table {n} {k_max}: genus of {ks} is {entry['genus']}"
        want = ref.tau(ks)
        if want is not None and _value(entry["value"]) != want:
            return f"table {n} {k_max}: {ks} = {_value(entry['value'])} != {want}"
    return None


def _check_wp(ref: Reference, g: int, n: int, data: dict) -> str | None:
    """Entry (d, K) is <kappa_1^d tau_K>; w and v divide it by d! and scale
    by prod (2k+1)!! and 1/prod k! respectively."""
    dim = 3 * g - 3 + n
    want = {}
    for ks in combinations_with_replacement(range(dim + 1), n):
        d = dim - sum(ks)
        if d >= 0:
            value = oracles.kappa_number(ref.psi, [1] * d, ks)
            if value:
                want[(d, ks)] = value / factorial(d)
    got = {(e["d"], tuple(e["indices"])): e for e in data["entries"]}
    if data["g"] != g or data["n"] != n or set(got) != set(want):
        return f"wp {g} {n}: key set differs"
    for (d, ks), entry in got.items():
        w = want[(d, ks)]
        for k in ks:
            w *= oracles.double_factorial(2 * k + 1)
        v = want[(d, ks)]
        for k in ks:
            v /= factorial(k)
        if _value(entry["w"]) != w or _value(entry["v"]) != v:
            return f"wp {g} {n}: entry {(d, ks)} differs"
    return None


def _check_theta(out) -> str | None:
    """Theta(z) at u = 0, u_x = 1 equals M(z) built from P_g, a_g, b_g."""
    for i in range(2):
        for j in range(2):
            low, coeffs = out[i][j]
            want = oracles.m_matrix_z(low)[i][j]
            got = {int(e): Fraction(v) for e, v in coeffs.items()}
            if got != want:
                diff = sorted(set(got) ^ set(want) | {
                    e for e in got if e in want and got[e] != want[e]})
                return f"Theta[{i}][{j}] differs from M at z^{diff[:5]}"
    return None
