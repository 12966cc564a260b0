"""Exact expansion of the cyclic trace sums that build n-point functions.

Everything in sight is even in each spectral variable, so the engine works in
squared variables y_i = z_i^2.  The n-point function (n >= 2) is minus the sum
over cyclic orderings c of

    Tr(M(y_{c_1}) ... M(y_{c_n})) / prod_j (y_{c_j} - y_{c_{j+1}})

expanded in the fixed region |y_1| > ... > |y_n|, with the two-point case
subtracting the extra (y_1 + y_2)/(y_1 - y_2)^2 term.  Each 1/(y_a - y_b)
with a the larger variable expands as sum_{m>=0} y_b^m y_a^{-m-1}.  Reversing
a cyclic ordering changes neither the trace times denominator (transposing
the matrix product conjugates by [[0,1],[-1,0]] up to (-1)^n, and the
denominator product picks up the same sign), so orderings are summed in
reversal pairs.

Truncation budgets: for target windows [lo_i, hi_i] per variable (magnitude
order), the positive powers a variable can absorb are bounded by the exports
of the larger ones, each export being capped by its own window and the top
matrix exponent.  That yields per-variable matrix floors and per-edge
expansion caps under which every retained coefficient is exact;
verify=True recomputes with widened budgets and insists on equality.

The coefficient ring only needs +, *, unary minus and truth testing, so the
same engine drives plain rationals and s-polynomial coefficients.  Rationals
are the hot case, and there `_compute` clears denominators before tracing:
every matrix coefficient is multiplied by L, the lcm of all denominators of
the n matrices, so the trace runs over Python ints with no gcd per product,
and each accumulated key is divided by L^n once (the trace is linear in each
of its n matrix factors).  Coefficients without numerator/denominator, such
as s-polynomials, pass through unscaled; the engine itself stays generic.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from itertools import permutations
from math import lcm

from .rationals import rat
from .series import add_into


class TruncationInstability(RuntimeError):
    """Recomputation with widened truncation budgets changed a coefficient."""


def cycle_classes(n: int) -> list[tuple[tuple[int, ...], int]]:
    """Representatives of cyclic orderings of n variables, paired with the
    multiplicity 2 when the reversed ordering is a distinct class."""
    if n < 2:
        raise ValueError("cyclic sum needs n >= 2")
    reps = []
    seen = set()
    for p in permutations(range(1, n)):
        cyc = (0,) + p
        if cyc in seen:
            continue
        rev = (0,) + tuple(reversed(p))
        seen.add(cyc)
        seen.add(rev)
        reps.append((cyc, 1 if cyc == rev else 2))
    return reps


def budgets(
    windows: list[tuple[int, int]], mat_top: int, widen: int = 0
) -> tuple[list[int], list[int]]:
    """Matrix floors per variable and export caps per variable.

    widen > 0 loosens every bound (for the verification pass).
    """
    floors, exports = [], []
    pos_total = 0
    for lo, hi in windows:
        pos = pos_total + widen
        floors.append(lo - pos)
        exports.append(mat_top + pos - lo + widen)
        pos_total += exports[-1]
    return floors, exports


def _suffix_bounds(factors, n):
    """Per-variable and total exponent intervals addable by factor suffixes."""
    lo = [0] * n
    hi = [0] * n
    out = [None] * (len(factors) + 1)
    out[len(factors)] = (tuple(lo), tuple(hi), 0, 0)
    for idx in range(len(factors) - 1, -1, -1):
        for v, add_lo, add_hi in factors[idx][2]:
            lo[v] += add_lo
            hi[v] += add_hi
        out[idx] = (tuple(lo), tuple(hi), sum(lo), sum(hi))
    return out


def _class_term(cycle, mats, geo_items, windows, n):
    """Coefficient dict of one cyclic ordering's trace over the target box."""
    total_lo = sum(lo for lo, _ in windows)
    total_hi = sum(hi for _, hi in windows)
    # ordered factor list: matrix then edge expansion for each cycle position;
    # each carries its per-variable exponent intervals, whose suffix sums
    # bound what later factors can still add to a partial key
    factors = []
    for j, v in enumerate(cycle):
        ent = mats[v]
        mat_lo = min(min(e for e, _ in it) for it in _flat(ent) if it)
        mat_hi = max(max(e for e, _ in it) for it in _flat(ent) if it)
        factors.append(("mat", v, ((v, mat_lo, mat_hi),)))
        a, b = v, cycle[(j + 1) % n]
        big, small = (a, b) if a < b else (b, a)
        items = geo_items[(big, small)]
        sign = 1 if a == big else -1
        cap = max(m for _, m, _ in items)
        factors.append(
            ("geo", (big, small, sign), ((big, -cap - 1, -1), (small, 0, cap)))
        )
    bounds = _suffix_bounds(factors, n)

    zero_key = (0,) * n
    P = [[{zero_key: 1}, {}], [{}, {zero_key: 1}]]
    for idx, fac in enumerate(factors):
        rlo, rhi, rtlo, rthi = bounds[idx + 1]
        if fac[0] == "mat":
            v = fac[1]
            mat = mats[v]
            win_lo = windows[v][0] - rhi[v]
            win_hi = windows[v][1] - rlo[v]
            new = [[{}, {}], [{}, {}]]
            for i in range(2):
                for k in range(2):
                    pe = P[i][k]
                    if not pe:
                        continue
                    for kk in range(2):
                        it = mat[k][kk]
                        if not it:
                            continue
                        dst = new[i][kk]
                        for key, c1 in pe.items():
                            kv = key[v]
                            tot = sum(key)
                            pre = key[:v]
                            post = key[v + 1 :]
                            for e, c2 in it:
                                ne = kv + e
                                if ne < win_lo or ne > win_hi:
                                    continue
                                nt = tot + e
                                if nt + rthi < total_lo or nt + rtlo > total_hi:
                                    continue
                                nk = pre + (ne,) + post
                                s = dst.get(nk)
                                s = c1 * c2 if s is None else s + c1 * c2
                                if s:
                                    dst[nk] = s
                                else:
                                    # a capped coefficient ring can produce a
                                    # zero product for a key never stored
                                    dst.pop(nk, None)
            P = new
        else:
            big, small, sign = fac[1]
            items = geo_items[(big, small)]
            blo = windows[big][0] - rhi[big]
            bhi = windows[big][1] - rlo[big]
            slo = windows[small][0] - rhi[small]
            shi = windows[small][1] - rlo[small]
            new = [[{}, {}], [{}, {}]]
            for i in range(2):
                for k in range(2):
                    pe = P[i][k]
                    if not pe:
                        continue
                    dst = new[i][k]
                    for key, c1 in pe.items():
                        kb = key[big]
                        ks = key[small]
                        tot = sum(key)
                        c1s = -c1 if sign < 0 else c1
                        for eb, es, _ in items:
                            nb = kb + eb
                            if nb < blo or nb > bhi:
                                continue
                            nsm = ks + es
                            if nsm < slo or nsm > shi:
                                continue
                            nt = tot + eb + es
                            if nt + rthi < total_lo or nt + rtlo > total_hi:
                                continue
                            nk = list(key)
                            nk[big] = nb
                            nk[small] = nsm
                            nk = tuple(nk)
                            s = dst.get(nk)
                            s = c1s if s is None else s + c1s
                            if s:
                                dst[nk] = s
                            else:
                                dst.pop(nk, None)
            P = new
    out = P[0][0]
    for key, c in P[1][1].items():
        add_into(out, key, c)
    return out


def _flat(mat):
    return [mat[0][0], mat[0][1], mat[1][0], mat[1][1]]


def _geo_expansions(n, exports):
    """Edge expansions sum_m y_small^m y_big^{-m-1} as (e_big, e_small, m)."""
    out = {}
    for big in range(n):
        for small in range(big + 1, n):
            cap = exports[big]
            out[(big, small)] = [(-m - 1, m, m) for m in range(cap + 1)]
    return out


def _clear_denominators(mats):
    """(L, mats times L as ints) when every coefficient is a rational, with L
    the lcm of all denominators; (None, mats) otherwise."""
    scale = 1
    for mat in mats:
        for it in _flat(mat):
            for _, c in it:
                try:
                    scale = lcm(scale, c.denominator)
                except AttributeError:
                    return None, mats
    scaled = [
        [
            [
                [(e, c.numerator * (scale // c.denominator)) for e, c in it]
                for it in row
            ]
            for row in mat
        ]
        for mat in mats
    ]
    return scale, scaled


def _compute(n, windows, mats, exports, workers=1):
    classes = cycle_classes(n)
    geo_items = _geo_expansions(n, exports)
    scale, mats = _clear_denominators(mats)
    if workers > 1 and len(classes) > 1:
        payloads = [
            (cyc, mats, geo_items, windows, n) for cyc, _ in classes
        ]
        # the pool may start all its workers at once; any beyond one per
        # class would only idle
        pool_size = min(workers, len(classes))
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            terms = list(pool.map(_class_term_payload, payloads))
    else:
        terms = [_class_term(cyc, mats, geo_items, windows, n) for cyc, _ in classes]
    acc: dict = {}
    for (cyc, weight), term in zip(classes, terms):
        for key, c in term.items():
            add_into(acc, key, -weight * c)
    if scale is not None:
        den = scale**n
        acc = {key: rat(c, den) for key, c in acc.items()}
    if n == 2:
        # subtract the expansion of (y_1+y_2)/(y_1-y_2)^2
        lo0, hi0 = windows[0]
        lo1, hi1 = windows[1]
        for m in range(max(0, lo1), hi1 + 1):
            if lo0 <= -m - 1 <= hi0:
                add_into(acc, (-m - 1, m), -(2 * m + 1))
    return acc


def _class_term_payload(payload):
    return _class_term(*payload)


def npoint_window(
    n: int,
    windows: list[tuple[int, int]],
    mat_factory,
    *,
    verify: bool = False,
    workers: int = 1,
):
    """Coefficients of the n-point function over a target exponent box.

    windows: per-variable [lo, hi] ranges of y-exponents, one per variable in
    decreasing magnitude order.  mat_factory(floor) must return the 2x2 matrix
    M as {exponent: coefficient} dicts in y, complete down to `floor`.
    Returns {(e_1, ..., e_n): coefficient} including only nonzero entries.
    """
    windows = [tuple(w) for w in windows]
    if any(lo > hi for lo, hi in windows):
        raise ValueError("empty window")
    probe = mat_factory(-1)
    mat_top = max(max(e for e in ent) for row in probe for ent in row if ent)
    floors, exports = budgets(windows, mat_top)
    mats = _build_mats(mat_factory, floors)
    result = _compute(n, windows, mats, exports, workers=workers)
    if verify:
        floors2, exports2 = budgets(windows, mat_top, widen=4)
        floors2 = [min(f2, 2 * f1) for f1, f2 in zip(floors, floors2)]
        exports2 = [max(e2, 2 * e1) for e1, e2 in zip(exports, exports2)]
        check = _compute(
            n, windows, _build_mats(mat_factory, floors2), exports2, workers=workers
        )
        if check != result:
            changed = sum(
                1
                for key in set(check) | set(result)
                if check.get(key) != result.get(key)
            )
            raise TruncationInstability(
                f"widened truncation changed {changed} coefficients"
            )
    return result


def _build_mats(mat_factory, floors):
    """Each variable's matrix as sorted (exponent, coefficient) lists, cut at
    its own floor.  One factory call at the deepest floor serves them all:
    the factory is complete down to the floor it is given, so each slice
    equals the matrix the factory would build at that variable's floor."""
    ent = mat_factory(min(floors))
    full = [[sorted(ent[i][k].items()) for k in range(2)] for i in range(2)]
    return [
        [[[(e, c) for e, c in it if e >= fl] for it in row] for row in full]
        for fl in floors
    ]


__all__ = [
    "TruncationInstability",
    "cycle_classes",
    "budgets",
    "npoint_window",
]
