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

Truncation budgets: for target windows [lo_i, hi_i] per variable in
magnitude order, the positive powers a variable can absorb are bounded by the
exports of the larger ones, each export being capped by its own window and
by y^1, the top term of M.  That yields one matrix floor per pass (the
deepest any variable needs) and per-edge expansion caps, fixed by the
windows alone, under which every retained coefficient is exact; each pass
calls the matrix factory once, and verify=True recomputes with widened
budgets and insists on equality.  The n-point function is symmetric in its
variables, so the magnitude order is free, but the budgets are not: a
variable's depth sinks by the exports of every larger variable, and each
export grows as its window deepens.  So callers give the windows in any
order, and npoint_window traces them shallowest first (largest lo first)
and hands the keys back in the caller's order.

The coefficient ring only needs +, *, unary minus, truth testing and the
`numerator` and `denominator` of a Fraction, so the same engine drives plain
rationals and s-polynomial coefficients (a SparsePoly carries both).  Each
pass clears denominators before tracing: `_build_mat` scales the one
factory matrix by L, the lcm of its denominators, to integer coefficients
(Python ints, or s-polynomials over the ints), so the trace runs with no gcd
per product, and each accumulated key is divided by L^n once (the trace is
linear in each of its n matrix factors).  Every variable reads that matrix:
a term deeper than its own variable needs is still a true coefficient of M,
and the key ranges drop each product that uses one (none reaches the box).

Inside one cyclic ordering a partial key is a single Python int: field v
holds exponent v plus a bias, with a field width taken from the largest
exponent that the factors before a step can reach and the windows still
allow after it.  A matrix term adds one precomputed packed delta, and an
edge term y_small^m y_big^{-m-1} adds a fixed step per m.  Each product loop
walks only the exponents that keep a key inside the box: a matrix factor
cuts each sorted entry to the exponents that lead from its variable's range
before it to the range after it, each key bisects a slice of that cut, and
the edge index m runs over the one interval the windows leave.  The
per-variable ranges alone bound the key's total, so the key holds no field
for it.  Keys are unpacked to exponent tuples once, when the ordering's
term returns.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from itertools import permutations, repeat
from math import lcm
from operator import itemgetter

from .rationals import rat
from .series import add_into


_EXP = itemgetter(0)  # the exponent of an (exponent, coefficient) term


class TruncationInstability(RuntimeError):
    """Recomputation with widened truncation budgets changed a coefficient."""


def cycle_classes(n: int) -> list[tuple[tuple[int, ...], int]]:
    """Representatives of cyclic orderings of n variables, paired with the
    multiplicity 2 when the reversed ordering is a distinct class: for n >= 3
    each (0,) + p with p[0] < p[-1] stands for itself and its reverse."""
    if n < 2:
        raise ValueError("cyclic sum needs n >= 2")
    if n == 2:
        return [((0, 1), 1)]
    return [((0,) + p, 2) for p in permutations(range(1, n)) if p[0] < p[-1]]


def budgets(
    windows: list[tuple[int, int]], *, widen: int = 0
) -> tuple[int, list[int]]:
    """The matrix floor of a pass and the export cap per variable, for
    windows in magnitude order (largest variable first).

    M^2 = y Id with leading part [[0, -1], [-y, 0]], so M tops out at y^1,
    in its lower-left entry; a matrix with a lower top gets wider budgets
    than it needs.  With pos_v the positive powers variable v can absorb
    from the larger ones, no term below lo_v - pos_v reaches v's window,
    export_v = 1 + pos_v - lo_v and pos_{v+1} = pos_v + export_v =
    2 pos_v + 1 - lo_v (at widen = 0); the floor is min_v(lo_v - pos_v).
    A deep window placed early therefore sinks the floor, doubled at each
    step; npoint_window passes its windows shallowest first, which keeps
    the budgets smallest.  widen > 0 loosens every bound (for the
    verification pass).
    """
    floors, exports = [], []
    pos_total = 0
    for lo, hi in windows:
        pos = pos_total + widen
        floors.append(lo - pos)
        exports.append(1 + pos - lo + widen)
        pos_total += exports[-1]
    return min(floors), exports


def _class_term(cycle, mat, exports, windows, n):
    """Coefficient dict of one cyclic ordering's trace over the target box."""
    ent = [it for row in mat for it in row if it]
    if not ent:  # the floor is above the matrix's top term: no product
        return {}
    mat_lo = min(it[0][0] for it in ent)
    mat_hi = max(it[-1][0] for it in ent)
    # ordered factor list: matrix then edge expansion for each cycle position;
    # each carries its per-variable exponent intervals, and the totals of
    # those bound what later factors can still add to a partial key
    factors = []
    for j, v in enumerate(cycle):
        factors.append(("mat", v, ((v, mat_lo, mat_hi),)))
        a, b = v, cycle[(j + 1) % n]
        big, small = (a, b) if a < b else (b, a)
        sign = 1 if a == big else -1
        cap = exports[big]
        factors.append(
            ("geo", (big, small, sign), ((big, -cap - 1, -1), (small, 0, cap)))
        )
    tot_lo, tot_hi = [0] * n, [0] * n
    for v, add_lo, add_hi in (add for fac in factors for add in fac[2]):
        tot_lo[v] += add_lo
        tot_hi[v] += add_hi
    # after each factor, the exponent range a kept key may hold in each
    # variable it touched: what the factors so far can reach, cut by what the
    # later ones can still add (the totals minus the prefix).  An empty range
    # leaves no product.
    ranges = []
    pre_lo, pre_hi = [0] * n, [0] * n
    for fac in factors:
        var = {}
        for v, add_lo, add_hi in fac[2]:
            pre_lo[v] += add_lo
            pre_hi[v] += add_hi
            lo = max(pre_lo[v], windows[v][0] - tot_hi[v] + pre_hi[v])
            hi = min(pre_hi[v], windows[v][1] - tot_lo[v] + pre_lo[v])
            if lo > hi:
                return {}
            var[v] = (lo, hi)
        ranges.append(var)

    # a partial key is one int: field v holds exponent v plus the bias.
    # Between two touches of v no factor moves v's exponent or its range, so
    # every kept exponent lies in a range above (an untouched one is 0), and
    # no field ever borrows from or carries into the next
    reach = max(abs(x) for var in ranges for pair in var.values() for x in pair)
    width = reach.bit_length() + 1
    bias = 1 << (width - 1)
    mask = (1 << width) - 1
    zero_key = sum(bias << (v * width) for v in range(n))

    P = [[{zero_key: 1}, {}], [{}, {zero_key: 1}]]
    for j, (fac, var) in enumerate(zip(factors, ranges)):
        new = [[{}, {}], [{}, {}]]
        if fac[0] == "mat":
            # exponent e of variable v moves field v by e, so each term is
            # one packed delta.  A key enters with v in its range before this
            # factor (the edge into v touched it; 0 at the first factor) and
            # leaves within var[v], so each entry is cut to the e that can
            # bridge the two, and per key to a slice of that
            v = fac[1]
            win_lo, win_hi = var[v]
            prev_lo, prev_hi = ranges[j - 1][v] if j else (0, 0)
            v_shift = v * width
            unit = 1 << v_shift
            e_lo, e_hi = win_lo - prev_hi, win_hi - prev_lo
            cut = [
                [it[bisect_left(it, e_lo, key=_EXP) : bisect_right(it, e_hi, key=_EXP)]
                 for it in row]
                for row in mat
            ]
            rows = [
                [([e for e, _ in it], [(e * unit, c) for e, c in it]) for it in row]
                for row in cut
            ]
            for i in range(2):
                for k in range(2):
                    pe = P[i][k]
                    if not pe:
                        continue
                    targets = [
                        (exps, terms, new[i][kk])
                        for kk, (exps, terms) in enumerate(rows[k])
                        if terms
                    ]
                    for key, c1 in pe.items():
                        kv = ((key >> v_shift) & mask) - bias
                        lo = win_lo - kv
                        hi = win_hi - kv
                        for exps, terms, dst in targets:
                            a = bisect_left(exps, lo)
                            for d, c2 in terms[a : bisect_right(exps, hi, a)]:
                                nk = key + d
                                s = dst.get(nk)
                                s = c1 * c2 if s is None else s + c1 * c2
                                if s:
                                    dst[nk] = s
                                else:
                                    # a capped coefficient ring can produce a
                                    # zero product for a key never stored
                                    dst.pop(nk, None)
        else:
            # y_small^m y_big^{-m-1}: m walks the one interval that keeps
            # both fields inside their ranges
            big, small, sign = fac[1]
            blo, bhi = var[big]
            slo, shi = var[small]
            big_shift = big * width
            small_shift = small * width
            step = (1 << small_shift) - (1 << big_shift)
            drop = 1 << big_shift
            for i in range(2):
                for k in range(2):
                    pe = P[i][k]
                    if not pe:
                        continue
                    dst = new[i][k]
                    for key, c1 in pe.items():
                        kb = ((key >> big_shift) & mask) - bias
                        ks = ((key >> small_shift) & mask) - bias
                        # plain comparisons cost less than max/min calls
                        m_lo = kb - 1 - bhi
                        if slo - ks > m_lo:
                            m_lo = slo - ks
                        if m_lo < 0:
                            m_lo = 0
                        m_hi = kb - 1 - blo
                        # m <= exports[big] needs no test: the ranges imply it
                        if shi - ks < m_hi:
                            m_hi = shi - ks
                        if m_lo > m_hi:
                            continue
                        c1s = -c1 if sign < 0 else c1
                        first = key - drop + m_lo * step
                        for nk in range(first, first + (m_hi - m_lo + 1) * step, step):
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
    shifts = [v * width for v in range(n)]
    return {
        tuple(((key >> sh) & mask) - bias for sh in shifts): c for key, c in out.items()
    }


def _compute(n, windows, scale, mat, exports, classes, pool=None):
    cycles = [cyc for cyc, _ in classes]
    terms = (map if pool is None else pool.map)(
        _class_term, cycles, repeat(mat), repeat(exports), repeat(windows), repeat(n)
    )
    acc: dict = {}
    for (cyc, weight), term in zip(classes, terms):
        for key, c in term.items():
            add_into(acc, key, -weight * c)
    inv = rat(1, scale**n)
    acc = {key: c * inv for key, c in acc.items()}
    if n == 2:
        # subtract the expansion of (y_1+y_2)/(y_1-y_2)^2
        lo0, hi0 = windows[0]
        lo1, hi1 = windows[1]
        for m in range(max(0, lo1), hi1 + 1):
            if lo0 <= -m - 1 <= hi0:
                add_into(acc, (-m - 1, m), -(2 * m + 1))
    return acc


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
    any order, free to reach above the matrix's top term (an ordering that
    leaves a variable no matrix term adds no keys).  The trace and the verify
    pass expand them in the magnitude order that puts the shallowest window
    first (largest lo; equal lo keep their order), where the budgets are
    smallest (see budgets), and every key is mapped back to the order given.
    mat_factory(floor) must return the 2x2 matrix M as {exponent: coefficient}
    dicts in y, complete down to `floor`, with no term above y^1 (else
    ValueError); it is called once per pass.  Returns {(e_1, ..., e_n):
    coefficient} including only nonzero entries.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    windows = [tuple(w) for w in windows]
    if len(windows) != n:
        raise ValueError(f"{len(windows)} windows for {n} variables")
    if any(lo > hi for lo, hi in windows):
        raise ValueError("empty window")
    # the n-point function is symmetric, so any magnitude order gives the
    # same coefficients; shallowest first keeps every budget smallest
    order = sorted(range(n), key=lambda v: -windows[v][0])
    windows = [windows[v] for v in order]
    floor, exports = budgets(windows)
    classes = cycle_classes(n)
    # one pool serves the trace and the verify pass; it may start all its
    # workers at once, and any beyond one per class would only idle
    pool_size = min(workers, len(classes))
    with (
        ProcessPoolExecutor(max_workers=pool_size) if pool_size > 1 else nullcontext()
    ) as pool:
        result = _compute(
            n, windows, *_build_mat(mat_factory, floor), exports, classes, pool
        )
        if verify:
            floor2, exports2 = budgets(windows, widen=4)
            floor2 = min(floor2, 2 * floor)
            exports2 = [max(e2, 2 * e1) for e1, e2 in zip(exports, exports2)]
            check = _compute(
                n, windows, *_build_mat(mat_factory, floor2), exports2, classes, pool
            )
    if verify and check != result:
        changed = sum(
            1
            for key in set(check) | set(result)
            if check.get(key) != result.get(key)
        )
        raise TruncationInstability(
            f"widened truncation changed {changed} coefficients"
        )
    if order != sorted(order):
        # entry j of a traced key is the exponent of the caller's variable
        # order[j], so the caller's variable v reads entry back[v]
        back = sorted(range(n), key=order.__getitem__)
        result = {tuple(key[j] for j in back): c for key, c in result.items()}
    return result


def _build_mat(mat_factory, floor):
    """(L, mat): the factory's matrix at `floor` as sorted (exponent,
    coefficient) lists, cut at the floor and scaled by L, the lcm of its
    denominators, to integer coefficients.  One matrix serves every
    variable of the pass.  The budgets assume no term above y^1, so one
    raises ValueError."""
    ent = mat_factory(floor)
    if any(e > 1 for row in ent for it in row for e in it):
        raise ValueError("matrix factory returned a term above y^1")
    mat = [
        [sorted(t for t in ent[i][k].items() if t[0] >= floor) for k in range(2)]
        for i in range(2)
    ]
    scale = lcm(*(c.denominator for row in mat for it in row for _, c in it))
    return scale, [
        [[(e, c.numerator * (scale // c.denominator)) for e, c in it] for it in row]
        for row in mat
    ]


__all__ = [
    "TruncationInstability",
    "cycle_classes",
    "budgets",
    "npoint_window",
]
