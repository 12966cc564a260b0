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
reads the factory's matrix at its floor, and verify=True recomputes with
widened budgets and insists on equality.  The n-point function is symmetric
in its variables, so the magnitude order is free, but the budgets are not: a
variable's depth sinks by the exports of every larger variable, and each
export grows as its window deepens.  So callers give the windows in any
order, and npoint_window traces them shallowest first (largest lo first)
and hands the keys back in the caller's order.

The coefficients are rationals (int or Fraction), or SparsePoly
polynomials of one class (the s-polynomials of the kappa and WP waves,
Theta's jet polynomials), and the trace multiplies only ints either way.
Each pass reads the one factory matrix with the series kernel's reader
(`series._factor` and `_scaled`): `_build_mat` scales it by L, the lcm of
its denominators, and turns each coefficient into one (y-exponent, packed
monomial, int) term per monomial, so the trace runs with no gcd and no
polynomial product, and `_compute` divides each accumulated key by L^n once
(the trace is linear in each of its n matrix factors) and unpacks a
polynomial key's monomials (`series._unpack`) back into the ring's class and
weight cap.  A rational is the constant monomial: its read has no field.
A read with no field is a constant of the factory and the floor
(`_read_mat`), made on the first pass at a floor and reused by every later
one, main or verify, and held per factory, weakly: a module function's
reads last for the process, and a closure's go when the closure does.  A
read with fields is sized for its pass's n and made for that pass alone.
Every variable reads that matrix: a term deeper than its own variable needs
is still a true coefficient of M, and the key ranges drop each product that
uses one (none reaches the box).

Inside one cyclic ordering a partial key is a single Python int: its low
bits pack the monomial, each ring variable in its own field, and above them
field v holds y-exponent v plus a bias, with a field width taken from the
largest exponent that the factors before a step can reach and the windows
still allow after it.  A matrix term adds one precomputed packed delta, and
an edge term y_small^m y_big^{-m-1} adds a fixed step per m.  Each product
loop walks only the exponents that keep a key inside the box: a matrix
factor cuts each sorted entry to the exponents that lead from its
variable's range before it to the range after it, each key bisects a slice
of that cut, and the edge index m runs over the one interval the windows
leave.  The per-variable ranges alone bound the key's total, so the key
holds no field for it.  Over a capped ring the partial keys are held by
weight and an entry's terms are grouped by weight, so a product above the
cap is skipped a group at a time and never formed.  Keys are unpacked to
exponent tuples once, when the ordering's term returns.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, islice, permutations
from operator import itemgetter
from weakref import WeakKeyDictionary

from .rationals import rat
from .series import _NO_CAP, _factor, _scaled, _unpack, add_into


_EXP = itemgetter(0)  # a term's exponent, or the weight of (weight, term ...)


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


def _class_term(cycle, mat, cap, low, exports, windows, n):
    """Coefficient dict of one cyclic ordering's trace over the target box,
    over `_build_mat`'s int matrix whose packed monomials take the `low`
    bits of a key.  Keys are the n y-exponents, then the packed monomial if
    low > 0, and no product of weight above `cap` is formed (0 for a ring
    whose weights all read 0)."""
    groups = [grp for row in mat for it in row for grp in it]
    if not groups:  # the floor is above the matrix's top term: no product
        return {}
    mat_lo = min(terms[0][0] for _, terms in groups)
    mat_hi = max(terms[-1][0] for _, terms in groups)
    # ordered factor list: matrix then edge expansion for each cycle position;
    # each carries its per-variable exponent intervals, and the totals of
    # those bound what later factors can still add to a partial key
    factors = []
    for j, v in enumerate(cycle):
        factors.append(("mat", v, ((v, mat_lo, mat_hi),)))
        a, b = v, cycle[(j + 1) % n]
        big, small = (a, b) if a < b else (b, a)
        sign = 1 if a == big else -1
        export = exports[big]
        factors.append(
            ("geo", (big, small, sign), ((big, -export - 1, -1), (small, 0, export)))
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

    # a partial key is one int: its `low` bits hold the packed monomial, and
    # field v above them y-exponent v plus the bias.  Between two touches of
    # v no factor moves v's exponent or its range, so every kept exponent
    # lies in a range above (an untouched one is 0), and no field ever
    # borrows from or carries into the next
    reach = max(abs(x) for var in ranges for pair in var.values() for x in pair)
    width = reach.bit_length() + 1
    bias = 1 << (width - 1)
    mask = (1 << width) - 1
    shifts = [low + v * width for v in range(n)]
    zero_key = sum(bias << sh for sh in shifts)

    # P maps a state (i, k, weight) to the partial keys of matrix entry
    # (i, k) whose monomials have that weight; no product of weight above
    # the cap is formed
    P = {(0, 0, 0): {zero_key: 1}, (1, 1, 0): {zero_key: 1}}
    for j, (fac, var) in enumerate(zip(factors, ranges)):
        new = {}
        if fac[0] == "mat":
            # exponent e of variable v moves field v by e and a monomial m
            # the low bits by m, so each term is one packed delta.  A key
            # enters with v in its range before this factor (the edge into v
            # touched it; 0 at the first factor) and leaves within var[v], so
            # each weight group is cut to the e that can bridge the two, and
            # per key to a slice of that
            v = fac[1]
            win_lo, win_hi = var[v]
            prev_lo, prev_hi = ranges[j - 1][v] if j else (0, 0)
            unit = 1 << shifts[v]
            e_lo, e_hi = win_lo - prev_hi, win_hi - prev_lo
            rows = [
                [
                    (kk, w, [e for e, _, _ in cut],
                     [(e * unit + m, c) for e, m, c in cut])
                    for kk, it in enumerate(row)
                    for w, terms in it
                    if (cut := terms[bisect_left(terms, e_lo, key=_EXP)
                                     : bisect_right(terms, e_hi, key=_EXP)])
                ]
                for row in mat
            ]
            v_shift = shifts[v]
            for (i, k, kw), pe in P.items():
                targets = [
                    (exps, terms, new.setdefault((i, kk, kw + w), {}))
                    for kk, w, exps, terms in rows[k]
                    if kw + w <= cap
                ]
                for key, c1 in pe.items():
                    kv = ((key >> v_shift) & mask) - bias
                    lo = win_lo - kv
                    hi = win_hi - kv
                    for exps, terms, dst in targets:
                        # ints multiply to 0 only from a 0 coefficient, and
                        # _compute drops every key that sums to 0
                        a = bisect_left(exps, lo)
                        for d, c2 in terms[a : bisect_right(exps, hi, a)]:
                            nk = key + d
                            s = dst.get(nk)
                            if s is None:
                                dst[nk] = c1 * c2
                            elif s := s + c1 * c2:
                                dst[nk] = s
                            else:
                                del dst[nk]
        else:
            # y_small^m y_big^{-m-1}: m walks the one interval that keeps
            # both fields inside their ranges
            big, small, sign = fac[1]
            blo, bhi = var[big]
            slo, shi = var[small]
            big_shift = shifts[big]
            small_shift = shifts[small]
            step = (1 << small_shift) - (1 << big_shift)
            drop = 1 << big_shift
            for state, pe in P.items():
                dst = new[state] = {}
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
                        if s is None:
                            dst[nk] = c1s
                        elif s := s + c1s:
                            dst[nk] = s
                        else:
                            del dst[nk]
        P = new
    # the trace sums the diagonal entries; keys of different weights differ
    diag = [pe for (i, k, _), pe in P.items() if i == k]
    out = diag.pop() if diag else {}
    for pe in diag:
        for key, c in pe.items():
            add_into(out, key, c)
    if not low:
        return {
            tuple([((key >> sh) & mask) - bias for sh in shifts]): c
            for key, c in out.items()
        }
    low_mask = (1 << low) - 1
    return {
        (*[((key >> sh) & mask) - bias for sh in shifts], key & low_mask): c
        for key, c in out.items()
    }


def _compute(n, windows, scale, zero, width, low, mat, exports, classes):
    cap = 0 if zero is None else zero.cap or 0
    acc: dict = {}
    for cyc, weight in classes:
        for key, c in _class_term(cyc, mat, cap, low, exports, windows, n).items():
            add_into(acc, key, -weight * c)
    den = scale**n
    if zero is None:
        acc = {key: rat(c, den) for key, c in acc.items()}
    else:
        # gather each y-key's monomials back into one polynomial of the
        # ring's class and cap; with no monomial bits (constants only) a key
        # is the y-exponents alone
        polys: dict = {}
        for key, c in acc.items():
            mono = _unpack(key[n], width) if low else ()
            polys.setdefault(key[:n], {})[mono] = rat(c, den)
        acc = {key: zero._make(terms, zero.cap) for key, terms in polys.items()}
    if n == 2:
        # subtract the expansion of (y_1+y_2)/(y_1-y_2)^2
        one = 1 if zero is None else zero._make({(): rat(1)}, zero.cap)
        lo0, hi0 = windows[0]
        lo1, hi1 = windows[1]
        for m in range(max(0, lo1), hi1 + 1):
            if lo0 <= -m - 1 <= hi0:
                add_into(acc, (-m - 1, m), -(2 * m + 1) * one)
    return acc


def npoint_window(
    n: int,
    windows: list[tuple[int, int]],
    mat_factory,
    *,
    verify: bool = False,
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
    ValueError), and the same matrix at a floor for as long as the factory
    lives.  Its coefficients are rationals, or SparsePoly polynomials of one
    class (else TypeError), whose variables the trace packs into key fields;
    a capped polynomial ring keeps its smallest cap, and no term above it is
    formed.  A rational factory that takes a weak reference is called at
    most once per floor, in this call or another; any other, once per pass
    (_read_mat).
    Returns
    {(e_1, ..., e_n): coefficient} including only nonzero entries, each a
    rational, or a polynomial of the factory's class with that cap.
    """
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
    result = _compute(n, windows, *_read_mat(mat_factory, floor, n), exports, classes)
    if verify:
        floor2, exports2 = budgets(windows, widen=4)
        floor2 = min(floor2, 2 * floor)
        exports2 = [max(e2, 2 * e1) for e1, e2 in zip(exports, exports2)]
        check = _compute(
            n, windows, *_read_mat(mat_factory, floor2, n), exports2, classes
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
    if order != sorted(order):
        # entry j of a traced key is the exponent of the caller's variable
        # order[j], so the caller's variable v reads entry back[v]
        back = sorted(range(n), key=order.__getitem__)
        result = {tuple(key[j] for j in back): c for key, c in result.items()}
    return result


# factory -> {floor: read}, the field-free reads of every factory still alive
_READS: WeakKeyDictionary = WeakKeyDictionary()


def _read_mat(mat_factory, floor, n):
    """`_build_mat` of the factory at `floor`.  A read with no monomial field
    (width 0: rationals, or polynomials that are all constants) is the same
    for every n, so it is held and returned to every later pass at that
    floor; a read with fields is made for its pass and dropped.  A held read
    is shared, so only ever read.  A factory that takes no weak reference is
    read on every pass."""
    try:
        reads = _READS.setdefault(mat_factory, {})
    except TypeError:
        return _build_mat(mat_factory, floor, n)
    read = reads.get(floor)
    if read is None:
        read = _build_mat(mat_factory, floor, n)
        if not read[2]:
            reads[floor] = read
    return read


def _build_mat(mat_factory, floor, n):
    """(L, zero, width, low, mat): the factory's matrix at `floor`, cut at
    the floor and read by the series kernel's reader (`series._factor` and
    `_scaled`) into int terms (e, m, c L) for an n-point pass, where L is the
    lcm of the denominators and m a packed monomial: each monomial of a
    coefficient of y^e is one term.

    Over SparsePoly coefficients of one class (else TypeError), zero is an
    empty polynomial of that class at the smallest cap, and each monomial is
    packed at `width` bits a variable, wide enough for the product of n
    terms, into the `low` bits of a key; a term above the cap is dropped,
    and an uncapped ring weighs every term 0.  A rational is the constant
    monomial of an uncapped ring of no class: zero is None, width and low
    are 0, and c of y^e is the one term (e, 0, c L).  Each entry of mat is a
    list of (weight, terms) groups by rising weight, with its terms sorted
    by exponent.  One matrix serves every variable of the pass.  The budgets
    assume no term above y^1, so one raises ValueError."""
    ent = mat_factory(floor)
    if any(e > 1 for row in ent for it in row for e in it):
        raise ValueError("matrix factory returned a term above y^1")
    cut = [sorted(t for t in it.items() if t[0] >= floor) for row in ent for it in row]
    scale, _, proto, top, cap, rows = _factor(chain.from_iterable(cut), None)
    zero = None if proto is None else proto._make({}, None if cap == _NO_CAP else cap)
    # a key's exponents are sums of n terms' exponents, which never go below 0
    width = (n * top).bit_length()
    weight = None if cap == _NO_CAP else proto._weight
    rows = iter(_scaled(rows, scale, width, weight))
    groups, top_key = [], 0
    for it in cut:
        by_weight: dict = {}
        for e, _, _, _, items in islice(rows, len(it)):
            for w, key, c in items:
                if w <= cap:
                    by_weight.setdefault(w, []).append((e, key, c))
                    if key > top_key:
                        top_key = key
        groups.append(sorted(by_weight.items()))
    # a key's monomial is a sum of n packed ones, which never carries, so it
    # is at most n times the largest
    low = (n * top_key).bit_length()
    return scale, zero, width, low, [groups[:2], groups[2:]]


__all__ = [
    "TruncationInstability",
    "cycle_classes",
    "budgets",
    "npoint_window",
]
