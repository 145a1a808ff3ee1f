"""Bitmask kernels for property checks and exhaustive sweeps.

Everything in this module works on a flat encoding over plain ints: a poset
with n elements is a sequence of up-set masks (bit j of up[i] means
i <= j, self bit included), a contraction map is a sequence of values with
the sentinel value ns standing for the adjoined top element, and chains are
membership masks. property_bits and monotone_maps also take numpy int64
arrays.

Two primitives carry every sweep and search. `monotone_maps` lists the
monotone maps of a poset pair as a list of value tuples, in the
lexicographic order whose list indices sweeps and searches report and
replays look up. `_maximal_dchains` lists the maximal chains inside a set
of elements; on the elements that contract into a chain D these are the
maximal D-chains the theorems speak about, and on all elements the maximal
chains of the poset. The chains D of s are computed once per poset pair
and passed down.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

# The kernels are plain Python; perfbench records this in its `env` line.
NUMBA_ENABLED = False


# Property bits reported by property_bits().
PROP_LO = 1
PROP_INC = 2
PROP_GU = 4
PROP_GD = 8
PROP_SGB = 16
PROP_GB = 32
PROP_UNITARY = 64

# Theorem dispatch codes for eval_theorem / sweep_pair.
TID_T_COVER_MAXCHAIN = 0
TID_C_PERFECT_MAXCHAIN = 1
TID_L_LO_EXISTENCE = 2
TID_P_LAYERS = 3
TID_P_MINI_GD = 4
TID_P_MINI_GU = 5
TID_P_MINI_SGB = 6
TID_C_GGD = 7
TID_C_GGU_DUAL = 8
TID_T_MAXDCHAIN_COVERS = 9
TID_T_PERFECT_COVER = 10
TID_C_EQUIVALENT = 11
TID_L_MAXCOVER_MAXCHAIN = 12
TID_C_MAXDCHAIN_MAXCHAIN = 13
TID_C_EXISTS_MAXCHAIN_COVER = 14
TID_X_KO_SCLO_EQ_GU = 15

# Goal codes for search_pair.
GOAL_LO_FAILS = 0
GOAL_MAXDCHAIN_NOT_COVER = 1
GOAL_MAXDCHAIN_NOT_PERFECT = 2


def _down_masks(n, up):
    return [sum(1 << j for j in range(n) if up[j] >> i & 1) for i in range(n)]


def _comp_masks(n, up, down):
    return [up[i] | down[i] for i in range(n)]


def _is_chain(comp, mask):
    # every member is comparable with every other member
    m = mask
    while m:
        low = m & -m
        if mask & ~comp[low.bit_length() - 1]:
            return False
        m ^= low
    return True


def _chain_masks(n, comp):
    # ascending, so the empty chain comes first
    return [mask for mask in range(1 << n) if _is_chain(comp, mask)]


def _maximal_chain_masks(n, up, down):
    # maximal chains of the whole poset, ascending; none when it is empty
    if n == 0:
        return []
    return _maximal_dchains(up, down, (1 << n) - 1)[::-1]


def _is_maximal_sub(comp, allowed, sub):
    # no one-element extension inside `allowed` stays a chain
    rest = allowed & ~sub
    x = 0
    while rest:
        if rest & 1:
            if (sub & ~comp[x]) == 0:
                return False
        rest >>= 1
        x += 1
    return True


def _maximal_dchains(up, down, allowed):
    """Maximal chains inside the elements of `allowed`, in descending order.

    A maximal chain starts at a minimal element x of its universe and goes
    on as a maximal chain of the universe strictly above x, so the descent
    visits each maximal chain once. When `allowed` is empty the empty chain
    is the only one, and so maximal. Callers that stop at the first chain
    with some defect rely on the descending order for their clause codes.
    """
    out = []
    prefixes = [0]
    universes = [allowed]
    while prefixes:
        prefix = prefixes.pop()
        universe = universes.pop()
        if universe == 0:
            out.append(prefix)
            continue
        m = universe
        x = 0
        while m:
            if m & 1 and (down[x] & universe) == 1 << x:
                prefixes.append(prefix | 1 << x)
                universes.append(universe & up[x] & ~(1 << x))
            m >>= 1
            x += 1
    out.sort(reverse=True)
    return out


def _allowed_mask(ns, nr, cmap, d_mask):
    # elements whose contraction is a (non-top) member of D
    allowed = 0
    for q in range(nr):
        c = cmap[q]
        if c != ns and (d_mask >> c & 1):
            allowed |= 1 << q
    return allowed


def _image_mask(nr, cmap, c_mask):
    img = 0
    for q in range(nr):
        if c_mask >> q & 1:
            img |= 1 << cmap[q]
    return img


def _end_of_chain(masks, d_mask):
    # the member of D whose row holds all of D: the least member when
    # `masks` are up masks, the greatest when they are down masks
    m = d_mask
    i = 0
    while m:
        if m & 1:
            if (d_mask & ~masks[i]) == 0:
                return i
        m >>= 1
        i += 1
    return -1


def _ext_leq(s_up, ns, a, b):
    # order on s extended by a top value encoded as ns
    if b == ns:
        return True
    if a == ns:
        return False
    return (s_up[a] >> b & 1) == 1


def prop_unitary(ns, nr, cmap):
    for q in range(nr):
        if cmap[q] == ns:
            return False
    return True


def prop_lo(ns, nr, cmap):
    for p in range(ns):
        hit = False
        for q in range(nr):
            if cmap[q] == p:
                hit = True
                break
        if not hit:
            return False
    return True


def prop_inc(ns, s_up, nr, r_up, cmap):
    for q1 in range(nr):
        for q2 in range(nr):
            if q1 == q2 or not (r_up[q1] >> q2 & 1):
                continue
            c2 = cmap[q2]
            if c2 == ns:
                continue
            c1 = cmap[q1]
            if c1 == ns or c1 == c2 or not (s_up[c1] >> c2 & 1):
                return False
    return True


def prop_gu(ns, s_up, nr, r_up, cmap):
    for p1 in range(ns):
        for p2 in range(ns):
            if p1 == p2 or not (s_up[p1] >> p2 & 1):
                continue
            for q1 in range(nr):
                if cmap[q1] != p1:
                    continue
                found = False
                for q2 in range(nr):
                    if q2 != q1 and (r_up[q1] >> q2 & 1) and cmap[q2] == p2:
                        found = True
                        break
                if not found:
                    return False
    return True


def prop_gd(ns, s_up, nr, r_up, cmap):
    for p1 in range(ns):
        for p2 in range(ns):
            if p1 == p2 or not (s_up[p1] >> p2 & 1):
                continue
            for q2 in range(nr):
                if cmap[q2] != p2:
                    continue
                found = False
                for q1 in range(nr):
                    if q1 != q2 and (r_up[q1] >> q2 & 1) and cmap[q1] == p1:
                        found = True
                        break
                if not found:
                    return False
    return True


def prop_sgb(ns, s_up, nr, r_up, cmap):
    for p1 in range(ns):
        for p2 in range(ns):
            if p1 == p2 or not (s_up[p1] >> p2 & 1):
                continue
            for p3 in range(ns):
                if p3 == p2 or not (s_up[p2] >> p3 & 1):
                    continue
                for q1 in range(nr):
                    if cmap[q1] != p1:
                        continue
                    for q3 in range(nr):
                        if q3 == q1 or cmap[q3] != p3 or not (r_up[q1] >> q3 & 1):
                            continue
                        found = False
                        for q2 in range(nr):
                            if (
                                q2 != q1
                                and q2 != q3
                                and cmap[q2] == p2
                                and (r_up[q1] >> q2 & 1)
                                and (r_up[q2] >> q3 & 1)
                            ):
                                found = True
                                break
                        if not found:
                            return False
    return True


def prop_gb(ns, s_up, nr, r_up, cmap):
    # guarded form: both endpoint contractions must be proper (not top)
    for q1 in range(nr):
        for q3 in range(nr):
            if q1 == q3 or not (r_up[q1] >> q3 & 1):
                continue
            c1 = cmap[q1]
            c3 = cmap[q3]
            if c1 == ns or c3 == ns:
                continue
            between = False
            for p in range(ns):
                if (
                    p != c1
                    and p != c3
                    and (s_up[c1] >> p & 1)
                    and (s_up[p] >> c3 & 1)
                ):
                    between = True
                    break
            if not between:
                continue
            found = False
            for q2 in range(nr):
                if (
                    q2 != q1
                    and q2 != q3
                    and (r_up[q1] >> q2 & 1)
                    and (r_up[q2] >> q3 & 1)
                ):
                    found = True
                    break
            if not found:
                return False
    return True


def _end_lift_code(ns, s_ends, s_chains, nr, r_up, r_down, cmap):
    """Covers of each nonempty chain D through the lifts of one end of D.

    The end is the least member of D for s_ends = s_up and the greatest for
    s_ends = s_down. Returns 1 when some lift of the end lies on no maximal
    D-chain covering D (a cover through it would extend to such a maximal
    one), else 2 when some maximal D-chain through a lift is not a cover,
    else 0.
    """
    code = 0
    for d in s_chains[1:]:
        e = _end_of_chain(s_ends, d)
        lifts = 0
        for q in range(nr):
            if cmap[q] == e:
                lifts |= 1 << q
        covering = 0
        other = 0
        for c in _maximal_dchains(r_up, r_down, _allowed_mask(ns, nr, cmap, d)):
            if _image_mask(nr, cmap, c) == d:
                covering |= c
            else:
                other |= c
        if lifts & ~covering:
            return 1
        if lifts & other:
            code = 2
    return code


def prop_sclo(ns, s_up, s_chains, nr, r_up, r_down, cmap):
    # every element over the least member of a chain D starts a cover of D
    return _end_lift_code(ns, s_up, s_chains, nr, r_up, r_down, cmap) != 1


def prop_ggd(ns, s_down, s_chains, nr, r_up, r_down, cmap):
    # dual: every element over the greatest member of D ends a cover of D
    return _end_lift_code(ns, s_down, s_chains, nr, r_up, r_down, cmap) != 1


def prop_chain_morphism(ns, s_chains, nr, r_up, r_down, cmap):
    # every chain in s is covered by some chain in r, and so by a maximal
    # D-chain: extending a cover inside D keeps its image
    for d in s_chains[1:]:
        found = False
        for c in _maximal_dchains(r_up, r_down, _allowed_mask(ns, nr, cmap, d)):
            if _image_mask(nr, cmap, c) == d:
                found = True
                break
        if not found:
            return False
    return True


def layer_holds(n, ns, s_chains, nr, r_up, r_down, cmap):
    # every maximal D-chain over every n-element chain D has exactly n elements
    for d in s_chains:
        if d.bit_count() != n:
            continue
        for c in _maximal_dchains(r_up, r_down, _allowed_mask(ns, nr, cmap, d)):
            if c.bit_count() != n:
                return False
    return True


def property_bits(ns, s_up, nr, r_up, cmap):
    bits = 0
    if prop_lo(ns, nr, cmap):
        bits |= PROP_LO
    if prop_inc(ns, s_up, nr, r_up, cmap):
        bits |= PROP_INC
    if prop_gu(ns, s_up, nr, r_up, cmap):
        bits |= PROP_GU
    if prop_gd(ns, s_up, nr, r_up, cmap):
        bits |= PROP_GD
    if prop_sgb(ns, s_up, nr, r_up, cmap):
        bits |= PROP_SGB
    if prop_gb(ns, s_up, nr, r_up, cmap):
        bits |= PROP_GB
    if prop_unitary(ns, nr, cmap):
        bits |= PROP_UNITARY
    return bits


def _bracketed(ns, s_up, nr, cmap, d_mask, lower, upper):
    # each member p of D lies below the contraction of some member of
    # `lower` or above the contraction of some member of `upper`
    for p in range(ns):
        if not (d_mask >> p & 1):
            continue
        ok = False
        for q in range(nr):
            if (lower >> q & 1) and (s_up[p] >> cmap[q] & 1):
                ok = True
                break
            if (upper >> q & 1) and (s_up[cmap[q]] >> p & 1):
                ok = True
                break
        if not ok:
            return False
    return True


def _mini_rhs(tid, ns, s_up, s_chains, nr, r_up, r_down, cmap):
    # the chain condition of P_MINI_GD, P_MINI_GU or P_MINI_SGB on every
    # nonempty maximal D-chain: each member of D lies above some contraction
    # of the chain (GD), below one (GU), or across each proper cut (SGB)
    for d in s_chains[1:]:
        allowed = _allowed_mask(ns, nr, cmap, d)
        if allowed == 0:
            continue
        for c in _maximal_dchains(r_up, r_down, allowed):
            if tid == TID_P_MINI_GD:
                if not _bracketed(ns, s_up, nr, cmap, d, 0, c):
                    return False
            elif tid == TID_P_MINI_GU:
                if not _bracketed(ns, s_up, nr, cmap, d, c, 0):
                    return False
            else:
                for x in range(nr):
                    if not (c >> x & 1):
                        continue
                    left = c & r_down[x]
                    if left != c and not _bracketed(ns, s_up, nr, cmap, d, left, c & ~left):
                        return False
    return True


def _all_max_dchains_cover(ns, s_chains, nr, r_up, r_down, cmap):
    for d in s_chains[1:]:
        for c in _maximal_dchains(r_up, r_down, _allowed_mask(ns, nr, cmap, d)):
            if c != 0 and _image_mask(nr, cmap, c) != d:
                return False
    return True


def _iff_code(lhs, rhs):
    # clause code of a biconditional: 1 when only the left side holds
    if lhs == rhs:
        return 0
    return 1 if lhs else 2


def eval_theorem(
    tid,
    waive,
    ns,
    s_up,
    s_down,
    s_comp,
    nr,
    r_up,
    r_down,
    r_comp,
    cmap,
    s_chain_masks,
    s_max_chains,
    r_max_chains,
):
    """Evaluate one theorem on one instance.

    Returns 0 when the statement holds on the instance (including the case
    of an unmet hypothesis, unless `waive` forces the conclusion to be
    checked anyway) and a positive clause code otherwise.
    """
    if tid == TID_T_COVER_MAXCHAIN or tid == TID_C_PERFECT_MAXCHAIN:
        if not waive:
            hyp = (
                prop_unitary(ns, nr, cmap)
                and prop_gu(ns, s_up, nr, r_up, cmap)
                and prop_gd(ns, s_up, nr, r_up, cmap)
                and prop_sgb(ns, s_up, nr, r_up, cmap)
            )
            if tid == TID_C_PERFECT_MAXCHAIN:
                hyp = hyp and prop_inc(ns, s_up, nr, r_up, cmap)
            if not hyp:
                return 0
        for cm in r_max_chains:
            img = 0
            has_top = False
            for q in range(nr):
                if cm >> q & 1:
                    if cmap[q] == ns:
                        has_top = True
                        break
                    img |= 1 << cmap[q]
            if has_top:
                return 1
            if not _is_chain(s_comp, img):
                return 2
            if not _is_maximal_sub(s_comp, (1 << ns) - 1, img):
                return 3
            if tid == TID_C_PERFECT_MAXCHAIN and cm.bit_count() != img.bit_count():
                return 4
        return 0

    if tid == TID_L_LO_EXISTENCE:
        lhs = prop_lo(ns, nr, cmap)
        rhs = True
        for d in s_chain_masks[1:]:
            if _allowed_mask(ns, nr, cmap, d) == 0:
                rhs = False
                break
        return _iff_code(lhs, rhs)

    if tid == TID_P_LAYERS:
        lo = prop_lo(ns, nr, cmap)
        inc = prop_inc(ns, s_up, nr, r_up, cmap)
        l1 = layer_holds(1, ns, s_chain_masks, nr, r_up, r_down, cmap)
        if l1 != (lo and inc):
            return 1
        gu = prop_gu(ns, s_up, nr, r_up, cmap)
        gd = prop_gd(ns, s_up, nr, r_up, cmap)
        l2 = layer_holds(2, ns, s_chain_masks, nr, r_up, r_down, cmap)
        if (l1 and l2) != (lo and inc and gu and gd):
            return 2
        sgb = prop_sgb(ns, s_up, nr, r_up, cmap)
        l3 = layer_holds(3, ns, s_chain_masks, nr, r_up, r_down, cmap)
        if (l1 and l2 and l3) != (lo and inc and gu and gd and sgb):
            return 3
        return 0

    if tid == TID_P_MINI_GD or tid == TID_P_MINI_GU or tid == TID_P_MINI_SGB:
        if tid == TID_P_MINI_GD:
            lhs = prop_gd(ns, s_up, nr, r_up, cmap)
        elif tid == TID_P_MINI_GU:
            lhs = prop_gu(ns, s_up, nr, r_up, cmap)
        else:
            lhs = prop_sgb(ns, s_up, nr, r_up, cmap)
        return _iff_code(lhs, _mini_rhs(tid, ns, s_up, s_chain_masks, nr, r_up, r_down, cmap))

    if tid == TID_C_GGD:
        if not waive:
            if not (prop_gd(ns, s_up, nr, r_up, cmap) and prop_sgb(ns, s_up, nr, r_up, cmap)):
                return 0
        return _end_lift_code(ns, s_down, s_chain_masks, nr, r_up, r_down, cmap)

    if tid == TID_C_GGU_DUAL:
        if not waive:
            if not (prop_gu(ns, s_up, nr, r_up, cmap) and prop_sgb(ns, s_up, nr, r_up, cmap)):
                return 0
        return _end_lift_code(ns, s_up, s_chain_masks, nr, r_up, r_down, cmap)

    if tid == TID_T_MAXDCHAIN_COVERS:
        lhs = (
            prop_gd(ns, s_up, nr, r_up, cmap)
            and prop_gu(ns, s_up, nr, r_up, cmap)
            and prop_sgb(ns, s_up, nr, r_up, cmap)
        )
        rhs = _all_max_dchains_cover(ns, s_chain_masks, nr, r_up, r_down, cmap)
        return _iff_code(lhs, rhs)

    if tid == TID_T_PERFECT_COVER:
        if not waive:
            hyp = (
                prop_lo(ns, nr, cmap)
                and prop_inc(ns, s_up, nr, r_up, cmap)
                and prop_gu(ns, s_up, nr, r_up, cmap)
                and prop_gd(ns, s_up, nr, r_up, cmap)
                and prop_sgb(ns, s_up, nr, r_up, cmap)
            )
            if not hyp:
                return 0
        for d in s_chain_masks:
            for c in _maximal_dchains(r_up, r_down, _allowed_mask(ns, nr, cmap, d)):
                if _image_mask(nr, cmap, c) != d:
                    return 1
                if c.bit_count() != d.bit_count():
                    return 2
        return 0

    if tid == TID_C_EQUIVALENT:
        cond2 = (
            prop_lo(ns, nr, cmap)
            and prop_inc(ns, s_up, nr, r_up, cmap)
            and prop_gu(ns, s_up, nr, r_up, cmap)
            and prop_gd(ns, s_up, nr, r_up, cmap)
            and prop_sgb(ns, s_up, nr, r_up, cmap)
        )
        cond1 = True
        cond3 = True
        cond4 = True
        for d in s_chain_masks:
            k = d.bit_count()
            for c in _maximal_dchains(r_up, r_down, _allowed_mask(ns, nr, cmap, d)):
                sz = c.bit_count()
                if sz != k:
                    cond4 = False
                    if 1 <= k <= 3:
                        cond1 = False
                if sz != k or _image_mask(nr, cmap, c) != d:
                    cond3 = False
        bits = 0
        if cond1:
            bits |= 1
        if cond2:
            bits |= 2
        if cond3:
            bits |= 4
        if cond4:
            bits |= 8
        if bits == 0 or bits == 15:
            return 0
        return bits + 1

    if tid == TID_L_MAXCOVER_MAXCHAIN:
        if not waive and not prop_unitary(ns, nr, cmap):
            return 0
        for d in s_max_chains:
            for c in _maximal_dchains(r_up, r_down, _allowed_mask(ns, nr, cmap, d)):
                if _image_mask(nr, cmap, c) == d and not _is_maximal_sub(
                    r_comp, (1 << nr) - 1, c
                ):
                    return 1
        return 0

    if tid == TID_C_MAXDCHAIN_MAXCHAIN or tid == TID_C_EXISTS_MAXCHAIN_COVER:
        if not waive:
            hyp = (
                prop_unitary(ns, nr, cmap)
                and prop_gd(ns, s_up, nr, r_up, cmap)
                and prop_gu(ns, s_up, nr, r_up, cmap)
                and prop_sgb(ns, s_up, nr, r_up, cmap)
            )
            if tid == TID_C_EXISTS_MAXCHAIN_COVER:
                hyp = hyp and prop_lo(ns, nr, cmap)
            if not hyp:
                return 0
        for d in s_max_chains:
            witnessed = False
            for c in _maximal_dchains(r_up, r_down, _allowed_mask(ns, nr, cmap, d)):
                if c == 0:
                    continue
                covers = _image_mask(nr, cmap, c) == d
                maximal = _is_maximal_sub(r_comp, (1 << nr) - 1, c)
                if tid == TID_C_MAXDCHAIN_MAXCHAIN:
                    if not covers:
                        return 1
                    if not maximal:
                        return 2
                elif covers and maximal:
                    witnessed = True
            if tid == TID_C_EXISTS_MAXCHAIN_COVER and not witnessed:
                return 1
        return 0

    if tid == TID_X_KO_SCLO_EQ_GU:
        if not waive and not prop_unitary(ns, nr, cmap):
            return 0
        lhs = prop_sclo(ns, s_up, s_chain_masks, nr, r_up, r_down, cmap)
        return _iff_code(lhs, prop_gu(ns, s_up, nr, r_up, cmap))

    return -1  # unknown theorem id


def _map_value_ok(ns, s_up, nr, r_up, cmap, pos, v):
    for j in range(pos):
        if r_up[j] >> pos & 1:
            if not _ext_leq(s_up, ns, cmap[j], v):
                return False
        if r_up[pos] >> j & 1:
            if not _ext_leq(s_up, ns, v, cmap[j]):
                return False
    return True


def monotone_maps(ns, s_up, nr, r_up, allow_top):
    """Every monotone map r -> s (+ top) as a list of value tuples.

    The tuples are in lexicographic order, s indices first, then the top
    sentinel ns when allow_top is set. A map's list index is the map index
    that sweeps and searches report.
    """
    if nr == 0:
        return [()]
    nvals = ns + 1 if allow_top else ns
    maps = []
    cmap = [0] * nr
    pos = 0
    val = 0
    while True:
        v = val
        while v < nvals and not _map_value_ok(ns, s_up, nr, r_up, cmap, pos, v):
            v += 1
        if v < nvals:
            cmap[pos] = v
            if pos == nr - 1:
                maps.append(tuple(cmap))
                val = v + 1
            else:
                pos += 1
                val = 0
        else:
            pos -= 1
            if pos < 0:
                break
            val = cmap[pos] + 1
    return maps


def count_monotone_maps(ns, s_up, nr, r_up, allow_top):
    """Number of monotone maps for one poset pair."""
    return len(monotone_maps(ns, s_up, nr, r_up, allow_top))


def _sweep_maps(tid, waive, ns, s_up, nr, r_up, allow_top):
    """Evaluate a theorem over the monotone maps of one poset pair.

    Returns (maps in the pair, index of the first violating map or -1, its
    clause code). Evaluation stops at the first violating map.
    """
    s_down = _down_masks(ns, s_up)
    s_comp = _comp_masks(ns, s_up, s_down)
    r_down = _down_masks(nr, r_up)
    r_comp = _comp_masks(nr, r_up, r_down)
    s_chain_masks = _chain_masks(ns, s_comp)
    s_max_chains = _maximal_chain_masks(ns, s_up, s_down)
    r_max_chains = _maximal_chain_masks(nr, r_up, r_down)
    maps = monotone_maps(ns, s_up, nr, r_up, allow_top)
    for k, cmap in enumerate(maps):
        code = eval_theorem(
            tid, waive, ns, s_up, s_down, s_comp, nr, r_up, r_down, r_comp,
            cmap, s_chain_masks, s_max_chains, r_max_chains,
        )
        if code != 0:
            return len(maps), k, code
    return len(maps), -1, 0


@lru_cache(maxsize=None)
def _canonical_encoding(rows: tuple[int, ...]) -> tuple[int, ...]:
    """Least relabeling of the strict up masks `rows` over all permutations."""
    n = len(rows)
    best = None
    for perm in permutations(range(n)):
        img = [0] * n
        for i in range(n):
            m = rows[i]
            v = 0
            while m:
                j = (m & -m).bit_length() - 1
                v |= 1 << perm[j]
                m &= m - 1
            img[perm[i]] = v
        enc = tuple(img)
        if best is None or enc < best:
            best = enc
    return best


def _iso_class(up) -> tuple[int, ...]:
    """Canonical form of the poset with up masks `up` (self bits included)."""
    return _canonical_encoding(tuple(m & ~(1 << i) for i, m in enumerate(up)))


def sweep_pair(tid, waive, ns, s_up, nr, r_up, allow_top, memo=None):
    """Evaluate a theorem over every monotone map for one poset pair.

    Maps are the tuples of monotone_maps. Returns (maps checked, index of the
    first violating map or -1, its clause code).

    Verdicts are invariant under relabeling s and r, which permutes the maps
    one-to-one. `memo`, a dict owned by one sweep (one tid, waive and
    allow_top), records the isomorphism classes of pairs that came out
    clean, so a later pair of the same class returns its map count without
    evaluating a map. A violating class is never recorded: every pair of it
    is evaluated, and its first violating map index is exact for that
    labeling.
    """
    if memo is None:
        return _sweep_maps(tid, waive, ns, s_up, nr, r_up, allow_top)
    key = (_iso_class(s_up), _iso_class(r_up))
    count = memo.get(key)
    if count is not None:
        return count, -1, 0
    count, first_bad, code = _sweep_maps(tid, waive, ns, s_up, nr, r_up, allow_top)
    if first_bad < 0:
        memo[key] = count
    return count, first_bad, code


def _goal_met(goal_id, goal_size, ns, s_chains, nr, r_up, r_down, cmap):
    if goal_id == GOAL_LO_FAILS:
        return not prop_lo(ns, nr, cmap)
    for d in s_chains[1:]:
        if goal_size > 0 and d.bit_count() != goal_size:
            continue
        for c in _maximal_dchains(r_up, r_down, _allowed_mask(ns, nr, cmap, d)):
            if _image_mask(nr, cmap, c) != d:
                return True
            if goal_id == GOAL_MAXDCHAIN_NOT_PERFECT and c.bit_count() != d.bit_count():
                return True
    return False


def _search_maps(ns, s_up, nr, r_up, allow_top, need_bits, forbid_bits, goal_id, goal_size):
    """First monotone map meeting the flag and goal constraints, if any.

    Returns (maps scanned, index of the hit or -1). Scanning stops at the
    first hit, so a hit at index k reports k+1 scanned.
    """
    s_chains = _chain_masks(ns, _comp_masks(ns, s_up, _down_masks(ns, s_up)))
    r_down = _down_masks(nr, r_up)
    maps = monotone_maps(ns, s_up, nr, r_up, allow_top)
    for k, cmap in enumerate(maps):
        bits = property_bits(ns, s_up, nr, r_up, cmap)
        if bits & need_bits == need_bits and bits & forbid_bits == 0:
            if _goal_met(goal_id, goal_size, ns, s_chains, nr, r_up, r_down, cmap):
                return k + 1, k
    return len(maps), -1


def search_pair(
    ns, s_up, nr, r_up, allow_top, need_bits, forbid_bits, goal_id, goal_size,
    memo=None,
):
    """First monotone map meeting the flag and goal constraints, if any.

    Returns (maps scanned, index of the hit or -1). Scanning stops at the
    first hit, so a hit at index k reports k+1 scanned.

    `memo` works as in sweep_pair, for one search (one set of the other
    arguments): a class without a hit is recorded and skipped on later
    pairs; a class with a hit is scanned on every pair.
    """
    args = (ns, s_up, nr, r_up, allow_top, need_bits, forbid_bits, goal_id, goal_size)
    if memo is None:
        return _search_maps(*args)
    key = (_iso_class(s_up), _iso_class(r_up))
    count = memo.get(key)
    if count is not None:
        return count, -1
    count, hit = _search_maps(*args)
    if hit < 0:
        memo[key] = count
    return count, hit
