"""Oracles kept from earlier implementations.

Scalar property deciders: element-by-element loops over the definitions
of LO, INC, GU, GD, SGB, GB and unitarity. Tests compare
`_kernels.property_bits`, which decides the same flags with preimage masks,
with them. Posets are up masks (bit j of up[i] means i <= j), a map is a
sequence of values with ns standing for TOP.

Member loops: the theorems' conclusions as loops over the members of each
chain D and maximal D-chain C. Tests compare `_kernels.eval_theorem`, whose
conclusions are mask tests over per-poset end and link tables and per-map
image tables, with them (`LOOP_THEOREMS`).

Shrink candidates built from numpy order submatrices through
`Poset.from_leq_matrix`. Tests compare `search._shrink_candidates`, which
builds them from masks, with them.
"""

import numpy as np

from chaincover import _kernels as K
from chaincover.poset import Poset, covering_pairs
from chaincover.specmap import TOP, make_spectral_map


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


def scalar_property_bits(ns, s_up, nr, r_up, cmap):
    """The property_bits word, one scalar decider per flag."""
    tests = (
        (K.PROP_LO, prop_lo(ns, nr, cmap)),
        (K.PROP_INC, prop_inc(ns, s_up, nr, r_up, cmap)),
        (K.PROP_GU, prop_gu(ns, s_up, nr, r_up, cmap)),
        (K.PROP_GD, prop_gd(ns, s_up, nr, r_up, cmap)),
        (K.PROP_SGB, prop_sgb(ns, s_up, nr, r_up, cmap)),
        (K.PROP_GB, prop_gb(ns, s_up, nr, r_up, cmap)),
        (K.PROP_UNITARY, prop_unitary(ns, nr, cmap)),
    )
    return sum(flag for flag, holds in tests if holds)


def _drop_r_element(m, q):
    r = m.r_poset
    keep = [i for i in range(r.n) if i != q]
    new_r = Poset.from_leq_matrix(
        [r.labels[i] for i in keep], r.leq[np.ix_(keep, keep)]
    )
    assignment = [None] * new_r.n
    for old in keep:
        assignment[new_r.index(r.labels[old])] = m.assignment[old]
    return make_spectral_map(m.s_poset, new_r, assignment)


def _drop_s_element(m, p):
    s = m.s_poset
    keep = [i for i in range(s.n) if i != p]
    new_s = Poset.from_leq_matrix(
        [s.labels[i] for i in keep], s.leq[np.ix_(keep, keep)]
    )
    trans = {old: new_s.index(s.labels[old]) for old in keep}
    assignment = tuple(v if v is TOP else trans[v] for v in m.assignment)
    return make_spectral_map(new_s, m.r_poset, assignment)


def _drop_pair(p, i, j):
    leq = np.array(p.leq)
    leq[i, j] = False
    return Poset.from_leq_matrix(p.labels, leq)


def _drop_r_pair(m, i, j):
    new_r = _drop_pair(m.r_poset, i, j)
    assignment = [None] * new_r.n
    for old in range(m.r_poset.n):
        assignment[new_r.index(m.r_poset.labels[old])] = m.assignment[old]
    return make_spectral_map(m.s_poset, new_r, assignment)


def _drop_s_pair(m, i, j):
    new_s = _drop_pair(m.s_poset, i, j)
    trans = {old: new_s.index(m.s_poset.labels[old]) for old in range(m.s_poset.n)}
    assignment = tuple(v if v is TOP else trans[v] for v in m.assignment)
    return make_spectral_map(new_s, m.r_poset, assignment)


def oracle_shrink_candidates(m):
    """The candidate builds of `search._shrink_candidates`, in its order."""
    if m.r_poset.n > 1:
        for q in range(m.r_poset.n):
            yield lambda q=q: _drop_r_element(m, q)
    if m.s_poset.n > 1:
        used = {v for v in m.assignment if v is not TOP}
        for p in range(m.s_poset.n):
            if p not in used:
                yield lambda p=p: _drop_s_element(m, p)
    for i, j in covering_pairs(m.r_poset):
        yield lambda i=i, j=j: _drop_r_pair(m, i, j)
    for i, j in covering_pairs(m.s_poset):
        yield lambda i=i, j=j: _drop_s_pair(m, i, j)


# Member loops, as the kernels wrote the conclusions before their end, link
# and image tables; s and r are PosetFacts records, of which only the masks,
# chains and D-chain tables are read.


def image_mask(cmap, c_mask):
    img = 0
    while c_mask:
        low = c_mask & -c_mask
        img |= 1 << cmap[low.bit_length() - 1]
        c_mask ^= low
    return img


def end_of_chain(masks, d_mask):
    """The member of D whose row in `masks` holds all of D."""
    m = d_mask
    i = 0
    while m:
        if m & 1 and d_mask & ~masks[i] == 0:
            return i
        m >>= 1
        i += 1
    return -1


def _end_lift_code(s_ends, s, r, cmap, allowed):
    code = 0
    for d in s.chains[1:]:
        lifts = allowed[1 << end_of_chain(s_ends, d)]
        covering = other = 0
        for c in r.dchains[allowed[d]]:
            if image_mask(cmap, c) == d:
                covering |= c
            else:
                other |= c
        if lifts & ~covering:
            return 1
        if lifts & other:
            code = 2
    return code


def _sclo(s, r, cmap, allowed):
    return _end_lift_code(s, s, r, cmap, allowed) != 1


def loop_chain_morphism(s, r, cmap, allowed):
    return all(
        any(image_mask(cmap, c) == d for c in r.dchains[allowed[d]]) for d in s.chains[1:]
    )


def _layer(n, s, r, allowed):
    return all(
        c.bit_count() == n
        for d in s.chains
        if d.bit_count() == n
        for c in r.dchains[allowed[d]]
    )


def _maxchain_images(perfect):
    def conclusion(s, r, cmap, bits, allowed):
        for cm in r.max_chains:
            img = image_mask(cmap, cm)
            if img >> s.n:
                return 1
            if not K._is_chain(s.comp, img):
                return 2
            if not K._is_maximal_sub(s.comp, (1 << s.n) - 1, img):
                return 3
            if perfect and cm.bit_count() != img.bit_count():
                return 4
        return 0

    return conclusion


def _iff(props, test):
    def conclusion(s, r, cmap, bits, allowed):
        left = bits & props == props
        if left == test(s, r, cmap, allowed):
            return 0
        return 1 if left else 2

    return conclusion


def _dchains_nonempty(s, r, cmap, allowed):
    return all(allowed[d] for d in s.chains[1:])


_LAYER_1 = K.PROP_LO | K.PROP_INC
_LAYER_2 = _LAYER_1 | K.PROP_GU | K.PROP_GD
_LAYER_3 = _LAYER_2 | K.PROP_SGB


def _layers(s, r, cmap, bits, allowed):
    l1 = _layer(1, s, r, allowed)
    if l1 != (bits & _LAYER_1 == _LAYER_1):
        return 1
    l2 = _layer(2, s, r, allowed)
    if (l1 and l2) != (bits & _LAYER_2 == _LAYER_2):
        return 2
    l3 = _layer(3, s, r, allowed)
    if (l1 and l2 and l3) != (bits & _LAYER_3 == _LAYER_3):
        return 3
    return 0


def _bracketed(s, cmap, d_mask, lower, upper):
    # each member p of D lies below the contraction of some member of
    # `lower` or above the contraction of some member of `upper`
    below = image_mask(cmap, lower)
    above = image_mask(cmap, upper)
    m = d_mask
    while m:
        low = m & -m
        p = low.bit_length() - 1
        if not (s[p] & below or s.down[p] & above):
            return False
        m ^= low
    return True


def _above_some(s, r, cmap, d, c):
    return _bracketed(s, cmap, d, 0, c)


def _below_some(s, r, cmap, d, c):
    return _bracketed(s, cmap, d, c, 0)


def _across_cuts(s, r, cmap, d, c):
    # each proper cut of C: its members at or below x, and those above
    for x in range(r.n):
        left = c & r.down[x]
        if c >> x & 1 and left != c and not _bracketed(s, cmap, d, left, c & ~left):
            return False
    return True


def _mini_rhs(brackets):
    def holds(s, r, cmap, allowed):
        for d in s.chains[1:]:
            if allowed[d]:
                for c in r.dchains[allowed[d]]:
                    if not brackets(s, r, cmap, d, c):
                        return False
        return True

    return holds


def _end_lifts(greatest):
    def conclusion(s, r, cmap, bits, allowed):
        return _end_lift_code(s.down if greatest else s, s, r, cmap, allowed)

    return conclusion


def _all_max_dchains_cover(s, r, cmap, allowed):
    return all(
        c == 0 or image_mask(cmap, c) == d
        for d in s.chains[1:]
        for c in r.dchains[allowed[d]]
    )


def _perfect_covers(s, r, cmap, bits, allowed):
    for d in s.chains:
        for c in r.dchains[allowed[d]]:
            if image_mask(cmap, c) != d:
                return 1
            if c.bit_count() != d.bit_count():
                return 2
    return 0


def _equivalent(s, r, cmap, bits, allowed):
    cond2 = bits & _LAYER_3 == _LAYER_3
    cond1 = cond3 = cond4 = True
    for d in s.chains:
        k = d.bit_count()
        for c in r.dchains[allowed[d]]:
            if c.bit_count() != k:
                cond3 = cond4 = False
                if 1 <= k <= 3:
                    cond1 = False
            elif image_mask(cmap, c) != d:
                cond3 = False
    held = cond1 | cond2 << 1 | cond3 << 2 | cond4 << 3
    return 0 if held in (0, 15) else held + 1


def _sclo_iff_gu(s, r, cmap, bits, allowed):
    sclo = _sclo(s, r, cmap, allowed)
    if sclo == bool(bits & K.PROP_GU):
        return 0
    return 1 if sclo else 2


def _is_maximal_chain(r, c):
    return K._is_maximal_sub(r.comp, (1 << r.n) - 1, c)


def _maxcovers_maximal(s, r, cmap, bits, allowed):
    for d in s.max_chains:
        for c in r.dchains[allowed[d]]:
            if image_mask(cmap, c) == d and not _is_maximal_chain(r, c):
                return 1
    return 0


def _maxchain_dchains_maximal(s, r, cmap, bits, allowed):
    for d in s.max_chains:
        for c in r.dchains[allowed[d]]:
            if c == 0:
                continue
            if image_mask(cmap, c) != d:
                return 1
            if not _is_maximal_chain(r, c):
                return 2
    return 0


def _maxchain_has_maximal_cover(s, r, cmap, bits, allowed):
    for d in s.max_chains:
        if not any(
            c and image_mask(cmap, c) == d and _is_maximal_chain(r, c)
            for c in r.dchains[allowed[d]]
        ):
            return 1
    return 0


#: theorem name -> (hypothesis names, conclusion); `_kernels.THEOREMS`
#: with the conclusions as member loops
LOOP_THEOREMS = {
    "T_COVER_MAXCHAIN": (("unitary", "GU", "GD", "SGB"), _maxchain_images(False)),
    "C_PERFECT_MAXCHAIN": (("unitary", "INC", "GU", "GD", "SGB"), _maxchain_images(True)),
    "L_LO_EXISTENCE": ((), _iff(K.PROP_LO, _dchains_nonempty)),
    "P_LAYERS": ((), _layers),
    "P_MINI_GD": ((), _iff(K.PROP_GD, _mini_rhs(_above_some))),
    "P_MINI_GU": ((), _iff(K.PROP_GU, _mini_rhs(_below_some))),
    "P_MINI_SGB": ((), _iff(K.PROP_SGB, _mini_rhs(_across_cuts))),
    "C_GGD": (("GD", "SGB"), _end_lifts(greatest=True)),
    "C_GGU_DUAL": (("GU", "SGB"), _end_lifts(greatest=False)),
    "T_MAXDCHAIN_COVERS": ((), _iff(K.PROP_GD | K.PROP_GU | K.PROP_SGB, _all_max_dchains_cover)),
    "T_PERFECT_COVER": (("LO", "INC", "GU", "GD", "SGB"), _perfect_covers),
    "C_EQUIVALENT": ((), _equivalent),
    "L_MAXCOVER_MAXCHAIN": (("unitary",), _maxcovers_maximal),
    "C_MAXDCHAIN_MAXCHAIN": (("unitary", "GD", "GU", "SGB"), _maxchain_dchains_maximal),
    "C_EXISTS_MAXCHAIN_COVER": (("unitary", "LO", "GD", "GU", "SGB"), _maxchain_has_maximal_cover),
    "X_KO_SCLO_EQ_GU": (("unitary",), _sclo_iff_gu),
}
