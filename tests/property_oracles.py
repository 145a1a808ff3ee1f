"""Oracles kept from earlier implementations.

Scalar property deciders: element-by-element loops over the definitions
of LO, INC, GU, GD, SGB, GB and unitarity. Tests compare
`_kernels.property_bits`, which decides the same flags with preimage masks,
with them. Posets are up masks (bit j of up[i] means i <= j), a map is a
sequence of values with ns standing for TOP.

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
