"""Scalar property deciders: element-by-element loops over the definitions
of LO, INC, GU, GD, SGB, GB and unitarity. Tests compare
`_kernels.property_bits`, which decides the same flags with preimage masks,
with them.

Posets are up masks (bit j of up[i] means i <= j), a map is a sequence of
values with ns standing for TOP.
"""

from chaincover import _kernels as K


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
