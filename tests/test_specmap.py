"""Spectral map validation, properties, and D-chain machinery.

Every property checker is cross-checked against a naive oracle written
directly from the definitions (sets and loops over the order matrix, no
bitmask tricks), over all monotone maps between all small posets.
"""

import random
from itertools import combinations, product

import numpy as np
import pytest

from chaincover import _kernels as K
from chaincover.poset import (
    ChainRecord,
    IndexOutOfRange,
    chain_from_mask,
    enumerate_chains,
    enumerate_posets,
    make_poset,
    random_poset,
)
from chaincover.specmap import (
    TOP,
    ImageChain,
    LengthMismatch,
    NotADChain,
    NotMonotone,
    SpectralMap,
    check_layer,
    check_property,
    enumerate_monotone_maps,
    image_chain,
    is_D_chain,
    is_cover,
    is_maximal_D_chain,
    is_maximal_cover,
    is_perfect_cover,
    is_unitary,
    make_spectral_map,
    maximal_D_chains,
    properties_summary,
)


def chain_poset(labels):
    return make_poset(list(labels), [(a, b) for a, b in zip(labels, labels[1:])])


def antichain(labels):
    return make_poset(list(labels), [])


def z6_to_z2_map():
    # spectra of Z/6 and Z/2 with the contraction of the reduction map
    s = antichain(["2Z6", "3Z6"])
    r = antichain(["0"])
    return make_spectral_map(s, r, (s.index("2Z6"),))


def small_instances(max_s=2, max_r=3):
    for ns in range(max_s + 1):
        for s in enumerate_posets(ns):
            for nr in range(max_r + 1):
                for r in enumerate_posets(nr):
                    yield from enumerate_monotone_maps(s, r, allow_top=True)


# naive oracles, straight from the definitions


def _strict(p, a, b):
    return a != b and p.leq[a, b]


def o_unitary(m):
    return TOP not in m.assignment


def o_lo(m):
    return all(p in m.assignment for p in range(m.s_poset.n))


def o_inc(m):
    s, r = m.s_poset, m.r_poset
    for q1, q2 in product(range(r.n), repeat=2):
        if _strict(r, q1, q2):
            c1, c2 = m.assignment[q1], m.assignment[q2]
            if c2 is TOP:
                continue
            if c1 is TOP or not _strict(s, c1, c2):
                return False
    return True


def o_gu(m):
    s, r = m.s_poset, m.r_poset
    for p1, p2 in product(range(s.n), repeat=2):
        if not _strict(s, p1, p2):
            continue
        for q1 in range(r.n):
            if m.assignment[q1] != p1:
                continue
            if not any(
                _strict(r, q1, q2) and m.assignment[q2] == p2 for q2 in range(r.n)
            ):
                return False
    return True


def o_gd(m):
    s, r = m.s_poset, m.r_poset
    for p1, p2 in product(range(s.n), repeat=2):
        if not _strict(s, p1, p2):
            continue
        for q2 in range(r.n):
            if m.assignment[q2] != p2:
                continue
            if not any(
                _strict(r, q1, q2) and m.assignment[q1] == p1 for q1 in range(r.n)
            ):
                return False
    return True


def o_sgb(m):
    s, r = m.s_poset, m.r_poset
    for p1, p2, p3 in product(range(s.n), repeat=3):
        if not (_strict(s, p1, p2) and _strict(s, p2, p3)):
            continue
        for q1, q3 in product(range(r.n), repeat=2):
            if not _strict(r, q1, q3):
                continue
            if m.assignment[q1] != p1 or m.assignment[q3] != p3:
                continue
            if not any(
                m.assignment[q2] == p2 and _strict(r, q1, q2) and _strict(r, q2, q3)
                for q2 in range(r.n)
            ):
                return False
    return True


def o_gb(m):
    s, r = m.s_poset, m.r_poset
    for q1, q3 in product(range(r.n), repeat=2):
        if not _strict(r, q1, q3):
            continue
        c1, c3 = m.assignment[q1], m.assignment[q3]
        if c1 is TOP or c3 is TOP:
            continue
        if not any(_strict(s, c1, p) and _strict(s, p, c3) for p in range(s.n)):
            continue
        if not any(
            _strict(r, q1, q2) and _strict(r, q2, q3) for q2 in range(r.n)
        ):
            return False
    return True


def allowed_elements(m, d):
    dset = set(d.members)
    return [
        q
        for q in range(m.r_poset.n)
        if m.assignment[q] is not TOP and m.assignment[q] in dset
    ]


def brute_D_chains(m, d):
    r = m.r_poset
    allowed = allowed_elements(m, d)
    out = []
    for k in range(len(allowed) + 1):
        for c in combinations(allowed, k):
            if all(r.leq[a, b] or r.leq[b, a] for a in c for b in c):
                out.append(c)
    return out


def brute_maximal_D_chains(m, d):
    r = m.r_poset
    allowed = allowed_elements(m, d)
    out = []
    for c in brute_D_chains(m, d):
        cs = set(c)
        extendable = any(
            x not in cs and all(r.leq[x, b] or r.leq[b, x] for b in c)
            for x in allowed
        )
        if not extendable:
            out.append(frozenset(c))
    return out


def o_covers(m, c_members, d):
    return {m.assignment[q] for q in c_members} == set(d.members)


def o_sclo(m):
    s = m.s_poset
    for d in enumerate_chains(s, include_empty=False):
        least = d.members[0]
        for q in range(m.r_poset.n):
            if m.assignment[q] != least:
                continue
            good = any(
                c and c[0] == q and o_covers(m, c, d) for c in brute_D_chains(m, d)
            )
            if not good:
                return False
    return True


def o_ggd(m):
    s = m.s_poset
    for d in enumerate_chains(s, include_empty=False):
        greatest = d.members[-1]
        for q in range(m.r_poset.n):
            if m.assignment[q] != greatest:
                continue
            good = any(
                c and c[-1] == q and o_covers(m, c, d) for c in brute_D_chains(m, d)
            )
            if not good:
                return False
    return True


def o_chain_morphism(m):
    for d in enumerate_chains(m.s_poset, include_empty=False):
        if not any(o_covers(m, c, d) for c in brute_D_chains(m, d)):
            return False
    return True


def o_layer(m, n):
    for d in enumerate_chains(m.s_poset, include_empty=False):
        if len(d) != n:
            continue
        for c in brute_maximal_D_chains(m, d):
            if len(c) != n:
                return False
    return True


class TestMakeSpectralMap:
    def test_identity(self):
        s = chain_poset("ab")
        m = make_spectral_map(s, s, (0, 1))
        assert m.assignment == (0, 1)

    def test_reversal_rejected(self):
        s = chain_poset("ab")
        with pytest.raises(NotMonotone) as exc:
            make_spectral_map(s, s, (1, 0))
        assert {exc.value.q1, exc.value.q2} == {0, 1}

    def test_top_is_absorbing(self):
        s = chain_poset("ab")
        r = chain_poset("xy")
        m = make_spectral_map(s, r, (0, TOP))
        assert m.assignment[1] is TOP

    def test_top_below_proper_value_rejected(self):
        s = chain_poset("ab")
        r = chain_poset("xy")
        with pytest.raises(NotMonotone):
            make_spectral_map(s, r, (TOP, 0))

    def test_length_mismatch(self):
        s = chain_poset("ab")
        with pytest.raises(LengthMismatch):
            make_spectral_map(s, s, (0,))

    def test_bad_value(self):
        s = chain_poset("ab")
        with pytest.raises(IndexOutOfRange):
            make_spectral_map(s, s, (0, 9))

    def test_bools_are_not_indices(self):
        s = chain_poset("ab")
        r = antichain("x")
        for value in (True, False, np.True_, np.False_):
            with pytest.raises(IndexOutOfRange):
                make_spectral_map(s, r, [value])
        assert make_spectral_map(s, r, [np.int64(1)]).assignment == (1,)

    def test_first_violation_matches_scalar_scan(self):
        # the scan over r.leq that the mask scan replaced is the reference
        def first_violation(s, r, assignment):
            for q1 in range(r.n):
                for q2 in range(r.n):
                    if q1 != q2 and r.leq[q1, q2]:
                        a, b = assignment[q1], assignment[q2]
                        if b is not TOP and (a is TOP or not s.leq[a, b]):
                            return q1, q2
            return None

        rng = random.Random(5)
        violations = 0
        for _ in range(3000):
            s = random_poset(rng.randint(0, 4), rng.randrange(2**32))
            r = random_poset(rng.randint(0, 5), rng.randrange(2**32))
            values = list(range(s.n)) + [TOP]
            assignment = [rng.choice(values) for _ in range(r.n)]
            want = first_violation(s, r, assignment)
            if want is None:
                assert make_spectral_map(s, r, assignment).assignment == tuple(assignment)
                continue
            violations += 1
            with pytest.raises(NotMonotone) as exc:
                make_spectral_map(s, r, assignment)
            assert (exc.value.q1, exc.value.q2) == want
            q1, q2 = want
            assert str(exc.value) == (
                f"{r.labels[q1]} <= {r.labels[q2]} but images are unrelated"
            )
        assert 300 < violations < 2700

    def test_empty_source(self):
        s = chain_poset("ab")
        r = make_poset([], [])
        m = make_spectral_map(s, r, ())
        assert is_unitary(m)

    def test_unitary(self):
        s = chain_poset("ab")
        assert is_unitary(make_spectral_map(s, s, (0, 1)))
        r = antichain("x")
        assert not is_unitary(make_spectral_map(s, r, (TOP,)))


class TestImageChain:
    def test_empty_chain(self):
        s = chain_poset("ab")
        img = image_chain(make_spectral_map(s, s, (0, 1)), ChainRecord(s, ()))
        assert img.values() == ()

    def test_identity_chain(self):
        s = chain_poset("ab")
        m = make_spectral_map(s, s, (0, 1))
        img = image_chain(m, chain_from_mask(s, 0b11))
        assert img.members == (0, 1)
        assert not img.has_top

    def test_deduplication(self):
        s = antichain("p")
        r = chain_poset("xy")
        m = make_spectral_map(s, r, (0, 0))
        img = image_chain(m, chain_from_mask(r, 0b11))
        assert img.members == (0,)
        assert len(img) == 1

    def test_top_lands_last(self):
        s = chain_poset("ab")
        r = chain_poset("xy")
        m = make_spectral_map(s, r, (0, TOP))
        img = image_chain(m, chain_from_mask(r, 0b11))
        assert img.values() == (0, TOP)
        assert len(img) == 2

    def test_inc_injective_off_top(self):
        # under INC, distinct members with proper images contract distinctly
        for m in small_instances(2, 3):
            if not check_property(m, "INC"):
                continue
            for c in enumerate_chains(m.r_poset, include_empty=True):
                proper = [q for q in c.members if m.assignment[q] is not TOP]
                img = image_chain(m, c)
                assert len(img.members) == len(proper)


class TestPropertyExamples:
    def test_identity_has_everything(self):
        s = chain_poset("abc")
        m = make_spectral_map(s, s, (0, 1, 2))
        summary = properties_summary(m)
        assert all(summary.values())

    def test_z6_to_z2(self):
        m = z6_to_z2_map()
        assert all(check_property(m, name) for name in ("GU", "GD", "SGB", "INC"))
        assert not check_property(m, "LO")
        assert not check_property(m, "chain_morphism")
        assert not check_layer(m, 1)

    def test_missing_middle_lift(self):
        s = chain_poset("abc")
        r = chain_poset("xz")
        m = make_spectral_map(s, r, (s.index("a"), s.index("c")))
        assert not check_property(m, "SGB")
        assert not check_property(m, "GB")
        assert check_property(m, "LO") is False  # b is not hit either

    def test_sclo_failure(self):
        s = chain_poset("ab")
        r = antichain("x")
        m = make_spectral_map(s, r, (s.index("a"),))
        assert not check_property(m, "SCLO")
        assert check_property(m, "GGD")  # nothing lies over the greatest element of ab

    def test_ggd_failure(self):
        s = chain_poset("ab")
        r = antichain("x")
        m = make_spectral_map(s, r, (s.index("b"),))
        assert not check_property(m, "GGD")
        assert check_property(m, "SCLO")

    def test_layer_examples(self):
        s = chain_poset("abc")
        ident = make_spectral_map(s, s, (0, 1, 2))
        for n in (1, 2, 3, 4):
            assert check_layer(ident, n)
        single = antichain("p")
        stacked = make_spectral_map(single, chain_poset("xy"), (0, 0))
        assert not check_layer(stacked, 1)
        with pytest.raises(ValueError):
            check_layer(ident, 0)

    def test_unknown_property_name(self):
        s = chain_poset("ab")
        with pytest.raises(ValueError):
            check_property(make_spectral_map(s, s, (0, 1)), "XYZ")


class TestPropertyOracles:
    def test_agreement_with_naive_definitions(self):
        oracles = {
            "LO": o_lo,
            "INC": o_inc,
            "GU": o_gu,
            "GD": o_gd,
            "SGB": o_sgb,
            "GB": o_gb,
            "SCLO": o_sclo,
            "GGD": o_ggd,
            "chain_morphism": o_chain_morphism,
        }
        checked = 0
        for m in small_instances(2, 3):
            summary = properties_summary(m)
            for name, oracle in oracles.items():
                assert summary[name] == oracle(m), (name, m.describe())
            assert summary["unitary"] == o_unitary(m)
            checked += 1
        assert checked == 985  # all monotone maps between posets of size <= (2, 3)

    def test_layer_agreement(self):
        for m in small_instances(2, 2):
            for n in (1, 2, 3):
                assert check_layer(m, n) == o_layer(m, n), (n, m.describe())

    def test_sgb_implies_gb(self):
        for m in small_instances(2, 3):
            if check_property(m, "SGB"):
                assert check_property(m, "GB"), m.describe()


class TestDChains:
    def setup_method(self):
        self.s = chain_poset("ab")
        self.r = make_poset(["w", "x", "y"], [("w", "x")])
        # w < x, y isolated; w,y over a, x over b
        self.m = make_spectral_map(
            self.s, self.r, (self.s.index("a"), self.s.index("b"), self.s.index("a"))
        )

    def test_is_D_chain(self):
        d = chain_from_mask(self.s, 0b11)
        assert is_D_chain(self.m, ChainRecord(self.r, ()), d)
        wx = ChainRecord(self.r, (self.r.index("w"), self.r.index("x")))
        assert is_D_chain(self.m, wx, d)
        d_a = ChainRecord(self.s, (self.s.index("a"),))
        assert not is_D_chain(self.m, wx, d_a)

    def test_top_member_is_never_a_D_chain(self):
        r = antichain("x")
        m = make_spectral_map(self.s, r, (TOP,))
        d = chain_from_mask(self.s, 0b11)
        assert not is_D_chain(m, ChainRecord(r, (0,)), d)

    def test_maximal_D_chain(self):
        d = chain_from_mask(self.s, 0b11)
        wx = ChainRecord(self.r, (self.r.index("w"), self.r.index("x")))
        y = ChainRecord(self.r, (self.r.index("y"),))
        assert is_maximal_D_chain(self.m, wx, d)
        assert is_maximal_D_chain(self.m, y, d)
        w = ChainRecord(self.r, (self.r.index("w"),))
        assert not is_maximal_D_chain(self.m, w, d)

    def test_not_a_D_chain_error(self):
        d_a = ChainRecord(self.s, (self.s.index("a"),))
        wx = ChainRecord(self.r, (self.r.index("w"), self.r.index("x")))
        with pytest.raises(NotADChain):
            is_maximal_D_chain(self.m, wx, d_a)
        with pytest.raises(NotADChain):
            is_cover(self.m, wx, d_a)

    def test_maximal_D_chains_listing(self):
        d = chain_from_mask(self.s, 0b11)
        got = [c.member_labels() for c in maximal_D_chains(self.m, d)]
        assert got == [("w", "x"), ("y",)]

    def test_empty_D(self):
        d = ChainRecord(self.s, ())
        got = maximal_D_chains(self.m, d)
        assert [c.members for c in got] == [()]

    def test_nothing_lies_over(self):
        r = antichain("x")
        m = make_spectral_map(self.s, r, (self.s.index("a"),))
        d = ChainRecord(self.s, (self.s.index("b"),))
        got = maximal_D_chains(m, d)
        assert [c.members for c in got] == [()]

    def test_matches_brute_force(self):
        for m in small_instances(2, 3):
            for d in enumerate_chains(m.s_poset, include_empty=True):
                got = maximal_D_chains(m, d)
                assert len({c.members for c in got}) == len(got)
                assert {frozenset(c.members) for c in got} == set(
                    brute_maximal_D_chains(m, d)
                )
                for c in got:
                    assert is_maximal_D_chain(m, c, d)


class TestCovers:
    def test_empty_cover(self):
        s = chain_poset("ab")
        m = make_spectral_map(s, s, (0, 1))
        empty_c = ChainRecord(s, ())
        empty_d = ChainRecord(s, ())
        assert is_cover(m, empty_c, empty_d)
        assert is_perfect_cover(m, empty_c, empty_d)

    def test_surjective_not_perfect(self):
        s = antichain("p")
        r = chain_poset("xy")
        m = make_spectral_map(s, r, (0, 0))
        c = chain_from_mask(r, 0b11)
        d = ChainRecord(s, (0,))
        assert is_cover(m, c, d)
        assert not is_perfect_cover(m, c, d)
        assert is_maximal_cover(m, c, d)

    def test_identity_perfect(self):
        s = chain_poset("abc")
        m = make_spectral_map(s, s, (0, 1, 2))
        c = chain_from_mask(s, 0b111)
        assert is_perfect_cover(m, c, c)
        assert is_maximal_cover(m, c, c)

    def test_maximal_cover_equals_unextendable_cover(self):
        # a cover is maximal as a D-chain iff no strict D-chain superset covers
        for m in small_instances(2, 3):
            for d in enumerate_chains(m.s_poset, include_empty=True):
                chains = brute_D_chains(m, d)
                covers = [c for c in chains if o_covers(m, c, d)]
                cover_sets = [set(c) for c in covers]
                for c in covers:
                    rec = ChainRecord(m.r_poset, tuple(sorted(c, key=lambda q: q)))
                    no_bigger = not any(set(c) < other for other in cover_sets)
                    assert is_maximal_cover(m, rec, d) == (
                        is_maximal_D_chain(m, rec, d)
                    )
                    if is_maximal_D_chain(m, rec, d):
                        assert no_bigger


class TestEnumerateMonotoneMaps:
    def test_two_chain_counts(self):
        s = chain_poset("ab")
        assert sum(1 for _ in enumerate_monotone_maps(s, s, allow_top=False)) == 3
        assert sum(1 for _ in enumerate_monotone_maps(s, s, allow_top=True)) == 6

    def test_antichain_counts(self):
        s = antichain("pq")
        r = antichain("xy")
        assert sum(1 for _ in enumerate_monotone_maps(s, r, allow_top=False)) == 4
        assert sum(1 for _ in enumerate_monotone_maps(s, r, allow_top=True)) == 9

    def test_empty_source(self):
        s = chain_poset("ab")
        r = make_poset([], [])
        assert sum(1 for _ in enumerate_monotone_maps(s, r, allow_top=True)) == 1

    def test_empty_target_no_top(self):
        s = make_poset([], [])
        r = antichain("x")
        assert list(enumerate_monotone_maps(s, r, allow_top=False)) == []
        got = list(enumerate_monotone_maps(s, r, allow_top=True))
        assert len(got) == 1 and got[0].assignment == (TOP,)

    def test_matches_brute_force_order(self):
        for ns in range(4):
            for s in enumerate_posets(ns):
                for nr in range(5):
                    for r in enumerate_posets(nr):
                        for allow_top in (False, True):
                            got = [
                                m.assignment
                                for m in enumerate_monotone_maps(s, r, allow_top)
                            ]
                            nvals = ns + 1 if allow_top else ns
                            expect = []
                            for vec in product(range(nvals), repeat=r.n):
                                lm = make_maybe(s, r, vec, ns)
                                if lm is not None:
                                    expect.append(lm)
                            assert got == expect

    def test_all_results_valid(self):
        s = chain_poset("abc")
        r = make_poset(["w", "x", "y"], [("w", "x"), ("w", "y")])
        for m in enumerate_monotone_maps(s, r, allow_top=True):
            make_spectral_map(s, r, m.assignment)  # revalidates

    def test_count_matches_kernel(self):
        for ns in range(3):
            for s in enumerate_posets(ns):
                for nr in range(4):
                    for r in enumerate_posets(nr):
                        for allow_top in (False, True):
                            got = sum(1 for _ in enumerate_monotone_maps(s, r, allow_top))
                            kcount = K.count_monotone_maps(
                                s.n, s.up_array(), r.n, r.up_array(), allow_top
                            )
                            assert got == int(kcount)
                            assert got == brute_force_map_count(s, r, allow_top)


def brute_force_map_count(s, r, allow_top):
    """Monotone maps r -> s (+TOP) counted from the order matrices alone.

    The value s.n stands for TOP, the greatest value.
    """
    def leq(a, b):
        return b == s.n or (a != s.n and bool(s.leq[a, b]))

    nvals = s.n + 1 if allow_top else s.n
    return sum(
        all(
            leq(vec[q1], vec[q2])
            for q1 in range(r.n)
            for q2 in range(r.n)
            if r.leq[q1, q2]
        )
        for vec in product(range(nvals), repeat=r.n)
    )


def make_maybe(s, r, vec, ns):
    assignment = tuple(TOP if v == ns else v for v in vec)
    try:
        return make_spectral_map(s, r, assignment).assignment
    except NotMonotone:
        return None
