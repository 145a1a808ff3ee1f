"""Tests for concrete ring models and their induced contraction maps.

Oracles here work on raw member sets: an ideal is checked against the set
of elements it contains, primality against the defining product condition,
and extensions against a brute-force closure under addition and scaling.
Expected values are frozen from those oracles.
"""

import time
from math import gcd

import pytest

from chaincover.poset import make_poset
from chaincover.rings import (
    CharacteristicMismatch,
    Ideal,
    NotIdempotent,
    NotUnitary,
    Product,
    RingHom,
    Zn,
    check_extension_LO_lemma,
    check_kernel_LO_lemma,
    elements_of,
    enumerate_homs,
    extension_ideal,
    factors_of,
    full_ideal,
    ideal_leq,
    idempotents,
    identity_of,
    is_prime_ideal,
    kernel,
    make_hom,
    mul,
    preimage_ideal,
    prime_divisors,
    scalar_mul,
    spec,
    spec_ideals,
    to_spectral_map,
    zero_ideal,
    zero_of,
)
from chaincover.specmap import TOP, make_spectral_map, properties_summary


# ---------------------------------------------------------------------------
# Oracles


def ring_add(ring, x, y):
    if isinstance(ring, Zn):
        return (x + y) % ring.n
    return tuple((a + b) % f.n for a, b, f in zip(x, y, ring.factors))


def o_members(ideal):
    return {x for x in elements_of(ideal.ring) if ideal.contains(x)}


def o_prime_ideal(ideal):
    """Proper, and xy in I forces x in I or y in I."""
    if ideal.is_full:
        return False
    elems = list(elements_of(ideal.ring))
    for x in elems:
        for y in elems:
            if ideal.contains(mul(ideal.ring, x, y)):
                if not ideal.contains(x) and not ideal.contains(y):
                    return False
    return True


def o_generated(ring, gens):
    """Closure of gens under addition and scaling by ring elements."""
    members = set(gens) | {zero_of(ring)}
    elems = list(elements_of(ring))
    changed = True
    while changed:
        changed = False
        for a in list(members):
            for b in list(members):
                s = ring_add(ring, a, b)
                if s not in members:
                    members.add(s)
                    changed = True
            for r in elems:
                p = mul(ring, r, a)
                if p not in members:
                    members.add(p)
                    changed = True
    return members


def o_preimage_divisor(h, q):
    """Divisor of the preimage of q, from a scan of every element of Z/m."""
    d = h.m
    for x in range(h.m):
        if q.contains(h.apply(x)):
            d = gcd(d, x)
    return d


def o_prime_divisors(n):
    return [p for p in range(2, n + 1)
            if n % p == 0 and all(p % q for q in range(2, p))]


def all_ideals(ring):
    from itertools import product as iproduct

    lists = [
        [d for d in range(1, f.n + 1) if f.n % d == 0]
        for f in factors_of(ring)
    ]
    return [Ideal(ring, t) for t in iproduct(*lists)]


def small_homs():
    targets = [Zn(k) for k in range(2, 9)] + [
        Product((Zn(2), Zn(2))),
        Product((Zn(2), Zn(3))),
        Product((Zn(4), Zn(6))),
        Product((Zn(2), Zn(2), Zn(2))),
    ]
    for m in range(2, 13):
        for target in targets:
            yield from enumerate_homs(m, target)


SAMPLE_RINGS = [Zn(7), Zn(12), Product((Zn(2), Zn(3))), Product((Zn(4), Zn(6)))]


# ---------------------------------------------------------------------------


class TestRingBasics:
    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            Zn(1)
        with pytest.raises(ValueError):
            Zn(0)

    def test_product_validation(self):
        with pytest.raises(ValueError):
            Product((Zn(2),))
        with pytest.raises(ValueError):
            Product((Zn(2), Product((Zn(2), Zn(3)))))

    def test_str_forms(self):
        assert str(Zn(12)) == "Zn(12)"
        assert str(Product((Zn(2), Zn(3)))) == "Product(Zn(2),Zn(3))"

    def test_elements_and_constants(self):
        assert list(elements_of(Zn(3))) == [0, 1, 2]
        r = Product((Zn(2), Zn(3)))
        assert len(list(elements_of(r))) == 6
        assert zero_of(r) == (0, 0)
        assert identity_of(r) == (1, 1)
        assert zero_of(Zn(5)) == 0 and identity_of(Zn(5)) == 1

    def test_arithmetic(self):
        assert mul(Zn(6), 4, 5) == 2
        assert scalar_mul(Zn(6), 7, 2) == 2
        r = Product((Zn(2), Zn(3)))
        assert mul(r, (1, 2), (1, 2)) == (1, 1)
        assert scalar_mul(r, 3, (1, 1)) == (1, 0)


class TestIdeal:
    def test_validation(self):
        with pytest.raises(ValueError):
            Ideal(Zn(12), (5,))
        with pytest.raises(ValueError):
            Ideal(Zn(12), (2, 3))
        with pytest.raises(ValueError):
            Ideal(Product((Zn(2), Zn(3))), (2,))
        with pytest.raises(ValueError):
            Ideal(Zn(12), (0,))

    def test_full_and_zero(self):
        assert full_ideal(Zn(12)).is_full
        assert not full_ideal(Zn(12)).is_zero
        assert zero_ideal(Zn(12)).divisors == (12,)
        assert zero_ideal(Zn(12)).is_zero
        r = Product((Zn(2), Zn(3)))
        assert full_ideal(r).divisors == (1, 1)
        assert zero_ideal(r).divisors == (2, 3)

    def test_contains(self):
        i = Ideal(Zn(12), (4,))
        assert o_members(i) == {0, 4, 8}
        j = Ideal(Product((Zn(2), Zn(3))), (2, 1))
        assert o_members(j) == {(0, 0), (0, 1), (0, 2)}

    def test_labels(self):
        assert full_ideal(Zn(12)).label() == "Z12"
        assert Ideal(Zn(12), (2,)).label() == "2Z12"
        assert zero_ideal(Zn(7)).label() == "7Z7"
        r = Product((Zn(2), Zn(3)))
        assert Ideal(r, (2, 1)).label() == "2Z2xZ3"
        assert Ideal(r, (1, 3)).label() == "Z2x3Z3"

    def test_leq_matches_member_sets(self):
        for ring in SAMPLE_RINGS:
            ideals = all_ideals(ring)
            for a in ideals:
                for b in ideals:
                    assert ideal_leq(a, b) == (o_members(a) <= o_members(b))

    def test_leq_different_rings(self):
        with pytest.raises(ValueError):
            ideal_leq(full_ideal(Zn(4)), full_ideal(Zn(8)))


class TestPrimes:
    def test_prime_divisors_frozen(self):
        assert prime_divisors(12) == [2, 3]
        assert prime_divisors(7) == [7]
        assert prime_divisors(30) == [2, 3, 5]
        assert prime_divisors(1) == []
        assert prime_divisors(2) == [2]

    def test_prime_divisors_oracle(self):
        for n in range(1, 200):
            assert prime_divisors(n) == o_prime_divisors(n)

    def test_prime_ideal_oracle(self):
        for ring in SAMPLE_RINGS:
            for ideal in all_ideals(ring):
                assert is_prime_ideal(ideal) == o_prime_ideal(ideal), ideal

    def test_prime_ideal_examples(self):
        assert is_prime_ideal(Ideal(Zn(12), (2,)))
        assert not is_prime_ideal(Ideal(Zn(12), (4,)))
        assert not is_prime_ideal(Ideal(Zn(12), (6,)))
        assert is_prime_ideal(zero_ideal(Zn(7)))
        assert not is_prime_ideal(zero_ideal(Zn(4)))
        r = Product((Zn(2), Zn(2)))
        assert is_prime_ideal(Ideal(r, (2, 1)))
        assert not is_prime_ideal(zero_ideal(r))
        assert not is_prime_ideal(full_ideal(r))


class TestSpec:
    def test_frozen_labels(self):
        assert spec(Zn(12)).labels == ("2Z12", "3Z12")
        assert spec(Zn(7)).labels == ("7Z7",)
        assert spec(Zn(30)).labels == ("2Z30", "3Z30", "5Z30")
        assert spec(Product((Zn(2), Zn(2)))).labels == ("2Z2xZ2", "Z2x2Z2")
        assert spec(Product((Zn(4), Zn(6)))).labels == (
            "2Z4xZ6",
            "Z4x2Z6",
            "Z4x3Z6",
        )

    def test_spec_is_antichain(self):
        for ring in SAMPLE_RINGS:
            p = spec(ring)
            assert p.order_pairs() == []

    def test_spec_ideals_are_prime(self):
        for ring in SAMPLE_RINGS:
            ideals = spec_ideals(ring)
            assert all(is_prime_ideal(i) for i in ideals)
            primes = [i for i in all_ideals(ring) if o_prime_ideal(i)]
            assert sorted(i.divisors for i in ideals) == sorted(
                i.divisors for i in primes
            )

    def test_index_order_matches_declaration(self):
        p = spec(Zn(30))
        for i, ideal in enumerate(spec_ideals(Zn(30))):
            assert p.index(ideal.label()) == i

    def test_spec_labels_follow_spec_ideals(self):
        # the ring lemmas read position i of spec_ideals as index i of spec
        rings = [*SAMPLE_RINGS, Zn(30), Zn(210), Product((Zn(6), Zn(10), Zn(15)))]
        for ring in rings:
            ideals = spec_ideals(ring)
            assert spec(ring).labels == tuple(i.label() for i in ideals), ring
            # cached and shared, so a tuple nobody can change
            assert isinstance(ideals, tuple) and spec_ideals(ring) is ideals


class TestMakeHom:
    def test_valid(self):
        h = make_hom(6, Zn(2), 1)
        assert h.apply(5) == 1
        assert h.unitary

    def test_not_idempotent(self):
        with pytest.raises(NotIdempotent):
            make_hom(6, Zn(4), 2)
        with pytest.raises(NotIdempotent):
            make_hom(2, Product((Zn(2), Zn(4))), (1, 2))

    def test_characteristic_mismatch(self):
        with pytest.raises(CharacteristicMismatch):
            make_hom(3, Zn(2), 1)
        with pytest.raises(CharacteristicMismatch):
            make_hom(6, Zn(4), 1)
        with pytest.raises(CharacteristicMismatch):
            make_hom(2, Product((Zn(2), Zn(3))), (1, 1))

    def test_idempotency_checked_before_characteristic(self):
        # 3*3 = 9 = 4 in Zn(5), and 3*3 != 3, so the idempotency error wins
        with pytest.raises(NotIdempotent):
            make_hom(3, Zn(5), 3)

    def test_bad_e(self):
        with pytest.raises(ValueError):
            make_hom(6, Zn(2), 2)
        with pytest.raises(ValueError):
            make_hom(6, Zn(2), -1)
        with pytest.raises(ValueError):
            make_hom(6, Product((Zn(2), Zn(3))), (1,))
        with pytest.raises(ValueError):
            make_hom(6, Product((Zn(2), Zn(3))), (1, 5))

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            make_hom(1, Zn(2), 1)

    def test_list_e_normalized(self):
        h = make_hom(6, Product((Zn(2), Zn(3))), [1, 0])
        assert h.e == (1, 0)

    def test_zero_hom_always_valid(self):
        h = make_hom(7, Zn(4), 0)
        assert all(h.apply(x) == 0 for x in range(7))
        assert not h.unitary

    def test_describe(self):
        h = make_hom(6, Zn(2), 1)
        assert h.describe() == "hom(m=6, target=Zn(2), e=1)"


class TestIdempotents:
    def test_frozen(self):
        assert idempotents(Zn(6)) == [0, 1, 3, 4]
        assert idempotents(Zn(12)) == [0, 1, 4, 9]
        assert idempotents(Zn(7)) == [0, 1]
        assert idempotents(Product((Zn(2), Zn(3)))) == [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
        ]

    def test_oracle(self):
        for n in range(2, 31):
            ring = Zn(n)
            found = idempotents(ring)
            assert found == [e for e in range(n) if mul(ring, e, e) == e]
        r = Product((Zn(4), Zn(6)))
        found = idempotents(r)
        brute = [x for x in elements_of(r) if mul(r, x, x) == x]
        assert sorted(found) == sorted(brute)

    def test_enumerate_homs(self):
        homs = enumerate_homs(6, Zn(2))
        assert [h.e for h in homs] == [0, 1]
        homs = enumerate_homs(3, Zn(2))
        assert [h.e for h in homs] == [0]
        for h in small_homs():
            assert mul(h.target, h.e, h.e) == h.e
            assert scalar_mul(h.target, h.m, h.e) == zero_of(h.target)


class TestPreimageAndKernel:
    def test_preimage_frozen(self):
        h = make_hom(6, Zn(2), 1)
        pre = preimage_ideal(h, Ideal(Zn(2), (2,)))
        assert pre.divisors == (2,) and pre.ring == Zn(6)
        h = make_hom(6, Zn(3), 1)
        assert preimage_ideal(h, Ideal(Zn(3), (3,))).divisors == (3,)
        h = make_hom(12, Zn(4), 1)
        assert preimage_ideal(h, Ideal(Zn(4), (2,))).divisors == (2,)

    def test_preimage_of_full_is_full(self):
        h = make_hom(6, Zn(2), 1)
        assert preimage_ideal(h, full_ideal(Zn(2))).is_full

    def test_preimage_wrong_ring(self):
        h = make_hom(6, Zn(2), 1)
        with pytest.raises(ValueError):
            preimage_ideal(h, full_ideal(Zn(4)))

    def test_preimage_member_sets(self):
        # the divisor form must carve out exactly the brute preimage set
        for h in small_homs():
            for q in all_ideals(h.target):
                pre = preimage_ideal(h, q)
                brute = {x for x in range(h.m) if q.contains(h.apply(x))}
                assert o_members(pre) == brute, (h, q)

    def test_preimage_divisor_matches_element_scan(self):
        # the divisor arithmetic against the scan over Z/m, on every prime
        # of every target Z/n with n <= 30 or Z/a x Z/b with a, b <= 12
        targets = [Zn(n) for n in range(2, 31)] + [
            Product((Zn(a), Zn(b))) for a in range(2, 13) for b in range(2, 13)
        ]
        checked = 0
        for m in range(2, 31):
            for target in targets:
                for h in enumerate_homs(m, target):
                    for q in spec_ideals(target):
                        assert preimage_ideal(h, q).divisors == (o_preimage_divisor(h, q),), (h, q)
                        checked += 1
        assert checked == 21186

    def test_kernel_frozen(self):
        assert kernel(make_hom(6, Zn(2), 1)).divisors == (2,)
        assert kernel(make_hom(6, Zn(3), 1)).divisors == (3,)
        assert kernel(make_hom(7, Zn(4), 0)).is_full

    def test_kernel_is_preimage_of_zero(self):
        # independent routes: divisor arithmetic vs an element scan of Z/m
        # for the preimage of the zero ideal
        for h in small_homs():
            assert kernel(h).divisors == (o_preimage_divisor(h, zero_ideal(h.target)),), h


class TestExtension:
    def test_frozen(self):
        h = make_hom(6, Zn(2), 1)
        assert extension_ideal(h, Ideal(Zn(6), (2,))).divisors == (2,)
        assert extension_ideal(h, Ideal(Zn(6), (3,))).is_full
        diag = make_hom(2, Product((Zn(2), Zn(2))), (1, 1))
        ext = extension_ideal(diag, zero_ideal(Zn(2)))
        assert ext.is_zero

    def test_wrong_ring(self):
        h = make_hom(6, Zn(2), 1)
        with pytest.raises(ValueError):
            extension_ideal(h, full_ideal(Zn(4)))

    def test_generated_set_oracle(self):
        for h in small_homs():
            for p in all_ideals(Zn(h.m)):
                ext = extension_ideal(h, p)
                gens = [h.apply(x) for x in range(h.m) if p.contains(x)]
                assert o_members(ext) == o_generated(h.target, gens), (h, p)

    def test_source_ideal_inside_preimage_of_extension(self):
        # every member of p maps into the extension, so p <= pre(ext(p))
        for h in small_homs():
            for p in all_ideals(Zn(h.m)):
                assert ideal_leq(p, preimage_ideal(h, extension_ideal(h, p))), (h, p)


class TestLargeModuli:
    # the grammar accepts moduli up to 10^9; no ideal scans Z/m, so these
    # take a few gcds each (values derived by hand)
    HOMS = {
        "cyclic": (make_hom(10**9, Zn(10), 1), (10,), [(2,), (5,)]),
        "product": (
            make_hom(10**9, Product((Zn(8), Zn(125))), (1, 1)), (1000,), [(2, 1), (1, 5)],
        ),
    }

    @pytest.mark.parametrize("name", HOMS)
    def test_kernel_and_extensions(self, name):
        h, ker, exts = self.HOMS[name]
        assert kernel(h).divisors == ker
        primes = spec_ideals(Zn(h.m))
        assert [p.divisors for p in primes] == [(2,), (5,)]
        assert [extension_ideal(h, p).divisors for p in primes] == exts

    @pytest.mark.parametrize("name", HOMS)
    def test_lemmas_hold(self, name):
        h = self.HOMS[name][0]
        for check in (check_kernel_LO_lemma, check_extension_LO_lemma):
            start = time.perf_counter()
            v = check(h)
            assert time.perf_counter() - start < 1, check
            assert (v.holds, v.instances_checked, v.note) == (True, 2, None), check


class TestToSpectralMap:
    def test_z6_to_z2(self):
        m = to_spectral_map(make_hom(6, Zn(2), 1))
        assert m.s_poset.labels == ("2Z6", "3Z6")
        assert m.r_poset.labels == ("2Z2",)
        assert m.assignment == (0,)
        summary = properties_summary(m)
        assert summary["LO"] is False
        assert summary["GU"] and summary["GD"] and summary["SGB"]
        assert summary["unitary"] is True

    def test_projection_with_top(self):
        h = make_hom(2, Product((Zn(2), Zn(2))), (1, 0))
        m = to_spectral_map(h)
        assert m.s_poset.labels == ("2Z2",)
        assert m.r_poset.labels == ("2Z2xZ2", "Z2x2Z2")
        assert m.assignment == (0, TOP)
        assert properties_summary(m)["unitary"] is False

    def test_diagonal(self):
        h = make_hom(2, Product((Zn(2), Zn(2))), (1, 1))
        m = to_spectral_map(h)
        assert m.assignment == (0, 0)
        assert properties_summary(m)["LO"] is True

    def test_zero_hom_all_top(self):
        m = to_spectral_map(make_hom(7, Zn(4), 0))
        assert m.assignment == (TOP,)

    def test_matches_hand_built_map(self):
        # the Z6 -> Z2 spectra and assignment, constructed by hand
        s = make_poset(["2Z6", "3Z6"], [])
        r = make_poset(["2Z2"], [])
        hand = make_spectral_map(s, r, [0])
        derived = to_spectral_map(make_hom(6, Zn(2), 1))
        assert derived.s_poset == hand.s_poset
        assert derived.r_poset == hand.r_poset
        assert derived.assignment == hand.assignment

    def test_preimages_prime_or_full_across_sweep(self):
        for h in small_homs():
            m = to_spectral_map(h)
            for v in m.assignment:
                assert v is TOP or isinstance(v, int)


class TestLemmas:
    def test_kernel_lemma_z6_z2(self):
        v = check_kernel_LO_lemma(make_hom(6, Zn(2), 1))
        assert v.theorem == "RING_KERNEL_LO"
        assert v.holds and v.counterexample is None
        assert v.instances_checked == 1
        assert v.note is None

    def test_kernel_lemma_zero_hom_vacuous(self):
        v = check_kernel_LO_lemma(make_hom(7, Zn(4), 0))
        assert v.holds and v.instances_checked == 0

    def test_kernel_lemma_sweep(self):
        for h in small_homs():
            v = check_kernel_LO_lemma(h)
            assert v.holds, (h, v.counterexample)

    def test_extension_lemma_diagonal(self):
        v = check_extension_LO_lemma(make_hom(2, Product((Zn(2), Zn(2))), (1, 1)))
        assert v.theorem == "RING_EXTENSION_LO"
        assert v.holds and v.instances_checked == 1

    def test_extension_lemma_requires_unitary(self):
        with pytest.raises(NotUnitary):
            check_extension_LO_lemma(make_hom(2, Product((Zn(2), Zn(2))), (1, 0)))
        with pytest.raises(NotUnitary):
            check_extension_LO_lemma(make_hom(7, Zn(4), 0))

    def test_extension_lemma_sweep(self):
        for h in small_homs():
            if not h.unitary:
                continue
            v = check_extension_LO_lemma(h)
            assert v.holds, (h, v.counterexample)

    def test_verdict_counts_proper_extensions(self):
        # Z6 -> Z2: 2Z6 extends to the zero ideal, 3Z6 extends to everything
        v = check_extension_LO_lemma(make_hom(6, Zn(2), 1))
        assert v.instances_checked == 1
        assert v.holds

    def test_a_prime_nothing_lies_over_is_a_counterexample(self, monkeypatch):
        from types import SimpleNamespace

        from chaincover import rings

        # the real contraction's properties, but no target prime contracts
        # to any source prime
        real = rings.to_spectral_map
        monkeypatch.setattr(
            rings, "to_spectral_map",
            lambda h: SimpleNamespace(facts=real(h).facts, assignment=()),
        )
        h = make_hom(30, Zn(6), 1)
        v = check_kernel_LO_lemma(h)
        assert (v.holds, v.instances_checked, v.note) == (False, 1, None)
        assert v.counterexample.theorem == "RING_KERNEL_LO"
        assert list(v.counterexample.detail.items()) == [
            ("hom", "hom(m=30, target=Zn(6), e=1)"),
            ("prime", "2Z30"),
            ("clause", "prime contains the kernel but nothing lies over it"),
        ]
        v = check_extension_LO_lemma(h)
        assert (v.holds, v.instances_checked, v.note) == (False, 1, None)
        assert v.counterexample.theorem == "RING_EXTENSION_LO"
        assert list(v.counterexample.detail.items()) == [
            ("hom", "hom(m=30, target=Zn(6), e=1)"),
            ("prime", "2Z30"),
            ("extension", "2Z6"),
            ("clause", "prime extends properly but nothing lies over it"),
        ]


def test_spectral_maps_are_built_once_per_hom():
    from chaincover.rings import to_spectral_map

    for m in range(2, 31):
        for n in range(2, 31):
            for h in enumerate_homs(m, Zn(n)):
                got = to_spectral_map(h)
                # an equal hom built anew gets the same map
                assert to_spectral_map(make_hom(m, Zn(n), h.e)) is got
                assert got == to_spectral_map.__wrapped__(h), h.describe()
