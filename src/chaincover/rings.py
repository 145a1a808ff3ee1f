"""Concrete finite rings: cyclic rings, products, and their contraction maps.

Supported rings are Z/n (n >= 2) and finite products of such factors.
Ideals are encoded by one divisor per cyclic factor (divisor 1 is the full
factor, divisor n the zero ideal), which makes containment a divisibility
test. Ring maps out of Z/m are determined by the image e of 1, which must
be an idempotent killed by m; the induced map on prime spectra contracts
each target prime to its preimage, or to TOP when the preimage is the whole
source ring. Preimages, kernels and extensions are computed from the
divisors and the components of e alone, never by scanning Z/m, so each
costs a few gcds per factor whatever the moduli.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct
from math import gcd, lcm

from .poset import Poset, make_poset
from .specmap import PROPERTY_BITS, TOP, SpectralMap, make_spectral_map
from .theorems import Counterexample, Verdict


class NotIdempotent(ValueError):
    """The designated image of 1 is not idempotent in the target ring."""


class CharacteristicMismatch(ValueError):
    """The source characteristic does not annihilate the image of 1."""


class NotUnitary(ValueError):
    """The operation needs a hom sending 1 to the target identity."""


@dataclass(frozen=True)
class Zn:
    """The cyclic ring Z/n."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"cyclic ring modulus must be at least 2, got {self.n}")

    def __str__(self):
        return f"Zn({self.n})"


@dataclass(frozen=True)
class Product:
    """A product of at least two cyclic factors (never nested)."""

    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if len(self.factors) < 2:
            raise ValueError("a product ring needs at least two factors")
        for f in self.factors:
            if not isinstance(f, Zn):
                raise ValueError("product factors must be cyclic rings")

    def __str__(self):
        return "Product(" + ",".join(str(f) for f in self.factors) + ")"


RingExpr = Zn | Product


def factors_of(ring: RingExpr) -> tuple[Zn, ...]:
    return (ring,) if isinstance(ring, Zn) else ring.factors


def zero_of(ring: RingExpr):
    return 0 if isinstance(ring, Zn) else (0,) * len(ring.factors)


def identity_of(ring: RingExpr):
    return 1 if isinstance(ring, Zn) else (1,) * len(ring.factors)


def elements_of(ring: RingExpr):
    if isinstance(ring, Zn):
        yield from range(ring.n)
    else:
        yield from iproduct(*(range(f.n) for f in ring.factors))


def mul(ring: RingExpr, x, y):
    if isinstance(ring, Zn):
        return x * y % ring.n
    return tuple(a * b % f.n for a, b, f in zip(x, y, ring.factors))


def scalar_mul(ring: RingExpr, k: int, x):
    if isinstance(ring, Zn):
        return k * x % ring.n
    return tuple(k * a % f.n for a, f in zip(x, ring.factors))


def _component(x, j: int):
    return x if isinstance(x, int) else x[j]


@dataclass(frozen=True)
class Ideal:
    """An ideal, one divisor per cyclic factor (1 = full, n = zero)."""

    ring: RingExpr
    divisors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "divisors", tuple(int(d) for d in self.divisors))
        factors = factors_of(self.ring)
        if len(self.divisors) != len(factors):
            raise ValueError("one divisor per cyclic factor is required")
        for d, f in zip(self.divisors, factors):
            if d < 1 or f.n % d != 0:
                raise ValueError(f"{d} does not divide the modulus {f.n}")

    @property
    def is_full(self) -> bool:
        return all(d == 1 for d in self.divisors)

    @property
    def is_zero(self) -> bool:
        return all(d == f.n for d, f in zip(self.divisors, factors_of(self.ring)))

    def contains(self, x) -> bool:
        return all(
            _component(x, j) % d == 0 for j, d in enumerate(self.divisors)
        )

    def label(self) -> str:
        parts = []
        for d, f in zip(self.divisors, factors_of(self.ring)):
            parts.append(f"Z{f.n}" if d == 1 else f"{d}Z{f.n}")
        return "x".join(parts)


def ideal_leq(a: Ideal, b: Ideal) -> bool:
    """Containment a subset-of b, componentwise divisor test."""
    if a.ring != b.ring:
        raise ValueError("ideals of different rings are incomparable")
    return all(da % db == 0 for da, db in zip(a.divisors, b.divisors))


def full_ideal(ring: RingExpr) -> Ideal:
    return Ideal(ring, (1,) * len(factors_of(ring)))


def zero_ideal(ring: RingExpr) -> Ideal:
    return Ideal(ring, tuple(f.n for f in factors_of(ring)))


def prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime_ideal(ideal: Ideal) -> bool:
    """Exactly one factor proper with a prime divisor, the rest full."""
    proper = [d for d in ideal.divisors if d != 1]
    if len(proper) != 1:
        return False
    ps = prime_divisors(proper[0])
    return len(ps) == 1 and proper[0] == ps[0]


@lru_cache(maxsize=None)
def spec_ideals(ring: RingExpr) -> tuple[Ideal, ...]:
    """Prime ideals in canonical order: by factor, then ascending prime.

    Computed once per ring, like `spec`, whose index i is the ideal at
    position i here.
    """
    factors = factors_of(ring)
    return tuple(
        Ideal(ring, tuple(p if k == j else 1 for k in range(len(factors))))
        for j, f in enumerate(factors)
        for p in prime_divisors(f.n)
    )


@lru_cache(maxsize=None)
def spec(ring: RingExpr) -> Poset:
    """Prime spectrum as a poset ordered by containment.

    For cyclic rings and their products the primes are pairwise
    incomparable, which is asserted rather than assumed. Rings are frozen
    and posets immutable, so each ring's spectrum is computed once and
    shared.
    """
    ideals = spec_ideals(ring)
    pairs = [
        (a.label(), b.label())
        for a in ideals
        for b in ideals
        if a != b and ideal_leq(a, b)
    ]
    assert not pairs, "prime spectrum of these rings must be an antichain"
    return make_poset([i.label() for i in ideals], pairs)


@dataclass(frozen=True)
class RingHom:
    """The map Z/m -> target, x |-> x*e, for an idempotent e killed by m."""

    m: int
    target: RingExpr
    e: int | tuple

    def apply(self, x: int):
        return scalar_mul(self.target, x % self.m, self.e)

    @property
    def unitary(self) -> bool:
        return self.e == identity_of(self.target)

    def describe(self) -> str:
        return f"hom(m={self.m}, target={self.target}, e={self.e})"


def make_hom(m: int, target: RingExpr, e) -> RingHom:
    """Validate and build a hom out of Z/m.

    Raises NotIdempotent when e*e != e in the target and
    CharacteristicMismatch when m*e != 0, in that order.
    """
    if m < 2:
        raise ValueError(f"source modulus must be at least 2, got {m}")
    if isinstance(target, Zn):
        if not isinstance(e, int) or not 0 <= e < target.n:
            raise ValueError(f"e must be a residue modulo {target.n}, got {e!r}")
        norm_e: int | tuple = e
    else:
        e = tuple(e) if not isinstance(e, int) else e
        if not isinstance(e, tuple) or len(e) != len(target.factors):
            raise ValueError("e must have one component per product factor")
        for a, f in zip(e, target.factors):
            if not isinstance(a, int) or not 0 <= a < f.n:
                raise ValueError(f"component {a!r} is not a residue modulo {f.n}")
        norm_e = e
    if mul(target, norm_e, norm_e) != norm_e:
        raise NotIdempotent(f"{norm_e!r} is not idempotent in {target}")
    if scalar_mul(target, m, norm_e) != zero_of(target):
        raise CharacteristicMismatch(
            f"{m} * {norm_e!r} is nonzero in {target}, so no hom out of Zn({m}) sends 1 there"
        )
    return RingHom(m, target, norm_e)


def idempotents(ring: RingExpr) -> list:
    """All idempotent elements, ascending componentwise."""
    if isinstance(ring, Zn):
        return [e for e in range(ring.n) if e * e % ring.n == e]
    per_factor = [idempotents(f) for f in ring.factors]
    return [tuple(t) for t in iproduct(*per_factor)]


def enumerate_homs(m: int, target: RingExpr) -> list[RingHom]:
    """Every hom out of Z/m into the target, by ascending idempotent."""
    out = []
    for e in idempotents(target):
        if scalar_mul(target, m, e) == zero_of(target):
            out.append(RingHom(m, target, e))
    return out


def preimage_ideal(h: RingHom, q: Ideal) -> Ideal:
    """Preimage of a target ideal, by divisor arithmetic.

    x lies in it iff d_j divides x * e_j in every factor j, that is iff
    d_j / gcd(d_j, e_j) divides x. Each of those divides m, since m * e
    is zero, so the preimage is generated by their lcm, taken mod m.
    """
    if q.ring != h.target:
        raise ValueError("ideal does not belong to the hom target")
    es = h.e if isinstance(h.e, tuple) else (h.e,)
    step = lcm(*(d // gcd(d, e) for d, e in zip(q.divisors, es)))
    return Ideal(Zn(h.m), (gcd(h.m, step),))


def kernel(h: RingHom) -> Ideal:
    """Elements sent to zero: the preimage of the zero ideal, some dZ/m."""
    return preimage_ideal(h, zero_ideal(h.target))


def extension_ideal(h: RingHom, p: Ideal) -> Ideal:
    """Ideal generated by the image of a source ideal, by divisor arithmetic.

    The image of dZ/m is the set of multiples of d * e, so in factor j it
    generates the subgroup of d * e_j, whose divisor is gcd(n_j, d * e_j).
    """
    if p.ring != Zn(h.m):
        raise ValueError("ideal does not belong to the hom source")
    (d,) = p.divisors
    es = h.e if isinstance(h.e, tuple) else (h.e,)
    return Ideal(
        h.target, tuple(gcd(f.n, d * e) for f, e in zip(factors_of(h.target), es))
    )


@lru_cache(maxsize=None)
def to_spectral_map(h: RingHom) -> SpectralMap:
    """Contraction map on prime spectra induced by the hom.

    Each target prime goes to its preimage when that is a prime of the
    source, and to TOP when the preimage is the full ring. Computed once per
    hom, like `spec`: the map is immutable, so documents, checks and both
    ideal lemmas of one hom share it and its MapFacts.
    """
    s = spec(Zn(h.m))
    r = spec(h.target)
    assignment = []
    for q in spec_ideals(h.target):
        pre = preimage_ideal(h, q)
        if pre.is_full:
            assignment.append(TOP)
        else:
            assert is_prime_ideal(pre), (
                f"preimage {pre.label()} of {q.label()} is neither prime nor full"
            )
            assignment.append(s.index(pre.label()))
    return make_spectral_map(s, r, assignment)


def _lift_lemma(h: RingHom, theorem: str, hypothesis: str, lifts, clause: str) -> Verdict:
    """Verdict of "if the contraction has `hypothesis`, every source prime
    of `lifts` is hit".

    `hypothesis` is a name of PROPERTY_BITS. `lifts` lists (index in
    spec_ideals, prime, detail entries) for each source prime that needs a
    target prime contracting exactly to it. When the hypothesis holds they
    are checked in order up to the first prime nothing lies over, whose
    entries go into the counterexample between "prime" and "clause".
    """
    smap = to_spectral_map(h)
    checked = 0
    cx = None
    note = None
    if smap.facts.bits & PROPERTY_BITS[hypothesis]:
        for i, p_ideal, extra in lifts:
            checked += 1
            if i not in smap.assignment:
                cx = Counterexample(
                    smap=smap,
                    theorem=theorem,
                    waived=False,
                    detail={
                        "hom": h.describe(),
                        "prime": p_ideal.label(),
                        **extra,
                        "clause": clause,
                    },
                )
                break
    else:
        note = f"hypothesis unmet: {hypothesis}"
    return Verdict(
        theorem=theorem,
        holds=cx is None,
        instances_checked=checked,
        counterexample=cx,
        note=note,
    )


def check_kernel_LO_lemma(h: RingHom) -> Verdict:
    """If the contraction has GU, primes containing the kernel are hit.

    Checks, for each source prime P containing kernel(h), that some target
    prime contracts exactly to P.
    """
    ker = kernel(h)
    lifts = [
        (i, p_ideal, {})
        for i, p_ideal in enumerate(spec_ideals(Zn(h.m)))
        if ideal_leq(ker, p_ideal)
    ]
    return _lift_lemma(
        h, "RING_KERNEL_LO", "GU", lifts,
        "prime contains the kernel but nothing lies over it",
    )


def check_extension_LO_lemma(h: RingHom) -> Verdict:
    """If the contraction has GD, primes with proper extension are hit.

    Only meaningful for unitary homs; raises NotUnitary otherwise.
    """
    if not h.unitary:
        raise NotUnitary(f"{h.describe()} does not send 1 to the identity")
    lifts = []
    for i, p_ideal in enumerate(spec_ideals(Zn(h.m))):
        ext = extension_ideal(h, p_ideal)
        if not ext.is_full:
            lifts.append((i, p_ideal, {"extension": ext.label()}))
    return _lift_lemma(
        h, "RING_EXTENSION_LO", "GD", lifts,
        "prime extends properly but nothing lies over it",
    )
