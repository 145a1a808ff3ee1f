"""Spectral maps: monotone contractions between finite posets.

A spectral map sends each element of the source poset r either to an
element of the target poset s or to TOP, a formal greatest element adjoined
above s. Monotonicity is with respect to that extended order. The chain
covering properties checked here quantify over D-chains: chains in r whose
members all contract into a prescribed chain D in s.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

from . import _kernels as K
from .poset import ChainRecord, IndexOutOfRange, Poset, chain_from_mask


class _Top:
    """Sentinel for the formal greatest element over the target poset."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "TOP"


TOP = _Top()


class LengthMismatch(ValueError):
    """The assignment length differs from the source poset size."""


class NotMonotone(ValueError):
    """The assignment violates monotonicity; carries the witnessing pair."""

    def __init__(self, msg: str, q1: int, q2: int):
        super().__init__(msg)
        self.q1 = q1
        self.q2 = q2


class NotADChain(ValueError):
    """A chain argument is not a D-chain for the given D."""


@dataclass(frozen=True)
class SpectralMap:
    """Monotone map from r_poset into s_poset extended by TOP."""

    s_poset: Poset
    r_poset: Poset
    assignment: tuple  # one entry per r element: an s index or TOP

    def contraction(self, q: int):
        self.r_poset.check_index(q)
        return self.assignment[q]

    def cmap_array(self):
        # kernel encoding as a numpy int64 array: TOP becomes the sentinel index ns
        import numpy as np

        ns = self.s_poset.n
        return np.array(
            [ns if v is TOP else v for v in self.assignment], dtype=np.int64
        )

    def describe(self) -> str:
        parts = []
        for q, v in enumerate(self.assignment):
            tgt = "TOP" if v is TOP else self.s_poset.labels[v]
            parts.append(f"{self.r_poset.labels[q]}->{tgt}")
        return "{" + ", ".join(parts) + "}"

    def __reduce__(self):
        # by value: the facts are read again from this process's records
        return SpectralMap, (self.s_poset, self.r_poset, self.assignment)

    @cached_property
    def facts(self) -> MapFacts:
        """Kernel encoding of this map, and the facts the checks share."""
        return MapFacts(self)


class MapFacts:
    """The kernel encoding of one spectral map and the facts derived from it.

    `s` and `r` are the records of the posets' orders (`Poset.facts`),
    shared by every map over posets with those orders, `cmap` is the
    assignment with TOP as the sentinel ns, and `allowed` sends each chain
    D of s to the elements of r contracting into D, the entry of s's
    allowed table for `cmap`. The property bits are the entry of s's words
    table for (r, `cmap`), so equal maps share one word. Both are read on
    first use and kept. A SpectralMap is immutable over immutable posets,
    so its facts never go stale.
    """

    def __init__(self, m: SpectralMap):
        self.s = m.s_poset.facts
        self.r = m.r_poset.facts
        self.cmap = tuple(m.s_poset.n if v is TOP else v for v in m.assignment)

    @cached_property
    def bits(self) -> int:
        """LO, INC, GU, GD, SGB, GB and unitarity as K.property_bits flags."""
        return self.s.words[self.r, self.cmap]

    @cached_property
    def allowed(self) -> dict[int, int]:
        return self.s.allowed[self.cmap]


@dataclass(frozen=True)
class ImageChain:
    """Contraction image of a chain: a chain in s, possibly ending at TOP."""

    poset: Poset  # the target poset s
    members: tuple[int, ...]
    has_top: bool

    def __len__(self) -> int:
        return len(self.members) + (1 if self.has_top else 0)

    def values(self) -> tuple:
        return self.members + ((TOP,) if self.has_top else ())


def make_spectral_map(s: Poset, r: Poset, assignment) -> SpectralMap:
    """Validate an assignment and build a SpectralMap.

    Raises LengthMismatch when the assignment does not have one value per
    r element, IndexOutOfRange on a bad target index (bools are not
    indices), and NotMonotone with the witnessing pair when some q1 <= q2
    maps to unrelated values.
    """
    assignment = tuple(assignment)
    if len(assignment) != r.n:
        raise LengthMismatch(
            f"assignment has {len(assignment)} entries for {r.n} elements"
        )
    for v in assignment:
        if v is not TOP:
            # int first: it spares plain ints the slower ABC check
            if (not isinstance(v, (int, numbers.Integral)) or isinstance(v, bool)
                    or not 0 <= int(v) < s.n):
                raise IndexOutOfRange(f"assignment value {v!r} is not an s index or TOP")
    assignment = tuple(v if v is TOP else int(v) for v in assignment)
    s_up = s.up_masks
    for q1, up in enumerate(r.up_masks):
        a = assignment[q1]
        rest = up ^ (1 << q1)
        while rest:
            low = rest & -rest
            q2 = low.bit_length() - 1
            b = assignment[q2]
            # TOP lies above every value and below none but itself
            if b is not TOP and (a is TOP or not s_up[a] >> b & 1):
                raise NotMonotone(
                    f"{r.labels[q1]} <= {r.labels[q2]} but images are unrelated",
                    q1,
                    q2,
                )
            rest ^= low
    return SpectralMap(s, r, assignment)


def is_unitary(m: SpectralMap) -> bool:
    """True iff no element contracts to TOP."""
    return all(v is not TOP for v in m.assignment)


def image_chain(m: SpectralMap, c: ChainRecord) -> ImageChain:
    """Deduplicated contraction image of a chain in r."""
    if c.poset is not m.r_poset and c.poset != m.r_poset:
        raise ValueError("chain does not belong to the source poset")
    vals = {m.assignment[q] for q in c.members}
    has_top = TOP in vals
    members = tuple(sorted(v for v in vals if v is not TOP))
    return ImageChain(m.s_poset, members, has_top)


def check_layer(m: SpectralMap, n: int) -> bool:
    """Every maximal D-chain over every n-element chain has n elements."""
    if n < 1:
        raise ValueError("layer index must be at least 1")
    f = m.facts
    return K.layers_held(n, n, f.s, f.r, f.allowed)[n]


#: the properties check_property decides:
#: LO, lying over: every element of s is some contraction.
#: INC, incomparability: strict pairs with proper upper image contract strictly.
#: GU, going up: lifts of p1 < p2 extend upward from any element over p1.
#: GD, going down: lifts of p1 < p2 extend downward from any element over p2.
#: SGB, strong going between: a lift of the middle exists between endpoints.
#: GB, going between: something sits between endpoints whenever s does.
#: SCLO, starting chain lying over: covers of D grow from any lift of min D.
#: GGD, generalized going down: covers of D grow below any lift of max D.
#: chain_morphism: every chain in s is covered by some chain in r.
PROPERTY_NAMES = ("LO", "INC", "GU", "GD", "SGB", "GB", "SCLO", "GGD", "chain_morphism")

#: the flag of each property that K.property_bits decides: the first six
PROPERTY_BITS = {name: getattr(K, f"PROP_{name}") for name in PROPERTY_NAMES[:6]}

#: the deciders of the other three, over (s, r, cmap, allowed)
_PROPERTY_CHECKS = {
    "SCLO": K.prop_sclo,
    "GGD": K.prop_ggd,
    "chain_morphism": K.prop_chain_morphism,
}


def check_property(m: SpectralMap, name: str) -> bool:
    """Whether `m` has the property `name`, one of PROPERTY_NAMES."""
    bit = PROPERTY_BITS.get(name)
    if bit is not None:
        return bool(m.facts.bits & bit)
    try:
        check = _PROPERTY_CHECKS[name]
    except KeyError:
        raise ValueError(f"unknown property {name!r}") from None
    f = m.facts
    return check(f.s, f.r, f.cmap, f.allowed)


def properties_summary(m: SpectralMap) -> dict:
    """All nine property verdicts plus unitarity, in a stable order."""
    out = {name: check_property(m, name) for name in PROPERTY_NAMES}
    out["unitary"] = is_unitary(m)
    return out


def is_D_chain(m: SpectralMap, c: ChainRecord, d: ChainRecord) -> bool:
    """True iff every member of c contracts to a member of d (never TOP)."""
    dset = set(d.members)
    return all(m.assignment[q] is not TOP and m.assignment[q] in dset for q in c.members)


def is_maximal_D_chain(m: SpectralMap, c: ChainRecord, d: ChainRecord) -> bool:
    """True iff no one-element extension of c is still a D-chain.

    Raises NotADChain when c itself is not a D-chain for d.
    """
    if not is_D_chain(m, c, d):
        raise NotADChain(f"{c.members} is not a D-chain for {d.members}")
    f = m.facts
    return K._is_maximal_sub(f.r.comp, f.allowed[d.mask], c.mask)


def maximal_D_chains(m: SpectralMap, d: ChainRecord) -> list[ChainRecord]:
    """All maximal D-chains, in lexicographic member order.

    When no element contracts into d the only D-chain is the empty one,
    which is then vacuously maximal.
    """
    f = m.facts
    masks = f.r.dchains[f.allowed[d.mask]]
    return sorted((chain_from_mask(m.r_poset, c) for c in masks), key=lambda c: c.members)


def is_cover(m: SpectralMap, c: ChainRecord, d: ChainRecord) -> bool:
    """True iff c is a D-chain contracting onto all of d."""
    if not is_D_chain(m, c, d):
        raise NotADChain(f"{c.members} is not a D-chain for {d.members}")
    return {m.assignment[q] for q in c.members} == set(d.members)


def is_perfect_cover(m: SpectralMap, c: ChainRecord, d: ChainRecord) -> bool:
    """Cover whose contraction is a bijection onto d."""
    return is_cover(m, c, d) and len(c) == len(d)


def is_maximal_cover(m: SpectralMap, c: ChainRecord, d: ChainRecord) -> bool:
    """Cover that is maximal as a D-chain."""
    return is_cover(m, c, d) and is_maximal_D_chain(m, c, d)


def enumerate_monotone_maps(s: Poset, r: Poset, allow_top: bool):
    """Yield every monotone map r -> s (+TOP if allowed), lexicographically."""
    ns = s.n
    for vec in K.monotone_maps(ns, s.up_masks, r.n, r.up_masks, allow_top):
        assignment = tuple(TOP if v == ns else v for v in vec)
        yield SpectralMap(s, r, assignment)
