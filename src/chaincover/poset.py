"""Finite partially ordered sets with deterministic enumeration.

Posets are stored as per-element up, down and comparability bitmasks, which
keeps comparability O(1) and makes chain enumeration cheap at the sizes this
package targets. Element indices are assigned along a linear extension
of the order, so ascending-index members of a chain are automatically in
ascending poset order and every enumeration stream has one canonical order.
Each poset reads the kernel fact record of its order, `Poset.facts`, from
the process-wide table `_kernels._RECORDS`, keyed by its strict up masks:
every poset with the same order, whether parsed, built, a ring spectrum or
a shrink candidate, shares one record. Its masks, Hasse pairs, chains,
maximal chains and height here, and every spectral map from or into the
poset, read that record.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from ._kernels import _RECORDS, _canonical_encoding, _down_masks, _is_chain

# Labeled-poset enumeration scans 3^(n(n-1)/2) candidate relations.
POSET_ENUM_BOUND = 5

# Chain enumeration scans 2^n subset masks.
MASK_ENUM_BOUND = 20


class DuplicateLabel(ValueError):
    """A label occurs more than once in a poset definition."""


class UnknownLabel(ValueError):
    """An order pair references a label that was never declared."""


class AntisymmetryViolation(ValueError):
    """The transitive closure of the declared pairs contains a cycle."""


class IndexOutOfRange(IndexError):
    """An element index does not belong to the poset."""


class EmptyPoset(ValueError):
    """The operation needs a poset with at least one element."""


class BoundExceeded(ValueError):
    """A requested enumeration is larger than the configured size bound."""


class Poset:
    """Immutable finite partial order over labeled elements.

    Bit j of ``up_masks[i]`` is set iff element i is below or equal to
    element j; ``leq`` is the same relation as a read-only bool matrix.
    Construction normalizes the element order to a linear extension
    (smaller strict down-sets first, stable), so ``i < j`` as integers never
    contradicts the partial order. ``facts`` is the PosetFacts record of
    the order, shared by every poset with the same up masks and kept in
    `_RECORDS` for the life of the process, so every map over the poset and
    every chain query on it share its chains, maximal chains, D-chain and
    allowed tables. ``down_masks`` and ``comp_masks`` are the record's
    masks, read only.
    """

    __slots__ = (
        "labels", "n", "up_masks", "down_masks", "comp_masks", "_index", "_leq", "facts"
    )

    def __init__(self, labels: tuple[str, ...], up_masks: tuple[int, ...]):
        # Internal constructor: `up_masks` must already be a valid order in
        # linear-extension index order. Use make_poset / from_leq_matrix instead.
        self.labels = labels
        self.n = len(labels)
        self.up_masks = up_masks
        self._leq = None
        facts = self.facts = _RECORDS[tuple(m & ~(1 << i) for i, m in enumerate(up_masks))]
        self.down_masks = facts.down
        self.comp_masks = facts.comp
        self._index = {lab: i for i, lab in enumerate(labels)}

    @property
    def leq(self):
        """Read-only numpy bool matrix: ``leq[i, j]`` iff element i <= element j."""
        if self._leq is None:
            import numpy as np

            rows = [[up >> j & 1 for j in range(self.n)] for up in self.up_masks]
            self._leq = np.array(rows, dtype=bool).reshape(self.n, self.n)
            self._leq.setflags(write=False)
        return self._leq

    @classmethod
    def from_leq_matrix(cls, labels: list[str] | tuple[str, ...], leq) -> "Poset":
        """Validate an order matrix, normalize the index order, build a Poset."""
        import numpy as np

        labels = tuple(labels)
        n = len(labels)
        if len(set(labels)) != n:
            seen = set()
            for lab in labels:
                if lab in seen:
                    raise DuplicateLabel(f"label {lab!r} declared twice")
                seen.add(lab)
        leq = np.asarray(leq, dtype=bool)
        if leq.shape != (n, n):
            raise ValueError(f"order matrix must be {n}x{n}")
        up = [sum(1 << j for j, le in enumerate(row) if le) for row in leq.tolist()]
        _check_order_masks(labels, up)
        return _normalized_poset(labels, up)

    def index(self, label: str) -> int:
        """Index of the element carrying `label`."""
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"no element labeled {label!r}") from None

    def check_index(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexOutOfRange(f"index {i} not in 0..{self.n - 1}")
        return i

    def less(self, i: int, j: int) -> bool:
        """Strict order test."""
        return i != j and bool(self.up_masks[i] >> j & 1)

    def up_array(self):
        """Up-set bitmasks as a numpy int64 array."""
        import numpy as np

        return np.array(self.up_masks, dtype=np.int64)

    def order_pairs(self) -> list[tuple[int, int]]:
        """All strict pairs (i, j) with i < j in the order."""
        return [
            (i, j)
            for i, up in enumerate(self.up_masks)
            for j in range(self.n)
            if i != j and up >> j & 1
        ]

    def __reduce__(self):
        # by value: the record is read again from this process's _RECORDS
        return Poset, (self.labels, self.up_masks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.labels == other.labels and self.up_masks == other.up_masks

    def __hash__(self) -> int:
        return hash((self.labels, self.up_masks))

    def __repr__(self) -> str:
        rel = ",".join(f"{self.labels[i]}<{self.labels[j]}" for i, j in covering_pairs(self))
        return f"Poset({list(self.labels)!r}, [{rel}])"


@dataclass(frozen=True)
class ChainRecord:
    """A chain: members pairwise comparable, listed in ascending order."""

    poset: Poset
    members: tuple[int, ...]

    def __post_init__(self):
        prev = None
        for i in self.members:
            self.poset.check_index(i)
            if prev is not None and not self.poset.less(prev, i):
                raise ValueError(f"members {self.members} are not strictly ascending")
            prev = i

    @property
    def mask(self) -> int:
        m = 0
        for i in self.members:
            m |= 1 << i
        return m

    def member_labels(self) -> tuple[str, ...]:
        return tuple(self.poset.labels[i] for i in self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


@dataclass(frozen=True)
class Cut:
    """A split of a chain into an initial segment and the rest."""

    chain: ChainRecord
    split: int  # 0 <= split <= len(chain)

    def __post_init__(self):
        if not 0 <= self.split <= len(self.chain):
            raise ValueError(f"split {self.split} out of range for {self.chain}")

    @property
    def left(self) -> tuple[int, ...]:
        return self.chain.members[: self.split]

    @property
    def right(self) -> tuple[int, ...]:
        return self.chain.members[self.split :]

    @property
    def proper(self) -> bool:
        return 0 < self.split < len(self.chain)


def _normalized_poset(labels: tuple[str, ...], up: list[int]) -> Poset:
    """Poset of a valid order whose bit j of up[i] says labels[i] <= labels[j].

    Indices are renumbered along the lexicographically least linear
    extension: repeatedly take the smallest original index among the
    still-unplaced minimal elements, which keeps incomparable elements in
    declaration order. Masks with a cycle leave no element minimal at some
    step, which raises ValueError.
    """
    n = len(up)
    down = _down_masks(n, up)
    order = []
    left = (1 << n) - 1
    while left:
        rest = left
        while rest:
            low = rest & -rest
            if down[low.bit_length() - 1] & left == low:
                break
            rest ^= low
        else:
            raise ValueError("the masks are not a partial order: no element left is minimal")
        order.append(low.bit_length() - 1)
        left ^= low
    if order == list(range(n)):
        return Poset(labels, tuple(up))
    new_index = [0] * n
    for new, old in enumerate(order):
        new_index[old] = new
    relabeled = []
    for old in order:
        mask = 0
        rest = up[old]
        while rest:
            low = rest & -rest
            mask |= 1 << new_index[low.bit_length() - 1]
            rest ^= low
        relabeled.append(mask)
    return Poset(tuple(labels[i] for i in order), tuple(relabeled))


def _check_order_masks(labels: tuple[str, ...], up: list[int]) -> None:
    """Raise unless `up` is a partial order.

    A missing self bit is found first, then the first pair on a cycle in
    row-major order, then a missing transitive pair.
    """
    n = len(up)
    if any(not up[i] >> i & 1 for i in range(n)):
        raise ValueError("order relation must be reflexive")
    for i in range(n):
        rest = up[i] ^ (1 << i)
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            if up[j] >> i & 1:
                raise AntisymmetryViolation(
                    f"elements {labels[i]!r} and {labels[j]!r} lie on a cycle"
                )
            rest ^= low
    for i in range(n):
        rest = up[i]
        while rest:
            low = rest & -rest
            if up[low.bit_length() - 1] & ~up[i]:
                raise ValueError("order relation must be transitive")
            rest ^= low


def make_poset(labels: list[str], pairs: list[tuple[str, str]]) -> Poset:
    """Build the poset generated by `pairs` as order assertions.

    The relation is the reflexive-transitive closure of the pairs; a cycle
    through distinct elements raises AntisymmetryViolation.
    """
    labels = tuple(labels)
    n = len(labels)
    index: dict[str, int] = {}
    for i, lab in enumerate(labels):
        if lab in index:
            raise DuplicateLabel(f"label {lab!r} declared twice")
        index[lab] = i
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        if a not in index:
            raise UnknownLabel(f"no element labeled {a!r}")
        if b not in index:
            raise UnknownLabel(f"no element labeled {b!r}")
        up[index[a]] |= 1 << index[b]
    # Warshall's algorithm: after step k every path through 0..k is closed.
    for k in range(n):
        bit, row = 1 << k, up[k]
        for i in range(n):
            if up[i] & bit:
                up[i] |= row
    _check_order_masks(labels, up)  # the closure leaves only cycles to find
    return _normalized_poset(labels, up)


def covering_pairs(p: Poset) -> list[tuple[int, int]]:
    """Transitive reduction: pairs (x, y) with x < y and nothing in between,
    in row-major order, from the record of the order (`PosetFacts.hasse`)."""
    return list(p.facts.hasse)


def is_chain(p: Poset, subset) -> bool:
    """True iff the given element indices are pairwise comparable."""
    mask = 0
    for i in subset:
        p.check_index(i)
        mask |= 1 << i
    return _is_chain(p.comp_masks, mask)


def chain_from_mask(p: Poset, mask: int) -> ChainRecord:
    """ChainRecord for a membership bitmask (indices ascend with the order)."""
    members = tuple(i for i in range(p.n) if mask >> i & 1)
    return ChainRecord(p, members)


def enumerate_chains(p: Poset, include_empty: bool):
    """Yield every chain exactly once, in ascending-bitmask order."""
    if p.n > MASK_ENUM_BOUND:
        raise BoundExceeded(f"chain enumeration supports at most {MASK_ENUM_BOUND} elements")
    masks = p.facts.chains  # the empty chain first
    for mask in masks if include_empty else masks[1:]:
        yield chain_from_mask(p, mask)


def maximal_chains(p: Poset) -> list[ChainRecord]:
    """All maximal chains, in lexicographic member order."""
    if p.n == 0:
        raise EmptyPoset("maximal chains need a nonempty poset")
    chains = (chain_from_mask(p, mask) for mask in p.facts.max_chains)
    return sorted(chains, key=lambda c: c.members)


def cuts_of(chain: ChainRecord, proper_only: bool) -> list[Cut]:
    """All cuts of the chain; proper cuts leave both sides nonempty."""
    k = len(chain)
    lo, hi = (1, k) if proper_only else (0, k + 1)
    return [Cut(chain, split) for split in range(lo, hi)]


@lru_cache(maxsize=None)
def _strict_order_masks(n: int) -> tuple[tuple[int, ...], ...]:
    """Every strict partial order on 0..n-1, as per-element strict-up masks.

    Each unordered pair independently takes one of three states (incomparable,
    i<j, j<i), which enumerates exactly the antisymmetric relations; a
    transitivity filter keeps the partial orders. Lexicographic over the
    state vectors, so the all-incomparable antichain comes first.
    """
    pair_list = [(i, j) for i in range(n) for j in range(i + 1, n)]
    orders = []
    for states in product((0, 1, 2), repeat=len(pair_list)):
        rows = [0] * n
        for (i, j), st in zip(pair_list, states):
            if st == 1:
                rows[i] |= 1 << j
            elif st == 2:
                rows[j] |= 1 << i
        ok = True
        for i in range(n):
            m = rows[i]
            rest = m
            while rest:
                j = (rest & -rest).bit_length() - 1
                if rows[j] & ~m:
                    ok = False
                    break
                rest &= rest - 1
            if not ok:
                break
        if ok:
            orders.append(tuple(rows))
    return tuple(orders)


def _poset_from_strict_rows(rows: tuple[int, ...]) -> Poset:
    # rows of _strict_order_masks, so already a strict partial order
    labels = tuple(f"e{i}" for i in range(len(rows)))
    return _normalized_poset(labels, [row | 1 << i for i, row in enumerate(rows)])


def enumerate_posets(n: int, dedup: bool = False):
    """Yield every labeled partial order on n elements exactly once.

    With dedup=True only one representative per isomorphism class is kept
    (the lexicographically least relabeling), an optional space reduction
    that is off by default.
    """
    if not 0 <= n <= POSET_ENUM_BOUND:
        raise BoundExceeded(f"poset enumeration bound is {POSET_ENUM_BOUND}, got n={n}")
    for rows in _strict_order_masks(n):
        if dedup and _canonical_encoding(rows) != rows:
            continue
        yield _poset_from_strict_rows(rows)


def random_poset(n: int, seed: int) -> Poset:
    """Random DAG under a random relabeling, transitively closed."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    import numpy as np

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    adj = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                adj[perm[i], perm[j]] = True
    while True:
        closed = adj | (adj @ adj)
        if np.array_equal(closed, adj):
            break
        adj = closed
    return Poset.from_leq_matrix([f"e{i}" for i in range(n)], adj)


def check_order_axioms(p: Poset) -> bool:
    """Reflexivity, antisymmetry and transitivity over all index triples."""
    leq = p.leq
    for x in range(p.n):
        if not leq[x, x]:
            return False
        for y in range(p.n):
            if x != y and leq[x, y] and leq[y, x]:
                return False
            for z in range(p.n):
                if leq[x, y] and leq[y, z] and not leq[x, z]:
                    return False
    return True


def height(p: Poset) -> int:
    """Size of the longest chain (0 for the empty poset), a maximal one."""
    return max((mask.bit_count() for mask in p.facts.max_chains), default=0)
