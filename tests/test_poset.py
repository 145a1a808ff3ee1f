"""Poset construction, chain enumeration, and poset enumeration.

The oracles here are deliberately naive: chains by scanning every subset
with itertools, counts frozen from independent first-principles runs, and
the order axioms checked over all triples.
"""

import random
from itertools import chain as ichain, combinations

import numpy as np
import pytest

from chaincover import _kernels as K
from chaincover._kernels import _raw_up
from chaincover.poset import (
    AntisymmetryViolation,
    BoundExceeded,
    ChainRecord,
    Cut,
    DuplicateLabel,
    EmptyPoset,
    IndexOutOfRange,
    Poset,
    UnknownLabel,
    _normalized_poset,
    _strict_order_masks,
    check_order_axioms,
    chain_from_mask,
    covering_pairs,
    cuts_of,
    enumerate_chains,
    enumerate_posets,
    height,
    is_chain,
    make_poset,
    maximal_chains,
    random_poset,
)

# Frozen expected values (brute-force oracle runs, see oracle_* below):
# nonempty chains in the diamond, labeled posets per size, isomorphism classes.
DIAMOND_NONEMPTY_CHAINS = 11
LABELED_POSET_COUNTS = {0: 1, 1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}
UNLABELED_POSET_COUNTS = {0: 1, 1: 1, 2: 2, 3: 5, 4: 16, 5: 63}


def oracle_chains(p, include_empty):
    """Subsets that are pairwise comparable, by scanning the power set."""
    elts = range(p.n)
    sizes = range(0 if include_empty else 1, p.n + 1)
    found = []
    for subset in ichain.from_iterable(combinations(elts, k) for k in sizes):
        if all(p.leq[a, b] or p.leq[b, a] for a in subset for b in subset):
            found.append(frozenset(subset))
    return found


def oracle_is_maximal_chain(p, members):
    mset = set(members)
    if not all(p.leq[a, b] or p.leq[b, a] for a in mset for b in mset):
        return False
    for x in range(p.n):
        if x not in mset and all(p.leq[x, b] or p.leq[b, x] for b in mset):
            return False
    return True


# The numpy construction, Hasse pairs and height that the mask code replaced,
# kept as references for it.


def oracle_make_poset(labels, pairs):
    """(labels in index order, leq) by a numpy closure and scalar indexing."""
    labels = list(labels)
    n = len(labels)
    seen = set()
    for lab in labels:
        if lab in seen:
            raise DuplicateLabel(f"label {lab!r} declared twice")
        seen.add(lab)
    index = {lab: i for i, lab in enumerate(labels)}
    rel = np.eye(n, dtype=bool)
    for a, b in pairs:
        if a not in index:
            raise UnknownLabel(f"no element labeled {a!r}")
        if b not in index:
            raise UnknownLabel(f"no element labeled {b!r}")
        rel[index[a], index[b]] = True
    while True:
        closed = rel | (rel @ rel)
        if np.array_equal(closed, rel):
            break
        rel = closed
    sym = rel & rel.T
    np.fill_diagonal(sym, False)
    if sym.any():
        i, j = np.argwhere(sym)[0]
        raise AntisymmetryViolation(f"elements {labels[i]!r} and {labels[j]!r} lie on a cycle")
    remaining = list(range(n))
    order = []
    while remaining:
        i = next(i for i in remaining if not any(rel[j, i] and j != i for j in remaining))
        order.append(i)
        remaining.remove(i)
    return tuple(labels[i] for i in order), rel[np.ix_(order, order)]


def oracle_covering_pairs(p):
    lt = p.leq & ~np.eye(p.n, dtype=bool)
    return [(int(i), int(j)) for i, j in np.argwhere(lt & ~(lt @ lt))]


def oracle_covering_loop(up):
    """Covering pairs of up masks, row-major: the loop `covering_pairs` ran
    on every call before it read the pairs from the record of the order."""
    strict = [m ^ (1 << i) for i, m in enumerate(up)]
    pairs = []
    for i, above in enumerate(strict):
        beyond = 0
        rest = above
        while rest:
            low = rest & -rest
            beyond |= strict[low.bit_length() - 1]
            rest ^= low
        rest = above & ~beyond
        while rest:
            low = rest & -rest
            pairs.append((i, low.bit_length() - 1))
            rest ^= low
    return pairs


def oracle_height(p):
    best = [0] * p.n
    for i in range(p.n):
        best[i] = 1 + max((best[j] for j in range(i) if p.leq[j, i] and j != i), default=0)
    return max(best, default=0)


def oracle_check_leq_matrix(labels, leq):
    """The numpy checks Poset.from_leq_matrix once ran, in their order."""
    n = len(labels)
    leq = np.asarray(leq, dtype=bool)
    if leq.shape != (n, n):
        raise ValueError(f"order matrix must be {n}x{n}")
    if not np.all(np.diagonal(leq)):
        raise ValueError("order relation must be reflexive")
    sym = leq & leq.T
    np.fill_diagonal(sym, False)
    if sym.any():
        i, j = np.argwhere(sym)[0]
        raise AntisymmetryViolation(f"elements {labels[i]!r} and {labels[j]!r} lie on a cycle")
    if ((leq @ leq) & ~leq).any():
        raise ValueError("order relation must be transitive")


def random_poset_input(rng):
    """Labels and pairs that may repeat labels, name unknown ones, or cycle."""
    pool = list("abcdef")
    labels = rng.sample(pool, rng.randint(0, 6))
    if labels and rng.random() < 0.1:
        labels.insert(rng.randrange(len(labels) + 1), rng.choice(labels))
    names = labels + ["z"] if rng.random() < 0.1 else labels or ["z"]
    pairs = [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 8))]
    return labels, pairs


def diamond():
    return make_poset(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


def n_poset():
    return make_poset(["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("b", "d")])


class TestMakePoset:
    def test_singleton(self):
        p = make_poset(["a"], [])
        assert p.n == 1
        assert p.labels == ("a",)
        assert p.leq[0, 0]

    def test_transitive_closure(self):
        p = make_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert p.leq[p.index("a"), p.index("c")]

    def test_cycle_rejected(self):
        with pytest.raises(AntisymmetryViolation):
            make_poset(["a", "b"], [("a", "b"), ("b", "a")])

    def test_long_cycle_rejected(self):
        with pytest.raises(AntisymmetryViolation):
            make_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])

    def test_normalization_rejects_masks_with_a_cycle(self):
        # callers check the order first; unchecked masks must not hang
        with pytest.raises(ValueError, match="no element left is minimal"):
            _normalized_poset(("a", "b"), [0b11, 0b11])

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            make_poset(["a", "a"], [])

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            make_poset(["a"], [("a", "z")])

    def test_empty_poset_allowed(self):
        p = make_poset([], [])
        assert p.n == 0

    def test_index_round_trip(self):
        p = diamond()
        for lab in "abcd":
            assert p.labels[p.index(lab)] == lab
        with pytest.raises(UnknownLabel):
            p.index("z")

    def test_index_order_is_linear_extension(self):
        for k, n in enumerate([3, 4, 5, 6, 7]):
            p = random_poset(n, seed=100 + k)
            for i in range(p.n):
                for j in range(i + 1, p.n):
                    assert not p.less(j, i)

    def test_axioms_on_random_posets(self):
        for seed in range(20):
            assert check_order_axioms(random_poset(6, seed))

    def test_random_poset_deterministic(self):
        assert random_poset(5, seed=7) == random_poset(5, seed=7)

    def test_matches_numpy_oracle(self):
        rng = random.Random(20261018)
        outcomes = set()
        for _ in range(3000):
            labels, pairs = random_poset_input(rng)
            try:
                want = oracle_make_poset(labels, pairs)
            except ValueError as exc:
                with pytest.raises(type(exc)) as got:
                    make_poset(labels, pairs)
                assert str(got.value) == str(exc)
                outcomes.add(type(exc))
                continue
            p = make_poset(labels, pairs)
            assert p.labels == want[0]
            assert p.leq.dtype == bool and np.array_equal(p.leq, want[1])
            assert p.up_masks == tuple(
                sum(1 << j for j in range(p.n) if want[1][i, j]) for i in range(p.n)
            )
            outcomes.add(Poset)
        assert outcomes == {Poset, DuplicateLabel, UnknownLabel, AntisymmetryViolation}

    def test_from_leq_matrix_rejects_malformed_orders(self):
        labels = ["a", "b", "c"]
        cases = {
            "order matrix must be 3x3": np.eye(2, dtype=bool),
            "order relation must be reflexive": [[1, 1, 0], [0, 0, 0], [0, 0, 1]],
            "elements 'b' and 'c' lie on a cycle": [[1, 0, 0], [0, 1, 1], [0, 1, 1]],
            "order relation must be transitive": [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
        }
        for message, leq in cases.items():
            with pytest.raises(ValueError) as want:
                oracle_check_leq_matrix(labels, leq)
            with pytest.raises(type(want.value)) as got:
                Poset.from_leq_matrix(labels, leq)
            assert str(got.value) == str(want.value) == message

    def test_from_leq_matrix_matches_numpy_checks(self):
        # random matrices, most with a full diagonal; a valid one gives the
        # poset that make_poset builds from its pairs
        rng = random.Random(20261019)
        outcomes = set()
        for _ in range(3000):
            n = rng.randint(0, 5)
            labels = [f"x{i}" for i in range(n)]
            leq = np.array(
                [[i == j and rng.random() < 0.97 or rng.random() < 0.2 for j in range(n)]
                 for i in range(n)],
                dtype=bool,
            ).reshape(n, n)
            try:
                oracle_check_leq_matrix(labels, leq)
            except ValueError as exc:
                with pytest.raises(type(exc)) as got:
                    Poset.from_leq_matrix(labels, leq)
                assert str(got.value) == str(exc)
                outcomes.add(str(exc).split()[-1])
                continue
            pairs = [(labels[i], labels[j]) for i in range(n) for j in range(n) if leq[i, j]]
            assert Poset.from_leq_matrix(labels, leq) == make_poset(labels, pairs)
            outcomes.add(Poset)
        assert outcomes == {Poset, "reflexive", "cycle", "transitive"}

    def test_leq_is_read_only(self):
        with pytest.raises(ValueError):
            diamond().leq[0, 1] = True


class TestCoveringPairs:
    def test_chain(self):
        p = make_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        got = {(p.labels[i], p.labels[j]) for i, j in covering_pairs(p)}
        assert got == {("a", "b"), ("b", "c")}

    def test_antichain(self):
        p = make_poset(["a", "b"], [])
        assert covering_pairs(p) == []

    def test_diamond(self):
        got = {(diamond().labels[i], diamond().labels[j]) for i, j in covering_pairs(diamond())}
        assert got == {("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")}

    def test_closure_of_covers_recovers_order(self):
        for seed in range(15):
            p = random_poset(6, seed)
            rebuilt = make_poset(
                list(p.labels),
                [(p.labels[i], p.labels[j]) for i, j in covering_pairs(p)],
            )
            assert rebuilt == p

    def test_matches_numpy_oracle_on_every_small_poset(self):
        for n in range(6):
            for p in enumerate_posets(n):
                assert covering_pairs(p) == oracle_covering_pairs(p)
                assert height(p) == oracle_height(p)


    def test_record_pairs_match_the_loop_on_every_labeled_poset(self):
        # order included, on every labeled order of at most five elements,
        # and on the normalized posets built from them
        for n in range(6):
            for rows in _strict_order_masks(n):
                up = _raw_up(rows)
                assert list(K._RECORDS[rows].hasse) == oracle_covering_loop(up), rows
            for p in enumerate_posets(n):
                assert covering_pairs(p) == oracle_covering_loop(p.up_masks), p


class TestIsChain:
    def test_empty_subset(self):
        assert is_chain(diamond(), [])

    def test_comparable_pair(self):
        p = diamond()
        assert is_chain(p, [p.index("a"), p.index("c")])

    def test_incomparable_pair(self):
        p = diamond()
        assert not is_chain(p, [p.index("b"), p.index("c")])

    def test_full_chain(self):
        p = make_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert is_chain(p, range(3))

    def test_bad_index(self):
        with pytest.raises(IndexOutOfRange):
            is_chain(diamond(), [9])


class TestEnumerateChains:
    def test_two_antichain(self):
        p = make_poset(["a", "b"], [])
        got = [c.member_labels() for c in enumerate_chains(p, include_empty=False)]
        assert got == [("a",), ("b",)]

    def test_two_chain_with_empty(self):
        p = make_poset(["a", "b"], [("a", "b")])
        got = [c.member_labels() for c in enumerate_chains(p, include_empty=True)]
        assert got == [(), ("a",), ("b",), ("a", "b")]

    def test_diamond_count(self):
        got = list(enumerate_chains(diamond(), include_empty=False))
        assert len(got) == DIAMOND_NONEMPTY_CHAINS

    def test_matches_oracle(self):
        for seed in range(10):
            p = random_poset(6, seed)
            got = [frozenset(c.members) for c in enumerate_chains(p, include_empty=True)]
            assert len(got) == len(set(got))
            assert set(got) == set(oracle_chains(p, include_empty=True))

    def test_ascending_mask_order(self):
        p = diamond()
        masks = [c.mask for c in enumerate_chains(p, include_empty=True)]
        assert masks == sorted(masks)

    def test_members_ascend_in_order(self):
        for seed in range(10):
            p = random_poset(5, seed)
            for c in enumerate_chains(p, include_empty=False):
                for a, b in zip(c.members, c.members[1:]):
                    assert p.less(a, b)

    def test_bound_guard(self):
        p = make_poset([f"x{i}" for i in range(21)], [])
        with pytest.raises(BoundExceeded):
            next(enumerate_chains(p, include_empty=False))


class TestMaximalChains:
    def test_total_order(self):
        p = make_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert [c.member_labels() for c in maximal_chains(p)] == [("a", "b", "c")]

    def test_antichain(self):
        p = make_poset(["a", "b"], [])
        assert [c.member_labels() for c in maximal_chains(p)] == [("a",), ("b",)]

    def test_n_poset(self):
        got = [c.member_labels() for c in maximal_chains(n_poset())]
        assert got == [("a", "c"), ("b", "c"), ("b", "d")]

    def test_empty_poset_rejected(self):
        with pytest.raises(EmptyPoset):
            maximal_chains(make_poset([], []))

    def test_matches_oracle(self):
        for seed in range(12):
            p = random_poset(6, seed)
            got = {frozenset(c.members) for c in maximal_chains(p)}
            expect = {
                frozenset(c.members)
                for c in enumerate_chains(p, include_empty=True)
                if oracle_is_maximal_chain(p, c.members)
            }
            assert got == expect


class TestCuts:
    def test_proper_cuts_of_pair(self):
        p = make_poset(["a", "b"], [("a", "b")])
        c = chain_from_mask(p, 0b11)
        cuts = cuts_of(c, proper_only=True)
        assert len(cuts) == 1
        assert cuts[0].left == (c.members[0],)
        assert cuts[0].right == (c.members[1],)

    def test_all_cuts_of_empty(self):
        p = diamond()
        c = ChainRecord(p, ())
        cuts = cuts_of(c, proper_only=False)
        assert len(cuts) == 1
        assert cuts[0].left == () and cuts[0].right == ()
        assert not cuts[0].proper

    def test_proper_cuts_of_triple(self):
        p = make_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        c = chain_from_mask(p, 0b111)
        assert len(cuts_of(c, proper_only=True)) == 2

    def test_cut_partition(self):
        p = make_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        c = chain_from_mask(p, 0b111)
        for cut in cuts_of(c, proper_only=False):
            assert cut.left + cut.right == c.members

    def test_bad_split_rejected(self):
        p = make_poset(["a"], [])
        c = chain_from_mask(p, 0b1)
        with pytest.raises(ValueError):
            Cut(c, 5)


class TestEnumeratePosets:
    @pytest.mark.parametrize("n", range(5))
    def test_labeled_counts(self, n):
        assert sum(1 for _ in enumerate_posets(n)) == LABELED_POSET_COUNTS[n]

    def test_labeled_count_five(self):
        assert sum(1 for _ in enumerate_posets(5)) == LABELED_POSET_COUNTS[5]

    @pytest.mark.parametrize("n", range(5))
    def test_unlabeled_counts(self, n):
        assert sum(1 for _ in enumerate_posets(n, dedup=True)) == UNLABELED_POSET_COUNTS[n]

    def test_unlabeled_count_five(self):
        assert sum(1 for _ in enumerate_posets(5, dedup=True)) == UNLABELED_POSET_COUNTS[5]

    def test_all_distinct_and_valid(self):
        seen = set()
        for p in enumerate_posets(3):
            assert check_order_axioms(p)
            key = frozenset(
                (p.labels[i], p.labels[j]) for i, j in p.order_pairs()
            )
            assert key not in seen
            seen.add(key)

    def test_antichain_first(self):
        first = next(enumerate_posets(2))
        assert first.order_pairs() == []

    def test_bound_guard(self):
        with pytest.raises(BoundExceeded):
            next(enumerate_posets(6))
        with pytest.raises(BoundExceeded):
            next(enumerate_posets(-1))


class TestHeight:
    def test_examples(self):
        assert height(make_poset([], [])) == 0
        assert height(make_poset(["a", "b"], [])) == 1
        assert height(diamond()) == 3
        assert height(n_poset()) == 2

    def test_matches_maximal_chains(self):
        for seed in range(10):
            p = random_poset(6, seed)
            assert height(p) == max(len(c) for c in maximal_chains(p))


class TestChainRecord:
    def test_rejects_unsorted_members(self):
        p = make_poset(["a", "b"], [("a", "b")])
        i, j = p.index("a"), p.index("b")
        with pytest.raises(ValueError):
            ChainRecord(p, (j, i))

    def test_rejects_incomparable_members(self):
        p = make_poset(["a", "b"], [])
        with pytest.raises(ValueError):
            ChainRecord(p, (0, 1))

    def test_mask_round_trip(self):
        p = diamond()
        for c in enumerate_chains(p, include_empty=True):
            assert chain_from_mask(p, c.mask) == c
