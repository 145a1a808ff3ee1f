"""Kernel-level tests: the chain mask primitives against brute-force scans
that use only itertools and the order matrix, the per-poset fact records
against the primitives they tabulate, every per-map verdict against a
digest pinned from earlier kernels (with the clause codes that occur), the
kernel module loading without numpy or the package, the per-sweep
isomorphism-class memo, and the symmetry tables: automorphisms against
networkx, canonical forms against the plain n! scan, and the orbit
representatives of the maps against orbits built here, with their property
ints against property_bits.

The memo test compares a memoized sweep chunk's map total and first
violation with the same kernel called without a memo on each pair; the
search test compares the orbit scan of search_pair on records, and a search
chunk over class pairs, with the full scan on plain up masks of each
labeled pair. The filter tests check the scan's filter over property ints,
word by word against the mask test and pair by pair against plain loops
that call eval_theorem or _goal_met on every map. The two sweep routes are
compared too: each theorem's fails formula over the fact ints against its
per-map conclusion on every orbit representative, and the memo scan's
first violation against the full scan's. The closed-form conclusions are
compared with the member loops they replaced (property_oracles), on every
map at (3, 3) and (2, 4) and on maps past the bytes image table, and the
end, link and image tables with scans of the chains' members.
"""

import hashlib
import random
import subprocess
import sys
from itertools import combinations, permutations, product

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chaincover import _kernels as K
from chaincover.poset import (
    EmptyPoset,
    _strict_order_masks,
    enumerate_chains,
    enumerate_posets,
    maximal_chains,
    random_poset,
)
from chaincover.search import GOALS, _flag_masks, _search_chunk
from chaincover.theorems import (
    TheoremId,
    _raw_up,
    _sweep_chunk,
    class_pairs,
    exhaustive_verify,
    labeled_posets,
    sweep_pairs,
)
from property_oracles import (
    LOOP_THEOREMS,
    end_of_chain,
    image_mask,
    loop_chain_morphism,
    scalar_property_bits,
)


def _brute_force_chains(p, allowed):
    """Subsets of `allowed` whose members are pairwise comparable."""
    members = [i for i in range(p.n) if allowed >> i & 1]

    def is_chain(subset):
        return all(p.leq[a, b] or p.leq[b, a] for a, b in combinations(subset, 2))

    return [
        subset
        for k in range(len(members) + 1)
        for subset in combinations(members, k)
        if is_chain(subset)
    ]


def _brute_force_maximal_chains(p, allowed):
    """Chains inside `allowed` that no larger chain inside it contains."""
    chains = _brute_force_chains(p, allowed)
    return [c for c in chains if not any(set(c) < set(d) for d in chains)]


def _mask(members):
    return sum(1 << i for i in members)


def _all_posets():
    # every labeled poset with at most four elements, the empty one first
    for n in range(5):
        yield from enumerate_posets(n)


def test_chain_masks_match_object_enumeration():
    for p in _all_posets():
        want = sorted(_mask(c) for c in _brute_force_chains(p, (1 << p.n) - 1))
        assert K._chain_masks(p.n, p.comp_masks) == want, p
        chains = [c.mask for c in enumerate_chains(p, include_empty=True)]
        assert chains == want, p
        nonempty = [c.mask for c in enumerate_chains(p, include_empty=False)]
        assert nonempty == want[1:], p
        for mask in range(1 << p.n):
            assert K._is_chain(p.comp_masks, mask) == (mask in want), (p, mask)


def test_maximal_chain_masks_match_object_enumeration():
    # ascending masks for the kernel: theorems that stop at the first bad
    # maximal chain report that chain's clause code; member tuples in
    # lexicographic order for the object level
    for p in _all_posets():
        found = _brute_force_maximal_chains(p, (1 << p.n) - 1) if p.n else []
        got = K._maximal_chain_masks(p.n, p.up_masks, p.down_masks)
        assert got == sorted(_mask(c) for c in found), p
        if p.n == 0:
            assert got == []
            with pytest.raises(EmptyPoset):
                maximal_chains(p)
            continue
        assert [c.members for c in maximal_chains(p)] == sorted(found), p


def test_maximal_dchains_match_brute_force():
    # order included: callers that stop at the first defective chain report
    # the clause code of the first chain in descending mask order
    for p in _all_posets():
        for allowed in range(1 << p.n):
            got = K._maximal_dchains(p.up_masks, p.down_masks, allowed)
            want = [_mask(c) for c in _brute_force_maximal_chains(p, allowed)]
            assert got == sorted(want, reverse=True), (p, allowed)


def test_dchain_table_matches_primitive():
    # order included, on every allowed mask; a second lookup reads the
    # entry the first one stored
    for p in _all_posets():
        record = K.PosetFacts(p.up_masks)
        for _ in range(2):
            for allowed in range(1 << p.n):
                want = K._maximal_dchains(p.up_masks, p.down_masks, allowed)
                assert record.dchains[allowed] == want, (p, allowed)
        assert len(record.dchains) == 1 << p.n
        assert record == p.up_masks
        assert (record.down, record.comp) == (list(p.down_masks), list(p.comp_masks))
        assert record.chains == K._chain_masks(p.n, p.comp_masks)
        assert record.max_chains == K._maximal_chain_masks(p.n, p.up_masks, p.down_masks)


def _scanned_allowed(ns, cmap, d):
    """Elements of r whose value is a member of D, by scanning r."""
    return sum(1 << q for q, v in enumerate(cmap) if v != ns and d >> v & 1)


def test_property_bits_match_scalar_deciders_at_3_3():
    maps = 0
    seen = set()
    for _, s_rows, r_rows in sweep_pairs(3, 3):
        s, r = K.PosetFacts(_raw_up(s_rows)), K.PosetFacts(_raw_up(r_rows))
        for cmap in K.monotone_maps(s.n, s, r.n, r, True):
            bits = K.property_bits(s.n, s, r.n, r, cmap)
            assert bits == scalar_property_bits(s.n, tuple(s), r.n, tuple(r), cmap), (s, r, cmap)
            seen.add(bits)
            maps += 1
    assert maps == 11614
    # every flag is met and missed somewhere
    assert all(any(b & flag for b in seen) and any(not b & flag for b in seen)
               for flag in (1, 2, 4, 8, 16, 32, 64))


@st.composite
def _poset_pair_and_map(draw):
    """Random posets with at most 5 and 6 elements and a monotone map, TOP
    allowed; values are drawn along the order of r, whose indices follow a
    linear extension, from those over the values already below."""
    ns, nr = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    s = random_poset(ns, draw(st.integers(0, 2**32 - 1)))
    r = random_poset(nr, draw(st.integers(0, 2**32 - 1)))
    cmap = []
    for q in range(nr):
        below = [cmap[j] for j in range(q) if r.up_masks[j] >> q & 1]
        options = [v for v in range(ns) if all(b != ns and s.up_masks[b] >> v & 1 for b in below)]
        cmap.append(draw(st.sampled_from(options + [ns])))
    return s, r, tuple(cmap)


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_poset_pair_and_map())
def test_property_bits_match_scalar_deciders_on_random_pairs(instance):
    s, r, cmap = instance
    want = scalar_property_bits(s.n, s.up_masks, r.n, r.up_masks, cmap)
    assert K.property_bits(s.n, s.up_masks, r.n, r.up_masks, cmap) == want
    # records, and the int64 arrays the benchmark passes, give the same word
    records = K.PosetFacts(s.up_masks), K.PosetFacts(r.up_masks)
    assert K.property_bits(s.n, records[0], r.n, records[1], cmap) == want
    arrays = [np.array(up, dtype=np.int64) for up in (s.up_masks, r.up_masks)]
    got = K.property_bits(s.n, arrays[0], r.n, arrays[1], np.array(cmap, dtype=np.int64))
    assert got == want


def test_allowed_masks_match_element_scan():
    maps = 0
    for _, s_rows, r_rows in sweep_pairs(3, 3):
        s, r = K.PosetFacts(_raw_up(s_rows)), K.PosetFacts(_raw_up(r_rows))
        for cmap in K.monotone_maps(s.n, s, r.n, r, True):
            allowed = K._allowed_masks(s, cmap)
            assert sorted(allowed) == s.chains
            for d, mask in allowed.items():
                assert mask == _scanned_allowed(s.n, cmap, d), (s, r, cmap, d)
            maps += 1
    assert maps == 11614


#: sha256 of the lines "<map> <property bits> <clause codes>" of every map
#: at (3, 3) with TOP allowed, the codes of the 16 theorems unwaived and
#: waived; pinned with the kernels of commit 93d4c88, which rebuilt every
#: maximal D-chain per map and enumerated maps one value test at a time
PER_MAP_DIGEST = "3190c345290ba043e02212f8a2d75ad59d9f20834bf74bfdf289c81857200c1c"


#: the (theorem, clause code) pairs that occur at (3, 3), all of them with
#: the hypotheses waived; no clause of a biconditional occurs there
WAIVED_CODES_AT_3_3 = {
    "T_COVER_MAXCHAIN": {1, 3},
    "C_PERFECT_MAXCHAIN": {1, 3, 4},
    "C_GGD": {1},
    "C_GGU_DUAL": {1},
    "T_PERFECT_COVER": {1, 2},
    "L_MAXCOVER_MAXCHAIN": {1},
    "C_MAXDCHAIN_MAXCHAIN": {1, 2},
    "C_EXISTS_MAXCHAIN_COVER": {1},
}


def test_per_map_verdicts_match_pinned_digest():
    calls = [(t, waive) for t in TheoremId for waive in (False, True)]
    digest = hashlib.sha256()
    maps = 0
    seen = set()
    for _, s_rows, r_rows in sweep_pairs(3, 3):
        s, r = K.PosetFacts(_raw_up(s_rows)), K.PosetFacts(_raw_up(r_rows))
        for cmap in K.monotone_maps(s.n, s, r.n, r, True):
            allowed = K._allowed_masks(s, cmap)
            bits = K.property_bits(s.n, s, r.n, r, cmap)
            codes = [K.eval_theorem(t.value, waive, s, r, cmap, bits, allowed) for t, waive in calls]
            digest.update(f"{cmap} {bits} {codes}\n".encode())
            seen.update((t.name, waive, code) for (t, waive), code in zip(calls, codes) if code)
            maps += 1
    assert maps * len(TheoremId) * 2 == 371648
    assert digest.hexdigest() == PER_MAP_DIGEST
    # every code is named by its theorem, and none occurs unwaived
    assert seen == {
        (name, True, code) for name, codes in WAIVED_CODES_AT_3_3.items() for code in codes
    }


def _labeled_pair_records(*bounds):
    """(s, r) fresh records of every labeled pair within any of the bounds, once each."""
    records = K._FilledTable(lambda rows: K.PosetFacts(_raw_up(rows)))
    pairs = dict.fromkeys((s, r) for b in bounds for _, s, r in sweep_pairs(*b))
    return [(records[s_rows], records[r_rows]) for s_rows, r_rows in pairs]


def _assert_codes_match_member_loops(s, r, cmap):
    allowed = s.allowed[cmap]
    bits = K.property_bits(s.n, s, r.n, r, cmap)
    for tid, (hypotheses, conclusion) in LOOP_THEOREMS.items():
        # unwaived, the code is the waived one when the hypotheses hold
        waived = conclusion(s, r, cmap, bits, allowed)
        met = all(bits & K.HYPOTHESIS_BITS[h] for h in hypotheses)
        for waive in (False, True):
            got = K.eval_theorem(tid, waive, s, r, cmap, bits, allowed)
            assert got == (waived if waive or met else 0), (tid, waive, s, r, cmap)
    # SCLO and GGD are read by theorems; chain morphism is not
    got = K.prop_chain_morphism(s, r, cmap, allowed)
    assert got == loop_chain_morphism(s, r, cmap, allowed), (s, r, cmap)


def test_closed_form_conclusions_match_member_loops():
    # every map of every labeled pair at (3, 3) and (2, 4), TOP allowed
    maps = 0
    for s, r in _labeled_pair_records((3, 3), (2, 4)):
        for cmap in K.monotone_maps(s.n, s, r.n, r, True):
            _assert_codes_match_member_loops(s, r, cmap)
            maps += 1
    # (2, 4) holds (2, 3), which (3, 3) holds too
    assert maps == 11614 + 19827 - 985


def test_images_past_a_byte_are_computed_when_read():
    # an r of nine elements, or an s of eight, is past the bytes table
    rng = random.Random(22)
    checked = 0
    for ns, nr in ((2, 9), (3, 9), (8, 2), (8, 3)):
        for seed in range(4):
            s = K.PosetFacts(random_poset(ns, seed).up_masks)
            r = K.PosetFacts(random_poset(nr, seed).up_masks)
            maps = K.monotone_maps(s.n, s, r.n, r, True)
            for cmap in rng.sample(maps, min(20, len(maps))):
                images = s.images[cmap]
                assert isinstance(images, dict) and not images
                _assert_codes_match_member_loops(s, r, cmap)
                assert images, cmap
                for c, img in images.items():
                    assert img == image_mask(cmap, c), (cmap, c)
                checked += 1
    assert checked > 100


def test_chain_tables_match_member_scans():
    for p in _all_posets():
        record = K.PosetFacts(p.up_masks)
        assert list(record.ends) == record.chains[1:]
        for d, (least, greatest) in record.ends.items():
            assert least == 1 << end_of_chain(p.up_masks, d), (p, d)
            assert greatest == 1 << end_of_chain(p.down_masks, d), (p, d)
            members = sorted(
                (i for i in range(p.n) if d >> i & 1), key=lambda i: -p.up_masks[i].bit_count()
            )
            assert record.links[d] == list(zip(members, members[1:])), (p, d)
        # every subset of r, for the maps of a one- and a two-element s
        for q in (*enumerate_posets(1), *enumerate_posets(2)):
            s = K.PosetFacts(q.up_masks)
            for cmap in K.monotone_maps(s.n, s, p.n, p.up_masks, True):
                images = s.images[cmap]
                assert isinstance(images, bytes) and len(images) == 1 << p.n
                assert list(images) == [image_mask(cmap, c) for c in range(1 << p.n)]


def test_kernels_load_alone_without_numpy():
    # loaded by path, the module has no package to import from, so a
    # relative import (say of the theorems) fails, and numpy is blocked
    script = "\n".join([
        "import importlib.util, sys",
        "sys.modules['numpy'] = None",
        f"spec = importlib.util.spec_from_file_location('kernels', {K.__file__!r})",
        "module = importlib.util.module_from_spec(spec)",
        "spec.loader.exec_module(module)",
        "print(' '.join(module.THEOREMS))",
    ])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [t.value for t in TheoremId]


def _counting(monkeypatch, name):
    """Replace K.<name> by a wrapper that counts its calls."""
    real = getattr(K, name)
    calls = [0]

    def wrapper(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(K, name, wrapper)
    return calls


def test_memoized_sweep_matches_unmemoized_sweep(monkeypatch, empty_records):
    pairs = sweep_pairs(3, 3)
    raw = [
        (len(s_rows), _raw_up(s_rows), len(r_rows), _raw_up(r_rows))
        for _, s_rows, r_rows in pairs
    ]
    s_list = r_list = labeled_posets(0, 3)
    # the one chunk of a single worker: the product of all positions
    chunk = [(range(len(s_list)), range(len(r_list)))]
    classes = [(K._RECORDS[s_rows].cls, K._RECORDS[r_rows].cls) for _, s_rows, r_rows in pairs]
    violations = 0
    for theorem, waive in product(TheoremId, (False, True)):
        scan = [
            (idx, *K.sweep_pair(theorem.value, waive, *args, True))
            for (idx, _, _), args in zip(pairs, raw)
        ]
        bad = [(idx, first_bad, code) for idx, _, first_bad, code in scan if first_bad >= 0]
        expected = (sum(count for _, count, _, _ in scan), min(bad, default=None))
        with monkeypatch.context() as m:
            loops = _counting(m, "_orbit_facts")
            got = _sweep_chunk((theorem.value, waive, True, s_list, r_list, chunk))
        assert got == expected, (theorem.name, waive)
        # every member of a class violates or none does, so the memo scans
        # each class once, on its first pair, up to the first violation
        last = len(pairs) if got[1] is None else got[1][0] + 1
        assert loops[0] == len(set(classes[:last])), (theorem.name, waive)
        violations += got[1] is not None
    # waived sweeps violate, so violating classes and the stop are exercised
    assert violations > 0


def test_map_count_equals_the_length_of_the_map_list():
    for allow_top in (False, True):
        total = 0
        for _, s_rows, r_rows in sweep_pairs(3, 4):
            args = (len(s_rows), _raw_up(s_rows), len(r_rows), _raw_up(r_rows), allow_top)
            count = K.count_monotone_maps(*args)
            assert count == len(K.monotone_maps(*args)), (s_rows, r_rows, allow_top)
            total += count
        assert total == (287430 if allow_top else 89698)
    # numpy int64 up masks are counted alike
    s_up, r_up = _raw_up((0b10, 0b00)), _raw_up((0b00, 0b00, 0b011))
    arrays = [np.array(up, dtype=np.int64) for up in (s_up, r_up)]
    want = len(K.monotone_maps(2, s_up, 3, r_up, True))
    assert K.count_monotone_maps(2, arrays[0], 3, arrays[1], True) == want


def test_count_only_sweep_pair_counts_without_evaluating(monkeypatch):
    s_up, r_up = _raw_up((0b10, 0b00)), _raw_up((0b00, 0b00, 0b011))
    count = K.count_monotone_maps(2, s_up, 3, r_up, True)
    tid = TheoremId.T_COVER_MAXCHAIN.value
    memo: dict = {}
    with monkeypatch.context() as m:
        loops = _counting(m, "_first_violation")
        scans = _counting(m, "_orbit_facts")
        for _ in range(2):
            assert K.sweep_pair(tid, True, 2, s_up, 3, r_up, True, count_only=True) == (
                count, -1, 0,
            )
            assert K.sweep_pair(
                tid, True, 2, s_up, 3, r_up, True, memo=memo, count_only=True
            ) == (count, -1, 0)
    assert loops[0] == scans[0] == 0
    # a counted class is not taken for a clean one
    assert K.sweep_pair(tid, True, 2, s_up, 3, r_up, True, memo=memo) == K.sweep_pair(
        tid, True, 2, s_up, 3, r_up, True
    )


# (required flags, goal, d_size): the benchmark's witness searches
_SEARCHES = (
    ("UNITARY,LO,GU,GD,!SGB", "maximal-dchain-not-cover", 3),
    ("LO,GU,GD", "maximal-dchain-not-cover", None),
    ("UNITARY,LO,INC,GU,GD", "maximal-dchain-not-perfect-cover", None),
    ("GU", "lo-fails", None),
    ("LO,INC", "maximal-dchain-not-perfect-cover", None),
    ("!UNITARY,GU", "maximal-dchain-not-cover", None),
)


def test_orbit_search_matches_full_search(monkeypatch, empty_records):
    nonempty = labeled_posets(1, 3)
    pairs = [(idx, s, r) for idx, (s, r) in enumerate(product(nonempty, nonempty))]
    hits = 0
    for required, goal, d_size in _SEARCHES:
        need, forbid = _flag_masks(required.split(","))
        allow_top = "!UNITARY" in required
        params = (allow_top, need, forbid, GOALS[goal], d_size or 0)
        # plain up masks: every map is scanned
        expected = [
            K.search_pair(len(s), _raw_up(s), len(r), _raw_up(r), *params)
            for _, s, r in pairs
        ]
        records = K._RECORDS
        got = [
            K.search_pair(len(s), records[s], len(r), records[r], *params)
            for _, s, r in pairs
        ]
        assert got == expected, required

        # one chunk of every class pair, each scanned on its least labeled
        # member: one scan per class pair up to the first that hits
        chunk = [(s_pos, r_pos) for _, s_pos, r_pos in class_pairs(nonempty, nonempty, allow_top)]
        least = [s_pos[0] * len(nonempty) + r_pos[0] for s_pos, r_pos in chunk]
        first = next(((idx, hit) for idx, (_, hit) in enumerate(expected) if hit >= 0), None)
        task = (*params[1:4], d_size or 0, allow_top, nonempty, nonempty, chunk)
        with monkeypatch.context() as m:
            loops = _counting(m, "_first_violation")
            assert _search_chunk(task) == first, required
        assert loops[0] == (
            len(least) if first is None else sum(idx <= first[0] for idx in least)
        ), required
        hits += first is not None
    # some searches hit and some exhaust the space
    assert 0 < hits < len(_SEARCHES)


def _class_posets(most):
    # strict rows of one poset per isomorphism class, 0..most elements
    return [rows for n in range(most + 1) for rows in _strict_order_masks(n)
            if K._canonical_encoding(rows) == rows]


def test_automorphisms_match_networkx():
    posets = [p.up_masks for p in _all_posets()]
    posets += [p.up_masks for p in enumerate_posets(5, dedup=True)]
    for up in posets:
        graph = nx.DiGraph()
        graph.add_nodes_from(range(len(up)))
        graph.add_edges_from(
            (i, j) for i, m in enumerate(up) for j in range(len(up)) if i != j and m >> j & 1
        )
        matcher = nx.algorithms.isomorphism.DiGraphMatcher(graph, graph)
        want = {tuple(m[i] for i in range(len(up))) for m in matcher.isomorphisms_iter()}
        got = K._automorphisms(up)
        assert len(got) == len(set(got)) and set(got) == want, up
        assert got[0] == tuple(range(len(up))), up


def _orbit(s_up, r_up, cmap):
    """Every image of `cmap` under Aut(s) x Aut(r), TOP (the value ns) fixed."""
    ns = len(s_up)
    out = set()
    for sigma in K._automorphisms(s_up):
        for tau in K._automorphisms(r_up):
            image = [0] * len(cmap)
            for q, v in enumerate(cmap):
                image[tau[q]] = ns if v == ns else sigma[v]
            out.add(tuple(image))
    return out


def test_map_orbit_representatives_partition_the_maps(empty_orbits):
    totals = {False: [0, 0], True: [0, 0]}  # allow_top -> [maps, orbits]
    for s_rows, r_rows, allow_top in product(_class_posets(3), _class_posets(4), (False, True)):
        s_up, r_up = _raw_up(s_rows), _raw_up(r_rows)
        maps = K.monotone_maps(len(s_up), s_up, len(r_up), r_up, allow_top)
        index = {cmap: k for k, cmap in enumerate(maps)}
        count, indices, cmaps, props = K._map_orbits(s_up, r_up, allow_top)
        # built, before any scan, with every representative's word
        assert [K._word(props, i) for i in range(len(cmaps))] == [
            K.property_bits(len(s_up), s_up, len(r_up), r_up, cmap) for cmap in cmaps
        ], (s_rows, r_rows, allow_top)
        assert all(held >> len(cmaps) == 0 for held in props), (s_rows, r_rows, allow_top)
        reps = list(zip(indices, cmaps))
        assert count == len(maps)
        assert [k for k, _ in reps] == sorted({k for k, _ in reps})
        covered = []
        for k, cmap in reps:
            assert maps[k] == cmap
            orbit = _orbit(s_up, r_up, cmap)
            assert min(index[image] for image in orbit) == k, (s_rows, r_rows, cmap)
            covered += orbit
        # disjoint orbits whose union is every map
        assert sorted(covered, key=index.__getitem__) == maps, (s_rows, r_rows)
        totals[allow_top][0] += count
        totals[allow_top][1] += len(reps)
    assert totals == {False: [2445, 1209], True: [8148, 3666]}


def test_representative_scan_matches_full_scan():
    labeled = [(s, r) for _, s, r in sweep_pairs(2, 3)]
    classes = list(product(_class_posets(3), _class_posets(3)))
    classes += product(_class_posets(2), _class_posets(4))
    compared = 0
    for s_rows, r_rows in labeled + classes:
        s, r = K.PosetFacts(_raw_up(s_rows)), K.PosetFacts(_raw_up(r_rows))
        for allow_top in (False, True):
            count, indices, maps, props = K._map_orbits(tuple(s), tuple(r), allow_top)
            for theorem, waive in product(TheoremId, (False, True)):
                full = K.sweep_pair(theorem.value, waive, s.n, s, r.n, r, allow_top)
                args = (theorem.value, waive)
                # no filter: eval_theorem tests the hypotheses itself
                assert (count, *K._first_violation(
                    0, 0, K.eval_theorem, args, s, r, indices, maps, props
                )) == full, (
                    theorem.name, waive, s_rows, r_rows, allow_top,
                )
                compared += 1
    assert compared == (len(labeled) + len(classes)) * 2 * 2 * len(TheoremId)

    nonempty = [rows for rows in _class_posets(4) if rows]
    for required, goal, d_size in _SEARCHES:
        need, forbid = _flag_masks(required.split(","))
        allow_top = "!UNITARY" in required
        goal_args = (GOALS[goal], d_size or 0)
        for s_rows, r_rows in product([rows for rows in nonempty if len(rows) <= 3], nonempty):
            s, r = K.PosetFacts(_raw_up(s_rows)), K.PosetFacts(_raw_up(r_rows))
            # on plain up masks search_pair scans every map
            full = K.search_pair(s.n, tuple(s), r.n, tuple(r), allow_top, need, forbid, *goal_args)
            count, indices, maps, props = K._map_orbits(tuple(s), tuple(r), allow_top)
            hit, _ = K._first_violation(
                need, forbid, K._goal_met, goal_args, s, r, indices, maps, props
            )
            assert full == ((count, -1) if hit < 0 else (hit + 1, hit)), (
                required, s_rows, r_rows,
            )


def _word_filters():
    """Every (need, forbid) a sweep or a search of _SEARCHES filters its maps on."""
    sweeps = {(need, 0) for _, need, *_ in K.THEOREMS.values()} | {(0, 0)}
    searches = {_flag_masks(required.split(",")) for required, _, _ in _SEARCHES}
    return sorted(sweeps | searches)


def test_property_int_filters_match_the_mask_test():
    # one map per word, every word of the seven PROP_* flags
    props = K._bit_ints([bytes(range(128))], 7)
    assert [K._word(props, w) for w in range(128)] == list(range(128))
    filters = _word_filters()
    assert len(filters) > 10
    for need, forbid in filters:
        passing = K._holding(props, need, forbid, (1 << 128) - 1)
        for w in range(128):
            want = w & need == need and w & forbid == 0
            assert passing >> w & 1 == want, (need, forbid, w)


def _plain_first_hits(s, r, allow_top, checks):
    """(maps, words, [(first index, code) or (-1, 0) per check]) of one
    labeled pair, the maps as a list and their property_bits words as bytes.

    Each check is called as check(cmap, bits, allowed) on every map of
    K.monotone_maps, in order, with its word, and its first nonzero answer
    is kept.
    """
    maps = K.monotone_maps(s.n, s, r.n, r, allow_top)
    words = bytearray()
    first = [(-1, 0)] * len(checks)
    for k, cmap in enumerate(maps):
        bits = K.property_bits(s.n, s, r.n, r, cmap)
        words.append(bits)
        allowed = K._allowed_masks(s, cmap)
        for c, check in enumerate(checks):
            if first[c][0] < 0:
                code = check(cmap, bits, allowed)
                if code:
                    first[c] = (k, code)
    return maps, bytes(words), first


def _always(*args):
    return 1


def test_filtered_sweeps_match_a_plain_theorem_loop():
    # every labeled pair at (3, 3), which holds those at (2, 3); the plain
    # loop tests the hypotheses through eval_theorem, not through a filter
    calls = [(t.value, waive) for t in TheoremId for waive in (False, True)]
    s_list = r_list = labeled_posets(0, 3)
    # no theorem fails unwaived there, so each hypothesis mask is also probed
    # with a check that always fails: the first map meeting the hypotheses
    needs = sorted({need for _, need, *_ in K.THEOREMS.values() if need})
    violations = 0
    for allow_top in (False, True):
        memos = {call: {} for call in calls}
        for s_rows, r_rows in product(s_list, r_list):
            s, r = K._RECORDS[s_rows], K._RECORDS[r_rows]
            checks = [
                lambda cmap, bits, allowed, tid=tid, waive=waive: K.eval_theorem(
                    tid, waive, s, r, cmap, bits, allowed
                )
                for tid, waive in calls
            ]
            probes = [
                lambda cmap, bits, allowed, need=need: bits & need == need for need in needs
            ]
            # one pass computes each map's word once, for the checks and the probes
            maps, words, first = _plain_first_hits(s, r, allow_top, checks + probes)
            for (tid, waive), want in zip(calls, first):
                want = (len(maps), *want)
                plain_up = (s.n, _raw_up(s_rows), r.n, _raw_up(r_rows), allow_top)
                assert K.sweep_pair(tid, waive, *plain_up) == want, (tid, waive, s_rows, r_rows)
                got = K.sweep_pair(
                    tid, waive, s.n, s, r.n, r, allow_top, memo=memos[tid, waive]
                )
                assert got == want, (tid, waive, s_rows, r_rows, allow_top)
                violations += want[1] >= 0
            # the hypotheses are invariant under relabeling, so the first
            # representative meeting them is the first map that does
            scans = (
                (range(len(maps)), maps, K._bit_ints([words], 7)),
                K._map_orbits(tuple(s), tuple(r), allow_top)[1:],
            )
            for need, (k, _) in zip(needs, first[len(calls):]):
                want = (k, 1) if k >= 0 else (-1, 0)
                for scan in scans:
                    got = K._first_violation(need, 0, _always, (), s, r, *scan)
                    assert got == want, (need, s_rows, r_rows, allow_top)
    assert violations > 0


def test_filtered_searches_match_a_plain_goal_loop():
    nonempty = labeled_posets(1, 3)
    hits = 0
    for required, goal, d_size in _SEARCHES:
        need, forbid = _flag_masks(required.split(","))
        allow_top = "!UNITARY" in required
        goal_args = (GOALS[goal], d_size or 0)
        for s_rows, r_rows in product(nonempty, nonempty):
            s, r = K._RECORDS[s_rows], K._RECORDS[r_rows]

            def hit(cmap, bits, allowed):
                return (
                    bits & need == need
                    and not bits & forbid
                    and K._goal_met(*goal_args, s, r, cmap, bits, allowed)
                )

            maps, _, ((k, _),) = _plain_first_hits(s, r, allow_top, [hit])
            want = (len(maps), -1) if k < 0 else (k + 1, k)
            args = (allow_top, need, forbid, *goal_args)
            plain_up = (s.n, _raw_up(s_rows), r.n, _raw_up(r_rows))
            assert K.search_pair(*plain_up, *args) == want, (required, s_rows, r_rows)
            # on the records only the orbit representatives are scanned
            got = K.search_pair(s.n, s, r.n, r, *args)
            assert got == want, (required, s_rows, r_rows)
            hits += k >= 0
    assert hits > 0


def test_scans_do_not_call_eval_theorem(monkeypatch, empty_records):
    def refuse(*args):
        raise AssertionError("a scan called eval_theorem")

    monkeypatch.setattr(K, "eval_theorem", refuse)
    s_list, r_list = labeled_posets(0, 2), labeled_posets(0, 3)
    chunk = [(range(len(s_list)), range(len(r_list)))]
    for theorem, waive in product(TheoremId, (False, True)):
        _sweep_chunk((theorem.value, waive, True, s_list, r_list, chunk))
    # a search over the nonempty posets, one scan per class pair
    s_list, r_list = labeled_posets(1, 2), labeled_posets(1, 3)
    for required, goal, d_size in _SEARCHES:
        need, forbid = _flag_masks(required.split(","))
        allow_top = "!UNITARY" in required
        chunk = [(s_pos, r_pos) for _, s_pos, r_pos in class_pairs(s_list, r_list, allow_top)]
        _search_chunk((need, forbid, GOALS[goal], d_size or 0, allow_top, s_list, r_list, chunk))


def _scanned_canonical_encoding(rows):
    """Least relabeling of strict up masks, one permutation at a time: the
    kernel's scan before canonical forms were filled a class at a time."""
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


def test_canonical_encoding_matches_permutation_scan(monkeypatch):
    # from an empty table, so each class is expanded from its first poset
    monkeypatch.setattr(K, "_CANONICAL", {})
    for n in range(6):
        for rows in _strict_order_masks(n):
            assert K._canonical_encoding(rows) == _scanned_canonical_encoding(rows), rows
    assert [sum(1 for _ in enumerate_posets(n, dedup=True)) for n in range(6)] == [
        1, 1, 2, 5, 16, 63,
    ]


def _class_pair_members(max_s, max_r):
    """(s record, r record, allow_top) of the least and the greatest labeled
    member of every class pair within the bounds, TOP allowed and not."""
    s_list, r_list = labeled_posets(0, max_s), labeled_posets(0, max_r)
    records = K._RECORDS
    members = []
    for allow_top in (False, True):
        for _, s_pos, r_pos in class_pairs(s_list, r_list, allow_top):
            for s_at, r_at in sorted({(s_pos[0], r_pos[0]), (s_pos[-1], r_pos[-1])}):
                members.append((records[s_list[s_at]], records[r_list[r_at]], allow_top))
    return members


def test_fails_formulas_match_the_per_map_conclusions(empty_orbits):
    # the sweep route (one formula over the fact ints of all representatives)
    # against the per-map route (each theorem's conclusion, one map at a time)
    members = _class_pair_members(3, 4) + _class_pair_members(2, 5)
    failing = dict.fromkeys(K.THEOREMS, 0)
    checks = 0
    for s, r, allow_top in members:
        key = (tuple(s), tuple(r), allow_top)
        _, _, maps, props = K._map_orbits(*key)
        every = (1 << len(maps)) - 1
        facts = K._orbit_facts(key, s, r, maps, every)
        words = [K._word(props, i) for i in range(len(maps))]
        allowed = [K._allowed_masks(s, cmap) for cmap in maps]
        for tid, (_, _, conclusion, fails) in K.THEOREMS.items():
            got = fails(props, facts) & every
            for i, cmap in enumerate(maps):
                code = conclusion(s, r, cmap, words[i], allowed[i])
                assert got >> i & 1 == (code != 0), (tid, s, r, allow_top, cmap, code)
            failing[tid] += got.bit_count()
            checks += len(maps)
    assert checks == 336464
    # the theorems with hypotheses fail on maps that miss them, the
    # biconditionals nowhere; SCLO and GU agree on every map here, unitary
    # or not
    assert {tid for tid, n in failing.items() if n} == {
        tid for tid, (hypotheses, *_) in K.THEOREMS.items() if hypotheses
    } - {"X_KO_SCLO_EQ_GU"}


def test_memo_scans_match_full_scans():
    # a fresh memo per call, so every pair is scanned, on the orbit route;
    # at (3, 3) and (2, 4), since the full scans of every map take seconds
    # more at (3, 4) and (2, 5)
    for s, r, allow_top in _class_pair_members(3, 3) + _class_pair_members(2, 4):
        for tid, waive in product(K.THEOREMS, (False, True)):
            want = K.sweep_pair(tid, waive, s.n, s, r.n, r, allow_top)
            got = K.sweep_pair(tid, waive, s.n, s, r.n, r, allow_top, memo={})
            assert got == want, (tid, waive, s, r, allow_top)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_conclusion_that_disagrees_with_its_formula_is_an_error(monkeypatch, jobs):
    # waived, the theorem fails at pair 1, map 0; a conclusion that holds
    # there disagrees with the formula, and no counterexample is reported
    tid = TheoremId.T_COVER_MAXCHAIN
    names, need, _, fails = K.THEOREMS[tid.value]
    monkeypatch.setitem(K.THEOREMS, tid.value, (names, need, lambda *args: 0, fails))
    with pytest.raises(AssertionError, match="fails formula and the conclusion disagree"):
        exhaustive_verify(tid, 1, 2, waive_hypotheses=True, jobs=jobs)
