"""Tests for the theorem verifiers, exhaustive sweeps, and witness search.

Sweep counts are frozen from the canonical enumeration (labeled posets by
pair-state order, maps by ascending assignment vectors), so any change to
the instance stream shows up as a count mismatch before anything subtler
goes wrong.
"""

import dataclasses
import hashlib
import json
import multiprocessing
import os
import pathlib
import pickle
import random
import signal
import sys
import time
from itertools import combinations, islice, product

import pytest

from chaincover import _kernels as K
from chaincover import search as search_module
from chaincover import theorems as theorems_module
from property_oracles import (
    LOOP_THEOREMS,
    oracle_shrink_candidates,
    prop_gb,
    prop_gd,
    prop_gu,
    prop_inc,
    prop_lo,
    prop_sgb,
    scalar_property_bits,
)
from chaincover.document import (
    build_check_report,
    build_search_report,
    build_verify_report,
    parse_instance,
    serialize_report,
)
from chaincover.poset import (
    BoundExceeded,
    _strict_order_masks,
    enumerate_chains,
    enumerate_posets,
    height,
    make_poset,
    maximal_chains,
    random_poset,
)
from chaincover.rings import Zn, make_hom, spec, to_spectral_map
from chaincover.search import (
    GOALS,
    WitnessSearchSpec,
    _flag_masks,
    _shrink_candidates,
    flags_hold,
    goal_holds,
    search_witness,
    shrink,
)
from chaincover.specmap import (
    PROPERTY_BITS,
    PROPERTY_NAMES,
    TOP,
    NotMonotone,
    SpectralMap,
    check_layer,
    check_property,
    enumerate_monotone_maps,
    make_spectral_map,
    maximal_D_chains,
    properties_summary,
)
from chaincover.theorems import (
    CORE_THEOREMS,
    HYPOTHESES,
    THEOREM_STATEMENTS,
    TheoremId,
    _map_estimate,
    _raw_up,
    _sweep_chunk,
    class_pairs,
    clause_text,
    deal_class_pairs,
    estimate_sweep_cost,
    exhaustive_verify,
    instance_from_raw,
    labeled_posets,
    pool_plan,
    run_chunks,
    sweep_pairs,
    unmet_hypotheses,
    verify,
)

# instance counts for (max_s, max_r) sweeps with TOP allowed, frozen from
# the canonical enumeration
SWEEP_COUNTS = {(1, 2): 18, (2, 2): 91, (2, 3): 985, (3, 2): 828, (3, 3): 11614}


def identity_instance(labels, pairs):
    p = make_poset(labels, pairs)
    return make_spectral_map(p, p, list(range(p.n)))


def diamond_identity():
    return identity_instance(
        ["bot", "a", "b", "top"],
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
    )


def six_element_witness():
    """Unitary instance with LO, GU, GD but not SGB whose maximal D-chain
    over the full 3-chain misses the middle layer.

    The chain {x1, x3} cannot be extended: the only elements over p2 are
    m2 and u2, and neither is comparable to both x1 and x3.
    """
    s = make_poset(["p1", "p2", "p3"], [("p1", "p2"), ("p2", "p3")])
    r = make_poset(
        ["l1", "x1", "m2", "u2", "x3", "u3"],
        [("l1", "m2"), ("m2", "x3"), ("x1", "x3"), ("x1", "u2"), ("u2", "u3")],
    )
    to_s = {"l1": "p1", "x1": "p1", "m2": "p2", "u2": "p2", "x3": "p3", "u3": "p3"}
    assignment = [s.index(to_s[lab]) for lab in r.labels]
    return make_spectral_map(s, r, assignment)


class TestTables:
    def test_every_theorem_has_hypotheses_statement_and_clauses(self):
        for t in TheoremId:
            assert t in HYPOTHESES
            assert t in THEOREM_STATEMENTS
            assert clause_text(t, 1)

    def test_hypotheses_are_the_premises_of_the_statement(self):
        # a statement names its hypotheses before its colon; the
        # biconditionals have no colon and no hypotheses
        for t in TheoremId:
            premise, colon, _ = THEOREM_STATEMENTS[t].partition(": ")
            assert HYPOTHESES[t] == (tuple(premise.split(" + ")) if colon else ()), t

    def test_core_excludes_exploratory(self):
        assert TheoremId.X_KO_SCLO_EQ_GU not in CORE_THEOREMS
        assert len(CORE_THEOREMS) == 15

    def test_equivalence_clause_decodes_bits(self):
        # bits 0b0001 + 1: only the layer condition holds
        text = clause_text(TheoremId.C_EQUIVALENT, 2)
        assert "layers 1-3 hold" in text
        assert "fail" in text
        text = clause_text(TheoremId.C_EQUIVALENT, 0b1110 + 1)
        assert text.startswith("equivalent conditions disagree: ")
        assert "layers 1-3 fail" in text


class TestVerify:
    def test_identity_holds_everything(self):
        m = diamond_identity()
        for t in TheoremId:
            v = verify(m, t)
            assert v.holds and v.counterexample is None and v.note is None
            assert v.instances_checked == 1

    def test_unmet_hypothesis_is_vacuous(self):
        # one point upstairs, a 2-antichain downstairs, second prime to TOP
        s = make_poset(["p"], [])
        r = make_poset(["q0", "q1"], [])
        m = make_spectral_map(s, r, [0, TOP])
        assert unmet_hypotheses(m, TheoremId.T_COVER_MAXCHAIN) == ["unitary"]
        v = verify(m, TheoremId.T_COVER_MAXCHAIN)
        assert v.holds
        assert v.note == "hypothesis unmet: unitary"

    def test_waiving_exposes_the_conclusion(self):
        s = make_poset(["p"], [])
        r = make_poset(["q0", "q1"], [])
        m = make_spectral_map(s, r, [0, TOP])
        v = verify(m, TheoremId.T_COVER_MAXCHAIN, waive_hypotheses=True)
        assert not v.holds
        assert v.note == "hypotheses waived: unitary"
        assert v.counterexample.waived
        assert v.counterexample.detail["code"] == 1
        assert "TOP" in v.counterexample.detail["clause"]

    def test_biconditional_has_no_note(self):
        s = make_poset(["p"], [])
        r = make_poset(["q0", "q1"], [])
        m = make_spectral_map(s, r, [0, TOP])
        v = verify(m, TheoremId.P_LAYERS)
        assert v.holds and v.note is None

    def test_exploratory_biconditional_on_witness(self):
        # GU and SCLO rise and fall together even on the SGB-free witness
        m = six_element_witness()
        assert verify(m, TheoremId.X_KO_SCLO_EQ_GU).holds


class TestExhaustiveVerify:
    def test_all_core_theorems_hold_small(self):
        for t in CORE_THEOREMS:
            v = exhaustive_verify(t, 2, 2)
            assert v.holds, (t, v.note)
            assert v.instances_checked == SWEEP_COUNTS[(2, 2)]

    def test_equivalence_sweep_counts(self):
        for bounds, expected in SWEEP_COUNTS.items():
            v = exhaustive_verify(TheoremId.C_EQUIVALENT, *bounds)
            assert v.holds
            assert v.instances_checked == expected

    def test_exploratory_holds_small(self):
        for waive in (False, True):
            v = exhaustive_verify(
                TheoremId.X_KO_SCLO_EQ_GU, 3, 3, waive_hypotheses=waive
            )
            assert v.holds
            assert v.instances_checked == SWEEP_COUNTS[(3, 3)]

    def test_waived_sweep_finds_first_violation(self):
        v = exhaustive_verify(TheoremId.T_COVER_MAXCHAIN, 1, 2, waive_hypotheses=True)
        assert not v.holds
        assert v.instances_checked == SWEEP_COUNTS[(1, 2)]
        assert v.note == "first violation at pair 1, map 0"
        cx = v.counterexample
        assert cx.waived
        assert cx.detail["clause"] == "a maximal chain of r contracts into TOP"
        # the earliest instance in enumeration order: empty s, one point r
        assert cx.smap.s_poset.n == 0
        assert cx.smap.r_poset.labels == ("e0",)
        assert cx.smap.assignment == (TOP,)

    def test_worker_count_does_not_change_the_verdict(self):
        for jobs in (2, 3):
            v1 = exhaustive_verify(
                TheoremId.T_COVER_MAXCHAIN, 1, 2, waive_hypotheses=True
            )
            v2 = exhaustive_verify(
                TheoremId.T_COVER_MAXCHAIN, 1, 2, waive_hypotheses=True, jobs=jobs
            )
            assert v1.holds == v2.holds
            assert v1.instances_checked == v2.instances_checked
            assert v1.note == v2.note
            assert v1.counterexample.detail == v2.counterexample.detail
            v3 = exhaustive_verify(TheoremId.C_EQUIVALENT, 2, 3, jobs=jobs)
            assert v3.holds and v3.instances_checked == SWEEP_COUNTS[(2, 3)]

    def test_no_top_sweeps(self):
        v = exhaustive_verify(TheoremId.C_EQUIVALENT, 2, 2, allow_top=False)
        assert v.holds
        assert v.instances_checked < SWEEP_COUNTS[(2, 2)]

    def test_empty_bounds_are_vacuous(self):
        v = exhaustive_verify(TheoremId.P_LAYERS, 0, 0)
        assert v.holds and v.instances_checked == 1

    def test_bound_guards(self):
        with pytest.raises(BoundExceeded):
            exhaustive_verify(TheoremId.P_LAYERS, 6, 2)
        with pytest.raises(BoundExceeded):
            exhaustive_verify(TheoremId.P_LAYERS, 2, 6)
        with pytest.raises(ValueError):
            exhaustive_verify(TheoremId.P_LAYERS, 2, 2, jobs=0)

    def test_estimate_is_an_upper_bound(self):
        for bounds, actual in SWEEP_COUNTS.items():
            est = estimate_sweep_cost(*bounds, allow_top=True)
            assert est["map_upper_bound"] >= actual
            assert est["poset_pairs"] >= 1

    def test_estimate_matches_the_per_pair_formula(self):
        # every assignment of each labeled pair, one pair at a time
        for bounds in [*product(range(5), range(5)), (3, 5)]:
            pairs = sweep_pairs(*bounds)
            for allow_top in (False, True):
                extra = 1 if allow_top else 0
                upper = sum((len(s) + extra) ** len(r) if r else 1 for _, s, r in pairs)
                assert estimate_sweep_cost(*bounds, allow_top) == {
                    "poset_pairs": len(pairs), "map_upper_bound": upper,
                }, (bounds, allow_top)


def fresh_kernel_args(m):
    """eval_theorem's instance arguments, built from the posets directly;
    the property bits come from the scalar deciders."""
    s, r = m.s_poset, m.r_poset
    cmap = tuple(s.n if v is TOP else v for v in m.assignment)
    s_facts, r_facts = K.PosetFacts(s.up_masks), K.PosetFacts(r.up_masks)
    bits = scalar_property_bits(s.n, s.up_masks, r.n, r.up_masks, cmap)
    return s_facts, r_facts, cmap, bits, K._allowed_masks(s_facts, cmap)


def fresh_property(m, name):
    """One of the nine properties from a direct kernel or scalar decider call."""
    s, r, cmap, _, allowed = fresh_kernel_args(m)
    if name == "LO":
        return prop_lo(s.n, r.n, cmap)
    if name == "SCLO":
        return K.prop_sclo(s, r, cmap, allowed)
    if name == "GGD":
        return K.prop_ggd(s, r, cmap, allowed)
    if name == "chain_morphism":
        return K.prop_chain_morphism(s, r, cmap, allowed)
    prop = {
        "INC": prop_inc, "GU": prop_gu, "GD": prop_gd,
        "SGB": prop_sgb, "GB": prop_gb,
    }[name]
    return prop(s.n, m.s_poset.up_masks, r.n, m.r_poset.up_masks, cmap)


def outcome(v):
    """The clause code and note of a verdict."""
    code = v.counterexample.detail["code"] if v.counterexample else 0
    return code, v.note


class TestFactTable:
    """A SpectralMap's facts, shared by every check, equal fresh computation."""

    def instances(self):
        for ns in range(3):
            for s in enumerate_posets(ns):
                for nr in range(4):
                    for r in enumerate_posets(nr):
                        yield from enumerate_monotone_maps(s, r, allow_top=True)

    def test_shared_verdicts_match_fresh_maps(self):
        # verify reads its clause code from K.eval_theorem; the member loops
        # of LOOP_THEOREMS, gated by the scalar deciders' bits, are a
        # second route to it
        calls = [(t, waive) for t in TheoremId for waive in (False, True)]
        checked = violations = 0
        for m in self.instances():
            # the loops read records of their own
            args = fresh_kernel_args(m)
            forward = SpectralMap(m.s_poset, m.r_poset, m.assignment)
            backward = SpectralMap(m.s_poset, m.r_poset, m.assignment)
            got = {c: outcome(verify(forward, *c)) for c in calls}
            got_back = {c: outcome(verify(backward, *c)) for c in reversed(calls)}
            holds = {name: fresh_property(m, name) for name in ("LO", "INC", "GU", "GD", "SGB")}
            holds["unitary"] = TOP not in m.assignment
            for t, waive in calls:
                fresh = SpectralMap(m.s_poset, m.r_poset, m.assignment)
                want = outcome(verify(fresh, t, waive))
                assert got[(t, waive)] == got_back[(t, waive)] == want, (t, waive, m.describe())
                code = K.eval_theorem(t.value, waive, *fresh_kernel_args(m))
                hypotheses, loop = LOOP_THEOREMS[t.value]
                met = all(args[3] & K.HYPOTHESIS_BITS[h] for h in hypotheses)
                assert want[0] == (loop(*args) if waive or met else 0), (t, waive, m.describe())
                unmet = ", ".join(h for h in HYPOTHESES[t] if not holds[h])
                note = unmet and ("hypotheses waived: " if waive else "hypothesis unmet: ") + unmet
                assert want == (code, note or None), (t, waive, m.describe())
                violations += code != 0
            checked += 1
        assert checked == SWEEP_COUNTS[(2, 3)]
        assert violations > 0

    def test_maps_and_verdicts_pickle_by_value(self):
        # once verify has read a map's word, its records hold filled tables;
        # a map pickles as its posets and assignment, and reads this
        # process's records again; ring maps and spectra are built afresh,
        # since a test that empties the record table leaves cached ones
        # on records the table no longer holds
        to_spectral_map.cache_clear()
        spec.cache_clear()
        assert SAMPLE_PATHS
        for path in SAMPLE_PATHS:
            m = parse_instance(path.read_text()).smap
            verdicts = [verify(m, t, waive_hypotheses=True) for t in TheoremId]
            again, *replayed = pickle.loads(pickle.dumps([m, *verdicts]))
            assert again == m and again is not m, path
            assert again.s_poset.facts is m.s_poset.facts, path
            assert again.r_poset.facts is m.r_poset.facts, path
            assert [(v.holds, v.note) for v in replayed] == [(v.holds, v.note) for v in verdicts]
            assert [outcome(verify(again, t, True)) for t in TheoremId] == [
                outcome(v) for v in verdicts
            ], path
            for v in replayed:
                if v.counterexample is not None:
                    assert v.counterexample.smap == m, path

    def test_shared_properties_match_direct_kernel_calls(self):
        for m in self.instances():
            shared = SpectralMap(m.s_poset, m.r_poset, m.assignment)
            summary = properties_summary(shared)
            for name in PROPERTY_NAMES:
                want = bool(fresh_property(m, name))
                assert check_property(shared, name) == summary[name] == want, (
                    name, m.describe()
                )

    def test_facts_are_computed_once_per_poset(self, monkeypatch, empty_records):
        # from empty record and map tables, and no spectrum poset that
        # holds an earlier record, so every record and map of the test is
        # built here
        to_spectral_map.cache_clear()
        spec.cache_clear()
        counts = {"_maximal_chain_masks": 0, "property_bits": 0}
        for name in counts:
            original = getattr(K, name)

            def counting(*args, name=name, original=original):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(K, name, counting)
        m = six_element_witness()
        other = SpectralMap(m.s_poset, m.r_poset, m.assignment)
        # two maps over the same Poset objects share both posets' records
        assert other.facts.s is m.facts.s is m.s_poset.facts
        assert other.facts.r is m.facts.r is m.r_poset.facts
        for smap in (m, other):
            for t in TheoremId:
                verify(smap, t)
            properties_summary(smap)
        assert other.facts.allowed is m.facts.allowed
        height(m.s_poset)
        maximal_chains(m.r_poset)
        # the maximal chains once per order, and the bits once per map value:
        # equal maps that are other objects share one word
        assert counts == {"_maximal_chain_masks": 2, "property_bits": 1}
        # equal posets that are other objects share the records of their
        # orders, and so their maximal chains and the words of equal maps
        again = six_element_witness()
        assert again.s_poset is not m.s_poset and again.r_poset is not m.r_poset
        assert again.facts.s is m.facts.s and again.facts.r is m.facts.r
        for t in TheoremId:
            verify(again, t)
        height(again.s_poset)
        maximal_chains(again.r_poset)
        assert counts == {"_maximal_chain_masks": 2, "property_bits": 1}
        # equal homs share one map, whose bits are computed once
        ring_map = to_spectral_map(make_hom(30, Zn(6), 1))
        for t in TheoremId:
            verify(to_spectral_map(make_hom(30, Zn(6), 1)), t)
        assert to_spectral_map(make_hom(30, Zn(6), 1)) is ring_map
        assert counts["property_bits"] == 2

    def test_maps_with_other_values_over_the_same_records_get_their_own_words(self):
        m = six_element_witness()
        r = m.r_poset
        others = [
            SpectralMap(m.s_poset, r, (TOP,) * r.n),
            SpectralMap(m.s_poset, r, (0,) * r.n),
            make_spectral_map(m.s_poset, r, [0, 0, 1, 1, 2, TOP]),
        ]
        words = [m.facts.bits]
        for other in others:
            f = other.facts
            assert f.s is m.facts.s and f.r is m.facts.r and f.cmap != m.facts.cmap
            want = scalar_property_bits(f.s.n, f.s, f.r.n, f.r, f.cmap)
            assert f.bits == want == f.s.words[f.r, f.cmap], other.describe()
            words.append(f.bits)
        # four maps, four different words: no map reads another's
        assert len(set(words)) == 4


SAMPLE_PATHS = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "sample_instances").glob("*.json")
)

#: the record fields that are one value each; `dchains`, `links`, `dflags`,
#: `allowed` and `images` are tables filled on lookup
RECORD_FIELDS = (
    "down", "comp", "strict_order", "chains", "chain_steps", "ends", "max_chains", "iso",
)


def assert_tables_match_fresh(record, fresh, where):
    """Each entry of the record's filled tables equals the fresh record's."""
    filled = vars(record)
    for table in ("dchains", "links", "dflags", "allowed", "words"):
        for key, entry in filled.get(table, {}).items():
            assert entry == getattr(fresh, table)[key], (where, table, key)
    for cmap, images in filled.get("images", {}).items():
        want = fresh.images[cmap]
        if isinstance(images, bytes):
            assert images == want, (where, cmap)
        else:
            assert {c: want[c] for c in images} == images, (where, cmap)


class TestSharedRecords:
    """Every map over a Poset reads that poset's one record, `Poset.facts`.

    After checks, theorem verdicts and shrinks have filled the shared
    records, each filled field equals the one of a fresh record, and every
    verdict equals one computed from fresh records built for it alone.
    """

    @staticmethod
    def profile(m):
        return (
            properties_summary(m),
            goal_holds(m, "maximal-dchain-not-cover"),
            goal_holds(m, "maximal-dchain-not-perfect-cover"),
        )

    def shrink_all(self, m, seen):
        """Shrink m while its properties and chain goals stay the same."""
        want = self.profile(m)

        def same(candidate):
            seen.append(candidate)
            return self.profile(candidate) == want

        seen.append(shrink(m, same))

    @staticmethod
    def assert_records_match_fresh(maps):
        posets = {id(p): p for m in maps for p in (m.s_poset, m.r_poset)}
        multi = linked = 0
        for p in posets.values():
            record, fresh = vars(p.facts), K.PosetFacts(p.up_masks)
            assert p.facts == fresh, p
            for field in RECORD_FIELDS:
                if field in record:
                    # record and fresh build every field by the same code,
                    # so their types agree; tuple() only keeps the test
                    # indifferent to a field being a list or a tuple, and
                    # dict fields (ends) are compared whole, as tuple()
                    # would keep only their keys
                    got, want = record[field], getattr(fresh, field)
                    if not isinstance(want, dict):
                        got, want = tuple(got), tuple(want)
                    assert got == want, (p, field)
            assert_tables_match_fresh(p.facts, fresh, p)
            multi += sum(len(chains) > 1 for chains in record.get("dchains", {}).values())
            linked += len(record.get("links", {}))
        # an entry whose order a reader could disturb was compared, and a
        # chain's links, which only P_MINI_SGB reads
        assert multi > 0 and linked > 0

    @staticmethod
    def assert_verdicts_match_fresh(maps):
        for m in maps:
            s, r = m.s_poset, m.r_poset
            fs, fr = K.PosetFacts(s.up_masks), K.PosetFacts(r.up_masks)
            cmap = tuple(s.n if v is TOP else v for v in m.assignment)
            bits = K.property_bits(s.n, fs, r.n, fr, cmap)
            allowed = K._allowed_masks(fs, cmap)
            where = m.describe()
            for t, waive in product(TheoremId, (False, True)):
                code = K.eval_theorem(t.value, waive, fs, fr, cmap, bits, allowed)
                assert outcome(verify(m, t, waive))[0] == code, (t, waive, where)
            assert m.facts.bits == bits, where
            for name in ("SCLO", "GGD", "chain_morphism"):
                prop = getattr(K, f"prop_{name.lower()}")
                assert check_property(m, name) == prop(fs, fr, cmap, allowed), (name, where)
            for n in range(1, height(s) + 2):
                want = K.layers_held(n, n, fs, fr, allowed)[n]
                assert check_layer(m, n) == want, (n, where)
            for d in enumerate_chains(s, include_empty=False):
                got = [c.mask for c in maximal_D_chains(m, d)]
                # lexicographic member order
                want = sorted(
                    fr.dchains[allowed[d.mask]],
                    key=lambda c: [i for i in range(r.n) if c >> i & 1],
                )
                assert got == want, (d.members, where)

    def test_sample_instances(self):
        maps = []
        for path in SAMPLE_PATHS:
            doc = parse_instance(path.read_text())
            m = doc.smap
            build_check_report(doc)
            build_verify_report(doc, [verify(m, t) for t in TheoremId])
            # a shrink candidate that keeps s or r keeps that poset's record
            for build in _shrink_candidates(m):
                try:
                    candidate = build()
                except NotMonotone:
                    continue
                assert (candidate.facts.s is m.facts.s) != (candidate.facts.r is m.facts.r)
                maps.append(candidate)
            maps.append(m)
            self.shrink_all(m, maps)
        self.assert_records_match_fresh(maps)
        self.assert_verdicts_match_fresh(maps)
        self.assert_records_match_fresh(maps)

    def test_random_maps_over_shared_posets(self):
        rng = random.Random(18)
        posets = [random_poset(n, seed) for n in range(1, 5) for seed in range(3)]
        maps = []
        for _ in range(40):
            s, r = rng.choice(posets), rng.choice(posets)
            every = list(enumerate_monotone_maps(s, r, allow_top=True))
            maps += rng.sample(every, min(4, len(every)))
        rng.shuffle(maps)
        for m in maps:
            for t in rng.sample(list(TheoremId), 6):
                verify(m, t, rng.random() < 0.5)
            for d in enumerate_chains(m.s_poset, include_empty=False):
                maximal_D_chains(m, d)
        for m in maps[:10]:
            self.shrink_all(m, maps)
        self.assert_records_match_fresh(maps)
        self.assert_verdicts_match_fresh(maps)
        self.assert_records_match_fresh(maps)


class TestValueRecords:
    """Every poset with one order reads one record, `K._RECORDS[strict rows]`,
    however the poset was built."""

    def test_equal_orders_share_one_record(self):
        twins = []  # pairs of equal posets, each built on its own
        for path in SAMPLE_PATHS:
            text = path.read_text()
            first, second = parse_instance(text).smap, parse_instance(text).smap
            if first is second:
                continue  # a ring document: one map per hom, over one spectrum
            # a parsed block's Poset is kept per value, so its twin is made
            blocks = json.loads(text)
            for tag in ("s", "r"):
                p = getattr(first, f"{tag}_poset")
                assert getattr(second, f"{tag}_poset") is p
                twins.append((p, make_poset(blocks[tag]["labels"], blocks[tag]["pairs"])))
        assert twins
        labels = ["a", "b", "c", "d", "e"]
        pairs = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("a", "e"), ("b", "d")]
        built = []
        for seed in range(3):
            shuffled = pairs[:]
            random.Random(seed).shuffle(shuffled)
            built.append(make_poset(labels, shuffled))
        twins += list(zip(built, built[1:]))
        twins.append((spec.__wrapped__(Zn(6)), spec.__wrapped__(Zn(6))))
        for p, q in twins:
            assert p == q and p is not q, p
            rows = tuple(m & ~(1 << i) for i, m in enumerate(p.up_masks))
            record = K._RECORDS[rows]
            assert p.facts is q.facts is record and record == p.up_masks, p
            assert p.down_masks is record.down and p.comp_masks is record.comp


def _pool_reports(jobs):
    """Report bytes of two waived sweeps with violations and of a search with a hit."""
    sweeps = [
        exhaustive_verify(TheoremId.T_COVER_MAXCHAIN, 1, 2, waive_hypotheses=True, jobs=jobs),
        exhaustive_verify(TheoremId.C_GGD, 2, 3, waive_hypotheses=True, jobs=jobs),
    ]
    spec = WitnessSearchSpec(
        required=frozenset({"GU", "GD"}), goal="lo-fails", max_s=3, max_r=3
    )
    return (
        serialize_report(build_verify_report(None, sweeps, {"max_s": 2, "max_r": 3})),
        serialize_report(build_search_report(spec, search_witness(spec, jobs=jobs))),
    )


class TestPoolPlan:
    def test_workers_are_capped_at_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "linux")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        items = list(range(20))
        assert pool_plan(items, 100) == [items[0::2], items[1::2]]
        assert pool_plan(items, 1) == [items]
        assert len(pool_plan([7], 4)) == 1
        # without an affinity call the CPU count is the cap
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert len(pool_plan(items, 8)) == 3

    def test_spawn_and_excess_jobs_give_the_same_report_bytes(self, monkeypatch):
        methods = []
        get_context = theorems_module.mp.get_context

        def recording(method):
            methods.append(method)
            return get_context(method)

        # search.mp is the same object, so searches are recorded too
        monkeypatch.setattr(theorems_module.mp, "get_context", recording)
        # two usable CPUs, whatever the host has
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        # the search's few maps stay below the pool gate; forced past it,
        # the search forks or spawns like the two sweeps
        monkeypatch.setattr(search_module, "MAPS_PER_FORK", 0)
        single = _pool_reports(1)
        assert "first violation" in single[0] and '"found": true' in single[1]
        assert methods == []
        assert _pool_reports(8) == single
        assert methods == ["fork"] * 3
        monkeypatch.setattr(sys, "platform", "darwin")
        assert _pool_reports(2) == single
        assert methods == ["fork"] * 3 + ["spawn"] * 3


def _assert_fresh_entries(entries: dict):
    """Each K._ORBITS entry in `entries` equals a build from an empty table:
    count, indices, maps and property ints, and the word each property int
    gives a representative equals its property_bits."""
    saved = K._ORBITS
    K._ORBITS = {}
    try:
        for key, (count, indices, maps, props) in entries.items():
            fresh = K._map_orbits(*key)
            assert (count, list(indices), maps, props) == (
                fresh[0], list(fresh[1]), fresh[2], fresh[3],
            ), key
            s_up, r_up, _ = key
            assert [K._word(props, i) for i in range(len(maps))] == [
                K.property_bits(len(s_up), s_up, len(r_up), r_up, cmap) for cmap in maps
            ], key
    finally:
        K._ORBITS = saved


def _assert_fresh_facts(facts: dict):
    """Each K._FACTS entry in `facts` equals the facts of its known
    representatives computed from an empty table."""
    saved = K._FACTS
    K._FACTS = {}
    try:
        for key, (known, ints) in facts.items():
            s, r = K.PosetFacts(key[0]), K.PosetFacts(key[1])
            assert K._orbit_facts(key, s, r, K._ORBITS[key][2], known) == ints, key
            assert K._FACTS[key][0] == known, key
    finally:
        K._FACTS = saved


class TestOrbitHandback:
    """Pool children hand the K._ORBITS entries they build back to the caller."""

    def test_forked_children_hand_back_their_entries(self, monkeypatch, empty_orbits):
        monkeypatch.setattr(sys, "platform", "linux")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        # C_EQUIVALENT holds at (3, 3), so each chunk builds the entry of
        # the first pair of each of its classes
        theorem = TheoremId.C_EQUIVALENT
        s_list = r_list = labeled_posets(0, 3)
        chunks = deal_class_pairs(class_pairs(s_list, r_list, True), 2)
        assert len(chunks) == 2
        built = []  # the keys each chunk builds from an empty table
        for chunk in chunks:
            empty_orbits.clear()
            _sweep_chunk((theorem.value, True, True, s_list, r_list, chunk))
            built.append(set(empty_orbits))
        child_only = built[1] - built[0]
        assert child_only

        empty_orbits.clear()
        assert exhaustive_verify(theorem, 3, 3, waive_hypotheses=True, jobs=2).holds
        assert set(empty_orbits) == built[0] | built[1]
        handed = dict(empty_orbits)

        # the next theorem's pool forks with every entry: building one, in
        # the caller or in the child, raises
        def no_build(*args):
            raise AssertionError("an orbit entry was built again")

        with monkeypatch.context() as m:
            m.setattr(K, "monotone_maps", no_build)
            assert exhaustive_verify(TheoremId.T_PERFECT_COVER, 3, 3, jobs=2).holds
        assert set(empty_orbits) == set(handed)
        _assert_fresh_entries(handed)

    def test_forked_children_hand_back_their_facts(self, monkeypatch, empty_orbits):
        monkeypatch.setattr(sys, "platform", "linux")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        # waived, C_EQUIVALENT wants the facts of every representative of
        # the first pair of each class of a chunk, and holds at (3, 3)
        theorem = TheoremId.C_EQUIVALENT
        s_list = r_list = labeled_posets(0, 3)
        chunks = deal_class_pairs(class_pairs(s_list, r_list, True), 2)
        made = []  # the fact entries each chunk makes from empty tables
        for chunk in chunks:
            K._FACTS.clear()
            _sweep_chunk((theorem.value, True, True, s_list, r_list, chunk))
            made.append(dict(K._FACTS))
        assert set(made[1]) - set(made[0])

        empty_orbits.clear()
        K._FACTS.clear()
        assert exhaustive_verify(theorem, 3, 3, waive_hypotheses=True, jobs=2).holds
        assert K._FACTS == {**made[0], **made[1]}
        handed = dict(K._FACTS)

        # the next theorem's pool forks with every fact: computing one, in
        # the caller or in the child, raises
        def no_facts(*args):
            raise AssertionError("a map's facts were computed again")

        with monkeypatch.context() as m:
            m.setattr(K, "_map_facts", no_facts)
            assert exhaustive_verify(TheoremId.P_LAYERS, 3, 3, waive_hypotheses=True, jobs=2).holds
        assert K._FACTS == handed
        _assert_fresh_facts(handed)

    def test_spawned_children_hand_back_their_entries(self, monkeypatch, empty_orbits):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(search_module, "MAPS_PER_FORK", 0)
        single = _pool_reports(1)
        empty_orbits.clear()
        caller_built = set()  # keys of the maps the caller lists itself
        monotone_maps = K.monotone_maps

        def recording(ns, s_up, nr, r_up, allow_top):
            caller_built.add((tuple(s_up), tuple(r_up), allow_top))
            return monotone_maps(ns, s_up, nr, r_up, allow_top)

        monkeypatch.setattr(K, "monotone_maps", recording)
        monkeypatch.setattr(sys, "platform", "darwin")
        assert _pool_reports(2) == single
        assert multiprocessing.active_children() == []
        # a spawned child starts from an empty table; the entries only it
        # built reach the caller all the same
        handed = {key: e for key, e in empty_orbits.items() if key not in caller_built}
        assert handed
        _assert_fresh_entries(handed)


@pytest.fixture
def forked(monkeypatch):
    """The pids os.fork returns to this process during the test."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def _assert_reaped(pids):
    """Each of `pids` is neither running nor left unreaped.

    Asked per pid rather than with waitpid(-1): a spawn pool of an earlier
    test leaves multiprocessing's resource tracker running as a child.
    """
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="pools fork on Linux only")
class TestForkPool:
    """run_chunks on a fork pool: one child per payload after the first."""

    @staticmethod
    def run(task, payloads):
        return run_chunks(task, payloads, theorems_module.mp)

    def test_a_child_exception_is_raised_in_the_caller(self, forked):
        def task(payload):
            if payload == "fail":
                raise KeyError("raised in a child")
            return payload, os.getpid()

        results = self.run(task, ["caller", "a", "b"])
        assert [payload for payload, _ in results] == ["caller", "a", "b"]
        pids = [pid for _, pid in results]
        assert pids[0] == os.getpid() and pids[1:] == forked
        _assert_reaped(forked)
        with pytest.raises(KeyError, match="raised in a child"):
            self.run(task, ["caller", "a", "fail", "b"])
        assert len(forked) == 5
        _assert_reaped(forked)

    def test_an_exception_in_the_callers_chunk_kills_the_children(self, forked):
        def task(payload):
            if payload == "caller":
                raise ValueError("raised in the caller")
            time.sleep(30)

        start = time.perf_counter()
        with pytest.raises(ValueError, match="raised in the caller"):
            self.run(task, ["caller", "sleep", "sleep"])
        assert time.perf_counter() - start < 10
        _assert_reaped(forked)

    def test_a_child_killed_by_a_signal_is_an_error(self, forked):
        def task(payload):
            if payload == "die":
                os.kill(os.getpid(), signal.SIGKILL)
            return payload

        with pytest.raises(ChildProcessError, match=f"signal {int(signal.SIGKILL)}"):
            self.run(task, ["caller", "die", "b"])
        _assert_reaped(forked)


def _oracle_sweep(theorem, waive, max_s, max_r):
    """Map total and first violating (pair, map) by a plain scan: no memo,
    no early stop, no workers."""
    total = 0
    first = None
    for idx, s_rows, r_rows in sweep_pairs(max_s, max_r):
        s, r = K.PosetFacts(_raw_up(s_rows)), K.PosetFacts(_raw_up(r_rows))
        total += K.count_monotone_maps(s.n, s, r.n, r, True)
        for k, cmap in enumerate(K.monotone_maps(s.n, s, r.n, r, True)):
            bits = K.property_bits(s.n, s, r.n, r, cmap)
            code = K.eval_theorem(
                theorem.value, waive, s, r, cmap, bits, K._allowed_masks(s, cmap)
            )
            if code and first is None:
                first = (idx, k)
    return total, first


def test_sweeps_at_every_jobs_count_match_an_oracle(monkeypatch):
    # three usable CPUs, so jobs=3 really splits the classes three ways
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    failing = 0
    for theorem, waive in product(TheoremId, (False, True)):
        total, first = _oracle_sweep(theorem, waive, 2, 3)
        failing += first is not None
        for jobs in (1, 2, 3):
            v = exhaustive_verify(theorem, 2, 3, waive_hypotheses=waive, jobs=jobs)
            assert v.instances_checked == total == SWEEP_COUNTS[2, 3]
            assert v.holds == (first is None), (theorem.name, waive, jobs)
            if first is not None:
                assert v.note == f"first violation at pair {first[0]}, map {first[1]}"
    assert failing > 0


def test_a_sweep_calls_sweep_pair_once_per_labeled_pair(monkeypatch):
    calls = []
    sweep_pair = K.sweep_pair

    def recording(*args, **kwargs):
        calls.append((len(args), sorted(kwargs)))
        return sweep_pair(*args, **kwargs)

    monkeypatch.setattr(K, "sweep_pair", recording)
    for bounds, waive, pairs in (((1, 2), True, 10), ((3, 3), False, 576), ((3, 3), True, 576)):
        for theorem in TheoremId:
            calls.clear()
            exhaustive_verify(theorem, *bounds, waive_hypotheses=waive)
            assert calls == [(7, ["count_only", "memo"])] * pairs, (theorem.name, bounds, waive)


def _labeled_pair_sweep(theorem, waive, allow_top, pairs):
    """Map total and note of a sweep over listed (idx, s, r) labeled pairs,
    each scanned by sweep_pair without a memo: no classes, no chunks."""
    total = 0
    note = None
    for idx, s, r in pairs:
        count, first_bad, _ = K.sweep_pair(
            theorem.value, waive, s.n, s, r.n, r, allow_top, count_only=note is not None
        )
        total += count
        if first_bad >= 0:
            note = f"first violation at pair {idx}, map {first_bad}"
    return total, note


@pytest.mark.parametrize("bounds", [(3, 3), (2, 4)])
def test_block_sweeps_match_the_labeled_pair_oracle(monkeypatch, bounds):
    # three usable CPUs, so jobs=3 really splits the classes three ways
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    # records of the oracle's own, apart from K._RECORDS
    fresh = {rows: K.PosetFacts(_raw_up(rows)) for rows in labeled_posets(0, max(bounds))}
    pairs = [(idx, fresh[s_rows], fresh[r_rows]) for idx, s_rows, r_rows in sweep_pairs(*bounds)]
    failing = 0
    for theorem, waive, allow_top in product(TheoremId, (False, True), (False, True)):
        total, note = _labeled_pair_sweep(theorem, waive, allow_top, pairs)
        failing += note is not None
        for jobs in (1, 2, 3):
            v = exhaustive_verify(
                theorem, *bounds, allow_top=allow_top, waive_hypotheses=waive, jobs=jobs
            )
            assert (v.instances_checked, v.holds, v.note) == (total, note is None, note), (
                theorem.name, waive, allow_top, jobs,
            )
    assert failing > 0


def _oracle_search(spec):
    """First witness of `spec`, unshrunk, by a plain scan: no memo, no
    orbits, no chunks, every map checked on the object level."""
    allow_top = "!UNITARY" in spec.required
    s_list = [rows for n in range(1, spec.max_s + 1) for rows in _strict_order_masks(n)]
    r_list = [rows for n in range(1, spec.max_r + 1) for rows in _strict_order_masks(n)]
    for s_rows, r_rows in product(s_list, r_list):
        s_up, r_up = _raw_up(s_rows), _raw_up(r_rows)
        for vec in K.monotone_maps(len(s_up), s_up, len(r_up), r_up, allow_top):
            m = instance_from_raw(s_rows, r_rows, vec)
            if flags_hold(m, spec.required) and goal_holds(m, spec.goal, spec.d_size):
                return m
    return None


def test_searches_at_every_jobs_count_match_an_oracle(monkeypatch):
    # three usable CPUs, so jobs=3 really splits the classes three ways
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    found = []
    for spec in _benchmark_specs(2, 3):
        want = _oracle_search(spec)
        found.append(want is not None)
        for jobs in (1, 2, 3):
            got = search_witness(spec, jobs=jobs, do_shrink=False)
            if want is None:
                assert got is None, (spec.required, spec.goal, jobs)
            else:
                assert got.describe() == want.describe(), (spec.required, spec.goal, jobs)
    assert any(found) and not all(found)


def _labeled_pair_search_report(spec):
    """Report bytes of the unshrunk first witness of `spec`, by a plain loop
    over the labeled pairs in canonical order, each pair's maps scanned in
    full by search_pair on plain up masks: no classes, no orbits, no chunks,
    no pruning by d_size."""
    need, forbid = _flag_masks(spec.required)
    allow_top = "!UNITARY" in spec.required
    s_list = [rows for n in range(1, spec.max_s + 1) for rows in _strict_order_masks(n)]
    r_list = [rows for n in range(1, spec.max_r + 1) for rows in _strict_order_masks(n)]
    witness = None
    for s_rows, r_rows in product(s_list, r_list):
        s_up, r_up = _raw_up(s_rows), _raw_up(r_rows)
        _, hit = K.search_pair(
            len(s_up), s_up, len(r_up), r_up, allow_top, need, forbid,
            GOALS[spec.goal], spec.d_size or 0,
        )
        if hit >= 0:
            vec = K.monotone_maps(len(s_up), s_up, len(r_up), r_up, allow_top)[hit]
            witness = instance_from_raw(s_rows, r_rows, vec)
            break
    return serialize_report(build_search_report(spec, witness))


@pytest.mark.parametrize("bounds", [(2, 3), (3, 3), (2, 4)])
def test_class_pair_searches_match_a_labeled_pair_loop(monkeypatch, bounds):
    # three usable CPUs, so jobs=3 really splits the class pairs three ways
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    workers = []
    run_chunks = search_module.run_chunks

    def recording(task, payloads, mp):
        workers.append(len(payloads))
        return run_chunks(task, payloads, mp)

    monkeypatch.setattr(search_module, "run_chunks", recording)
    specs = _benchmark_specs(*bounds)
    specs += [
        dataclasses.replace(spec, d_size=d_size)
        for spec in specs
        if spec.goal != "lo-fails"
        for d_size in (1, 2, 3)
    ]
    # the first class pairs that these hit have members whose first hits
    # lie at other map indices than the least member's
    specs += [
        WitnessSearchSpec(
            required=frozenset(required.split(",")), goal=goal, max_s=bounds[0],
            max_r=bounds[1], d_size=d_size,
        )
        for required, goal, d_size in (
            ("!GU", "lo-fails", None),
            ("!UNITARY,!INC", "maximal-dchain-not-cover", 2),
        )
    ]
    found = []
    for spec in dict.fromkeys(specs):
        want = _labeled_pair_search_report(spec)
        found.append('"found": true' in want)
        for forced, jobs in product((False, True), (1, 2, 3)):
            workers.clear()
            with monkeypatch.context() as m:
                if forced:
                    # past the gate, the class pairs are split between workers
                    m.setattr(search_module, "MAPS_PER_FORK", 0)
                got = serialize_report(
                    build_search_report(spec, search_witness(spec, jobs=jobs, do_shrink=False))
                )
            assert got == want, (spec, forced, jobs)
            # these bounds hold too few maps to pay for a pool; a d_size above
            # max_s leaves no class pair to deal
            pruned = (spec.d_size or 0) > spec.max_s
            assert workers == [jobs if forced and not pruned else 1], (spec, forced, jobs)
    assert any(found) and not all(found)


def test_a_search_over_filled_orbit_tables_runs_in_the_caller(monkeypatch, empty_orbits):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    # any class pair without an orbit entry pays for a pool
    monkeypatch.setattr(search_module, "MAPS_PER_FORK", 1)
    workers = []
    run_chunks = search_module.run_chunks

    def recording(task, payloads, mp):
        workers.append(len(payloads))
        return run_chunks(task, payloads, mp)

    monkeypatch.setattr(search_module, "run_chunks", recording)
    spec = WitnessSearchSpec(
        required=frozenset({"LO", "GU", "GD"}), goal="maximal-dchain-not-cover",
        max_s=3, max_r=3,
    )
    # the search scans its whole space, and the children hand back the
    # entries they build, so the caller then holds one for every class pair
    assert search_witness(spec, jobs=2) is None
    assert search_witness(spec, jobs=2) is None
    assert workers == [2, 1]


class TestClassChunks:
    @pytest.mark.parametrize("bounds", [(3, 3), (2, 4)])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_chunks_split_the_pairs_by_class(self, monkeypatch, bounds, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        pairs = sweep_pairs(*bounds)
        s_list, r_list = labeled_posets(0, bounds[0]), labeled_posets(0, bounds[1])
        width = len(r_list)
        chunks = deal_class_pairs(class_pairs(s_list, r_list, True), 8)
        assert len(chunks) == cpus
        # the labeled pairs a chunk's sweep walks, from its sweep_pair calls
        position = {id(K._RECORDS[rows]): pos for pos, rows in enumerate(s_list)}
        position.update({id(K._RECORDS[rows]): pos for pos, rows in enumerate(r_list)})
        walked = []
        sweep_pair = K.sweep_pair

        def recording(tid, waive, ns, s, nr, r, *args, **kwargs):
            walked.append(position[id(s)] * width + position[id(r)])
            return sweep_pair(tid, waive, ns, s, nr, r, *args, **kwargs)

        monkeypatch.setattr(K, "sweep_pair", recording)
        owner = {}
        every = []
        for k, chunk in enumerate(chunks):
            least = [s_pos[0] * width + r_pos[0] for s_pos, r_pos in chunk]
            assert least == sorted(least)
            walked.clear()
            _sweep_chunk((TheoremId.C_EQUIVALENT.value, False, True, s_list, r_list, chunk))
            want = []
            for s_positions, r_positions in chunk:
                members = [s * width + r for s in s_positions for r in r_positions]
                # a product is one whole class pair, walked in ascending order
                keys = {
                    (K._canonical_encoding(pairs[idx][1]), K._canonical_encoding(pairs[idx][2]))
                    for idx in members
                }
                assert len(keys) == 1 and members == sorted(members)
                assert owner.setdefault(keys.pop(), k) == k
                want += members
            assert walked == want
            # the estimate keeps every worker busy
            assert len(walked) > len(pairs) / (4 * cpus)
            every += walked
        assert sorted(every) == list(range(len(pairs)))
        # every class pair is dealt once
        assert sum(len(chunk) for chunk in chunks) == len(owner)

    def test_one_worker_gets_all_pairs(self, monkeypatch):
        chunks = []
        run_chunks = theorems_module.run_chunks

        def recording(task, payloads, mp):
            chunks.extend(payload[-1] for payload in payloads)
            return run_chunks(task, payloads, mp)

        monkeypatch.setattr(theorems_module, "run_chunks", recording)
        s_list, r_list = labeled_posets(0, 2), labeled_posets(0, 3)
        whole = [(range(len(s_list)), range(len(r_list)))]
        exhaustive_verify(TheoremId.C_EQUIVALENT, 2, 3, jobs=1)
        assert chunks == [whole]
        chunks.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        exhaustive_verify(TheoremId.C_EQUIVALENT, 2, 3, jobs=4)
        assert chunks == [whole]

    def test_the_estimate_is_exact_on_antichains(self):
        chain3 = (0b110, 0b100, 0b000)
        for r_rows in [(), (0,), (0, 0, 0)]:
            for allow_top in (False, True):
                want = K.count_monotone_maps(
                    3, _raw_up(chain3), len(r_rows), _raw_up(r_rows), allow_top
                )
                assert _map_estimate(chain3, r_rows, allow_top) == want
        assert _map_estimate((), (0,), False) == 0
        assert _map_estimate((), (), False) == 1

    def test_the_estimate_matches_a_raw_row_loop(self):
        def estimate(s_rows, r_rows, allow_top):
            # covering pairs of r from the raw rows: a row's bits minus
            # everything above one of them
            values = len(s_rows) + allow_top
            if not values:
                return float(not r_rows)
            ordered = len(s_rows) + sum(row.bit_count() for row in s_rows) + allow_top * values
            covers = 0
            for row in r_rows:
                above = 0
                rest = row
                while rest:
                    low = rest & -rest
                    above |= r_rows[low.bit_length() - 1]
                    rest ^= low
                covers += (row & ~above).bit_count()
            return values ** len(r_rows) * (ordered / values**2) ** covers

        s_list, r_list = labeled_posets(0, 3), labeled_posets(0, 4)
        for s_rows, r_rows in product(s_list, r_list):
            for allow_top in (False, True):
                want = estimate(s_rows, r_rows, allow_top)
                assert _map_estimate.__wrapped__(s_rows, r_rows, allow_top) == want, (
                    s_rows, r_rows, allow_top,
                )


def _benchmark_specs(max_s, max_r):
    """The benchmark's six witness searches at the given bounds."""
    from test_kernels import _SEARCHES

    return [
        WitnessSearchSpec(
            required=frozenset(required.split(",")), goal=goal, max_s=max_s,
            max_r=max_r, d_size=d_size,
        )
        for required, goal, d_size in _SEARCHES
    ]


class TestRecordTable:
    """K._RECORDS, the one poset record table of the process."""

    #: plain, waived and --no-top sweeps
    MODES = ({}, {"waive_hypotheses": True}, {"allow_top": False})

    @staticmethod
    def sweep_and_search():
        for theorem, waive in product(TheoremId, (False, True)):
            exhaustive_verify(theorem, 2, 3, waive_hypotheses=waive)
        for spec in _benchmark_specs(2, 3):
            search_witness(spec)

    def test_records_match_fresh_records(self, empty_records):
        self.sweep_and_search()
        # every labeled poset of at most three elements
        assert len(empty_records) == 24
        # the allowed entries the sweeps and searches filled, read without
        # filling a table
        entries = {
            (rows, cmap): (allowed, dict(allowed))
            for rows, record in empty_records.items()
            for cmap, allowed in vars(record).get("allowed", {}).items()
        }
        assert entries
        # sweeping and searching again shares every entry and changes none
        self.sweep_and_search()
        for (rows, cmap), (allowed, before) in entries.items():
            assert empty_records[rows].allowed[cmap] is allowed
            assert allowed == before, (rows, cmap)
        for rows, record in empty_records.items():
            fresh = K.PosetFacts(_raw_up(rows))
            for cmap, allowed in vars(record).get("allowed", {}).items():
                assert allowed == K._allowed_masks(fresh, cmap), (rows, cmap)
            assert_tables_match_fresh(record, fresh, rows)
        # the sweeps filled image tables as well; an s of at most two
        # elements has no chain whose links P_MINI_SGB reads
        assert any(vars(record).get("images") for record in empty_records.values())
        rows_list = [rows for n in range(5) for rows in _strict_order_masks(n)]
        rows_list += [rows for rows in _strict_order_masks(5) if K._canonical_encoding(rows) == rows]
        for rows in rows_list:
            record, fresh = empty_records[rows], K.PosetFacts(_raw_up(rows))
            assert record == fresh, rows
            for field in RECORD_FIELDS:
                assert getattr(record, field) == getattr(fresh, field), (rows, field)
            for allowed in range(1 << len(rows)):
                assert record.dchains[allowed] == fresh.dchains[allowed], (rows, allowed)

    def outcomes(self, order, jobs=1, between=None):
        """(holds, count, note, report bytes) of each theorem's sweep at (2, 3)
        in each mode, run in the given order of theorems."""
        out = {}
        for theorem in order:
            for k, mode in enumerate(self.MODES):
                v = exhaustive_verify(theorem, 2, 3, jobs=jobs, **mode)
                report = serialize_report(build_verify_report(None, [v], {"max_s": 2, "max_r": 3}))
                out[theorem, k] = (v.holds, v.instances_checked, v.note, report)
                if between is not None:
                    between()
        return out

    def test_results_do_not_depend_on_the_sweep_order(self, empty_records, monkeypatch):
        # three usable CPUs, so jobs=3 really splits the classes three ways
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        theorems = list(TheoremId)
        cold = self.outcomes(theorems)
        # waived sweeps fail, so counterexamples are compared too
        assert not all(holds for holds, *_ in cold.values())
        assert self.outcomes(theorems) == cold
        assert self.outcomes(theorems[::-1]) == cold
        specs = _benchmark_specs(2, 3)
        searched = []

        def search():
            spec = specs[len(searched) % len(specs)]
            searched.append(search_witness(spec) is not None)

        assert self.outcomes(theorems, between=search) == cold
        assert any(searched) and not all(searched)
        # forked workers inherit the filled table
        for jobs in (1, 2, 3):
            assert self.outcomes(theorems, jobs=jobs) == cold, jobs


class TestInstanceFromRaw:
    def test_normalization_reorders_by_label(self):
        # raw element 1 sits below raw element 0, so labels swap positions
        m = instance_from_raw((0b00, 0b01), (0b00, 0b01), (0, 1))
        assert m.s_poset.labels == ("e1", "e0")
        assert m.s_poset.less(m.s_poset.index("e1"), m.s_poset.index("e0"))
        # raw q0 -> raw e0 and raw q1 -> raw e1 must survive the renaming
        r_q0 = m.r_poset.index("e0")
        assert m.assignment[r_q0] == m.s_poset.index("e0")
        r_q1 = m.r_poset.index("e1")
        assert m.assignment[r_q1] == m.s_poset.index("e1")

    def test_top_value_is_source_size(self):
        m = instance_from_raw((0b00,), (0b00, 0b00), (0, 1))
        assert m.assignment[m.r_poset.index("e1")] is TOP


class TestSearch:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WitnessSearchSpec(required=frozenset({"BOGUS"}), goal="lo-fails",
                              max_s=2, max_r=2)
        with pytest.raises(ValueError):
            WitnessSearchSpec(required=frozenset(), goal="nonsense",
                              max_s=2, max_r=2)
        with pytest.raises(ValueError):
            WitnessSearchSpec(required=frozenset(), goal="lo-fails",
                              max_s=0, max_r=2)
        with pytest.raises(ValueError, match="unknown property flag '!!GU'"):
            WitnessSearchSpec(required=frozenset({"!!GU"}), goal="lo-fails",
                              max_s=2, max_r=2)
        for flag in (*PROPERTY_BITS, "UNITARY"):
            with pytest.raises(ValueError, match=f"{flag!r} is both required and forbidden"):
                WitnessSearchSpec(required=frozenset({"LO", flag, "!" + flag}),
                                  goal="maximal-dchain-not-cover", max_s=2, max_r=2)
        assert set(GOALS) == {
            "lo-fails",
            "maximal-dchain-not-cover",
            "maximal-dchain-not-perfect-cover",
        }

    def test_minimal_lo_failure_witness(self):
        spec = WitnessSearchSpec(
            required=frozenset({"GU"}), goal="lo-fails", max_s=3, max_r=2
        )
        w = search_witness(spec)
        # shrinking lands on the smallest shape: two incomparable primes
        # downstairs, one upstairs, one prime never hit
        assert w.s_poset.n == 2 and w.s_poset.order_pairs() == []
        assert w.r_poset.n == 1
        assert w.assignment == (0,)
        assert flags_hold(w, spec.required)
        assert goal_holds(w, spec.goal)

    def test_height_pruning_keeps_the_first_hit(self):
        # the first hit's s, e0 apart from e1 < e2, has maximal chains of
        # sizes 1 and 2: only its longest chain may decide the pruning
        spec = WitnessSearchSpec(
            required=frozenset({"GU", "GD"}), goal="maximal-dchain-not-cover",
            max_s=3, max_r=3, d_size=2,
        )
        need, forbid = _flag_masks(spec.required)
        nonempty = [rows for n in range(1, 4) for rows in _strict_order_masks(n)]
        for s_rows, r_rows in product(nonempty, nonempty):
            _, hit = K.search_pair(
                len(s_rows), _raw_up(s_rows), len(r_rows), _raw_up(r_rows),
                False, need, forbid, GOALS[spec.goal], 2,
            )
            if hit >= 0:
                break
        assert s_rows == (0, 4, 0)
        vec = K.monotone_maps(
            len(s_rows), _raw_up(s_rows), len(r_rows), _raw_up(r_rows), False
        )[hit]
        want = instance_from_raw(s_rows, r_rows, vec)
        assert search_witness(spec, do_shrink=False).describe() == want.describe()

    def test_search_determinism_across_jobs(self):
        spec = WitnessSearchSpec(
            required=frozenset({"GU", "GD"}), goal="lo-fails", max_s=3, max_r=3
        )
        w1 = search_witness(spec)
        w2 = search_witness(spec, jobs=3)
        assert w1.describe() == w2.describe()

    def test_search_stops_at_the_first_hit(self, monkeypatch, empty_records):
        # independent route: scan the labeled pairs in canonical order, every
        # map of each, and find the first one with a hit
        spec = WitnessSearchSpec(
            required=frozenset({"GU"}), goal="lo-fails", max_s=3, max_r=4
        )
        need, forbid = _flag_masks(spec.required)
        s_list = [rows for n in range(1, 4) for rows in _strict_order_masks(n)]
        r_list = [rows for n in range(1, 5) for rows in _strict_order_masks(n)]
        position = next(
            pos
            for pos, (s_rows, r_rows) in enumerate(product(s_list, r_list))
            if K.search_pair(
                len(s_rows), _raw_up(s_rows), len(r_rows), _raw_up(r_rows),
                False, need, forbid, K.GOAL_LO_FAILS, 0,
            )[1] >= 0
        )
        assert position < len(s_list) * len(r_list) - 1
        # one scan per class pair whose least labeled member comes no later
        classes = {
            (K._canonical_encoding(s_rows), K._canonical_encoding(r_rows))
            for s_rows, r_rows in islice(product(s_list, r_list), position + 1)
        }
        assert len(classes) == 25

        calls = 0
        search_pair = K.search_pair

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return search_pair(*args, **kwargs)

        monkeypatch.setattr(K, "search_pair", counting)
        w = search_witness(spec, jobs=1)
        assert calls == len(classes)
        # the report bytes of this search before the early stop existed
        text = serialize_report(build_search_report(spec, w))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "6901b9a0f5db34c0df9421f7953f35335cbc6976839748ae59c0b423222bf9d4"
        )

    def test_unsatisfiable_returns_none(self):
        # LO cannot fail when it is also required to hold
        spec = WitnessSearchSpec(
            required=frozenset({"LO"}), goal="lo-fails", max_s=2, max_r=2
        )
        assert search_witness(spec) is None

    def test_shrink_requires_a_violating_start(self):
        m = diamond_identity()
        with pytest.raises(ValueError):
            shrink(m, lambda inst: False)

    def test_shrink_is_a_fixed_point_on_minimal_witnesses(self):
        spec = WitnessSearchSpec(
            required=frozenset({"GU"}), goal="lo-fails", max_s=3, max_r=2
        )
        w = search_witness(spec)

        def violation(inst):
            return flags_hold(inst, spec.required) and goal_holds(inst, spec.goal)

        again = shrink(w, violation)
        assert again.describe() == w.describe()

    def test_shrink_removes_padding(self):
        # a 3-antichain upstairs mapped onto one of three primes shrinks to
        # the 2-antichain/1-point core
        s = make_poset(["a", "b", "c"], [])
        r = make_poset(["q0", "q1", "q2"], [])
        m = make_spectral_map(s, r, [0, 0, 0])

        def violation(inst):
            return goal_holds(inst, "lo-fails")

        small = shrink(m, violation)
        assert small.s_poset.n == 2
        assert small.r_poset.n == 1

    def test_shrink_candidates_match_matrix_oracle(self):
        # every mask-built candidate equals the one the old numpy submatrix
        # code built, or fails monotonicity with the same message
        def outcome(build):
            try:
                m = build()
            except NotMonotone as exc:
                return str(exc)
            s, r = m.s_poset, m.r_poset
            return s.labels, s.up_masks, r.labels, r.up_masks, m.assignment

        rng = random.Random(14)
        builds = refusals = 0
        for _ in range(2000):
            s = random_poset(rng.randint(1, 4), rng.randrange(2**32))
            r = random_poset(rng.randint(1, 6), rng.randrange(2**32))
            assignment = []
            for q in range(r.n):
                below = [assignment[p] for p in range(q) if r.up_masks[p] >> q & 1]
                fits = [] if TOP in below else [
                    v for v in range(s.n) if all(s.up_masks[b] >> v & 1 for b in below)
                ]
                if not fits or rng.random() < 0.2:
                    assignment.append(TOP)
                else:
                    assignment.append(rng.choice(fits))
            m = make_spectral_map(s, r, assignment)
            got = [outcome(build) for build in _shrink_candidates(m)]
            want = [outcome(build) for build in oracle_shrink_candidates(m)]
            assert got == want, m.describe()
            builds += len(got)
            refusals += sum(isinstance(o, str) for o in got)
        assert builds > 10_000 and refusals > 100


def _oracle_strict_orders(n):
    """Every labeled strict order on range(n): pairs (a, b) with a below b.

    Each unordered pair is unrelated, ordered one way or the other; the
    transitive choices are the posets.
    """
    pairs = list(combinations(range(n), 2))
    for states in product((0, 1, 2), repeat=len(pairs)):
        less = set()
        for (a, b), state in zip(pairs, states):
            if state == 1:
                less.add((a, b))
            elif state == 2:
                less.add((b, a))
        if all((a, d) in less for a, b in less for c, d in less if b == c):
            yield less


def _oracle_transitive_closure(pairs):
    less = set(pairs)
    while True:
        implied = {(a, d) for a, b in less for c, d in less if b == c} - less
        if not implied:
            return less
        less |= implied


def _oracle_maximal_chains(n, less):
    def comparable(a, b):
        return (a, b) in less or (b, a) in less

    chains = [
        set(c)
        for k in range(1, n + 1)
        for c in combinations(range(n), k)
        if all(comparable(a, b) for a, b in combinations(c, 2))
    ]
    return [
        c
        for c in chains
        if not any(
            x not in c and all(comparable(x, y) for y in c) for x in range(n)
        )
    ]


def _oracle_lo_gu_gd_maps(n, less, layers):
    """Monotone maps from (range(n), less) onto the chain 0 < 1 < ... with
    LO (onto), GU (every element has lifts of each higher layer above it)
    and GD (and of each lower layer below it)."""
    above = [[x for x in range(n) if (q, x) in less] for q in range(n)]
    below = [[x for x in range(n) if (x, q) in less] for q in range(n)]
    for f in product(range(layers), repeat=n):
        if len(set(f)) < layers or any(f[a] > f[b] for a, b in less):
            continue
        gu = all(
            any(f[x] == p for x in above[q])
            for q in range(n)
            for p in range(f[q] + 1, layers)
        )
        gd = all(
            any(f[x] == p for x in below[q]) for q in range(n) for p in range(f[q])
        )
        if gu and gd:
            yield f


def _oracle_misses_a_layer(f, chains, layers) -> bool:
    return any(len({f[q] for q in c}) < layers for c in chains)


class TestMaximalChainWitnessBounds:
    """The smallest witness that SGB is needed has six elements upstairs.

    The witness sought is a unitary map with LO, GU and GD but not SGB, with
    a maximal D-chain over a 3-element chain D that does not cover D. No
    such map exists with |s| <= 3, |r| <= 5:

    - d_size=3 and |s| <= 3 force s to be the 3-chain p1 < p2 < p3, and
      D = s.
    - Every chain of r is then a D-chain, so a maximal D-chain C is a
      maximal chain of r.
    - Suppose C misses a layer. GU at its top and GD at its bottom would
      extend C, so its top lies over p3 and its bottom over p1. C thus
      contains x1 < x3 over p1 and p3, and nothing over p2 is comparable to
      both.
    - GU at x1 gives u2 > x1 over p2, and u2 is not below x3.
    - GD at x3 gives m2 < x3 over p2, and m2 is not above x1.
    - GU at u2 needs an element over p3 above u2. It cannot be x3, so it
      is a new element u3.
    - GD at m2 needs an element over p1 below m2. It cannot be x1, so it is
      a new element l1.

    That makes six elements, before SGB or unitarity is asked for. The
    kernel search confirms the empty result, and a brute-force oracle built
    on itertools alone confirms it by a second route. six_element_witness
    (sample_instances/sgb_necessity.json) shows that six suffice.
    """

    def test_no_witness_within_five_r_elements(self):
        spec = WitnessSearchSpec(
            required=frozenset({"UNITARY", "LO", "GU", "GD", "!SGB"}),
            goal="maximal-dchain-not-cover",
            max_s=3,
            max_r=5,
            d_size=3,
        )
        assert search_witness(spec) is None

    def test_brute_force_oracle_finds_no_witness_within_five(self):
        # every labeled poset r with at most five elements over the 3-chain,
        # decided with itertools alone; SGB is not needed for the bound
        posets = maps = 0
        for n in range(1, 6):
            for less in _oracle_strict_orders(n):
                posets += 1
                chains = _oracle_maximal_chains(n, less)
                for f in _oracle_lo_gu_gd_maps(n, less, 3):
                    maps += 1
                    assert not _oracle_misses_a_layer(f, chains, 3), (n, less, f)
        assert posets == 1 + 3 + 19 + 219 + 4231  # OEIS A001035
        assert maps > 0

    def test_brute_force_oracle_flags_the_six_element_witness(self):
        # the oracle's predicate is not vacuous: it catches the shipped witness
        path = pathlib.Path(__file__).resolve().parent.parent
        data = json.loads(
            path.joinpath("sample_instances", "sgb_necessity.json").read_text()
        )
        s_index = {lab: i for i, lab in enumerate(data["s"]["labels"])}
        r_labels = data["r"]["labels"]
        r_index = {lab: i for i, lab in enumerate(r_labels)}
        less = _oracle_transitive_closure(
            (r_index[a], r_index[b]) for a, b in data["r"]["pairs"]
        )
        f = tuple(s_index[data["map"][lab]] for lab in r_labels)
        assert f in set(_oracle_lo_gu_gd_maps(len(r_labels), less, 3))
        chains = _oracle_maximal_chains(len(r_labels), less)
        assert _oracle_misses_a_layer(f, chains, 3)

    def test_six_element_witness_exists(self):
        m = six_element_witness()
        summary = properties_summary(m)
        assert summary["unitary"] and summary["LO"]
        assert summary["GU"] and summary["GD"]
        assert not summary["SGB"]
        # x1 < x3 lies over p1 < p3 with nothing between them upstairs
        assert not summary["GB"]
        assert summary["INC"] and summary["SCLO"] and summary["GGD"]
        assert summary["chain_morphism"]
        assert flags_hold(m, frozenset({"UNITARY", "LO", "GU", "GD", "!SGB"}))
        assert goal_holds(m, "maximal-dchain-not-cover", d_size=3)

    def test_witness_fails_the_cover_theorem_only_when_waived(self):
        m = six_element_witness()
        v = verify(m, TheoremId.T_MAXDCHAIN_COVERS)
        # the biconditional still holds: SGB fails and some maximal D-chain
        # fails to cover, so both sides are false together
        assert v.holds
        v = verify(m, TheoremId.T_COVER_MAXCHAIN)
        assert v.holds and v.note == "hypothesis unmet: SGB"
